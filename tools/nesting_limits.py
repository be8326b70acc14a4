"""The nesting limits of the parser: for each shape, the largest depth
that justfix.syntax.parse_formula or parse_term accepts.

    PYTHONPATH=src python3 tools/nesting_limits.py

Prints one JSON line per shape, {"sort": ..., "shape": ..., "limit": ...}.
The shape is the text repeated once per level, after 'mu p . ' for the
shape 'mu p . ~~', whose limit is set by the walk of the positivity check
that Mu's constructor runs on its body.  Each limit is bisected
between 0 and HIGH, which no shape reaches at the default recursion limit;
a depth counts as accepted when the parse returns, and as refused when it
raises ParseError.  The limits depend on the stack the caller has used, so
they are measured from this script's shallow stack, and they move by one
wherever the parser spends one more or one less frame per level.
Standard library only.
"""

import json

from justfix.syntax import ParseError, parse_formula, parse_term

HIGH = 4000

# (sort, shape, the text at depth n)
SHAPES = (
    ('formula', '(', lambda n: '(' * n + 'p' + ')' * n),
    ('formula', '~', lambda n: '~' * n + 'p'),
    ('formula', '->', lambda n: 'p -> ' * n + 'p'),
    ('formula', '[]', lambda n: '[]' * n + 'p'),
    ('formula', 'K@1', lambda n: 'K@1 ' * n + 'p'),
    ('formula', 'x :', lambda n: 'x : ' * n + 'p'),
    ('formula', 'x :@a', lambda n: 'x :@a ' * n + 'p'),
    ('formula', '!', lambda n: '!' * n + 'x : p'),
    ('formula', 'all x .', lambda n: 'all x . ' * n + 'p'),
    ('formula', 'fix(d;', lambda n: 'fix(d; ' * n + 'p' + ')' * n),
    ('formula', 'nu p .', lambda n: 'nu p . ' * n + 'p'),
    ('formula', 'mu p . ~~', lambda n: 'mu p . ' + '~~' * n + 'p'),
    ('term', '(', lambda n: '(' * n + 'x' + ')' * n),
    ('term', '!', lambda n: '!' * n + 'x'),
    ('term', '(... all y)', lambda n: '(' * n + 'x' + ' all y)' * n),
)


def main() -> None:
    """Bisects each limit here, not in a helper, so that the parser starts
    as near the bottom of the stack as this script can put it."""
    parsers = {'formula': parse_formula, 'term': parse_term}
    for sort, shape, text_at in SHAPES:
        lo, hi = 0, HIGH
        while hi - lo > 1:
            mid = (lo + hi) // 2
            try:
                parsers[sort](text_at(mid))
                lo = mid
            except ParseError:
                hi = mid
        print(json.dumps({'sort': sort, 'shape': shape, 'limit': lo}))


if __name__ == '__main__':
    main()
