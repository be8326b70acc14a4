"""The size of each justfix module, in lines and in tokens.

    python3 tools/size.py [TREE] [--json]

Prints one line per module of TREE's src/justfix (default: this
repository's), with its lines as `wc -l` counts them and its tokens, then
the totals.  Tokens are those of the standard tokenize module, without
COMMENT, NL and ENCODING: the code as the compiler reads it, so comments
and blank lines do not count, and a docstring counts as one token.
CPython 3.11's parser doubles its token array as a file passes 8,192
tokens, which raises the peak memory of compiling it.  With --json it
prints one JSON object instead, module name -> {"lines": ...,
"tokens": ...}.  Standard library only.
"""

import argparse
import io
import json
import pathlib
import sys
import tokenize

ROOT = pathlib.Path(__file__).resolve().parent.parent
UNCOUNTED = (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)


def size(path: pathlib.Path) -> dict:
    """The lines and tokens of the Python file at path."""
    data = path.read_bytes()
    tokens = sum(t.type not in UNCOUNTED
                 for t in tokenize.tokenize(io.BytesIO(data).readline))
    return {'lines': data.count(b'\n'), 'tokens': tokens}


def sizes(tree: pathlib.Path = ROOT) -> dict:
    """size of each module of tree's src/justfix, by file name, in name
    order."""
    return {p.name: size(p)
            for p in sorted((tree / 'src' / 'justfix').glob('*.py'))}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog='tools/size.py')
    ap.add_argument('tree', nargs='?', type=pathlib.Path, default=ROOT,
                    help='checkout to measure (default: this repository)')
    ap.add_argument('--json', action='store_true',
                    help='print one JSON object')
    args = ap.parse_args(argv)
    table = sizes(args.tree)
    if args.json:
        print(json.dumps(table, sort_keys=True))
        return 0
    print('%-16s %7s %7s' % ('module', 'lines', 'tokens'))
    for name, n in table.items():
        print('%-16s %7d %7d' % (name, n['lines'], n['tokens']))
    print('%-16s %7d %7d' % ('total', sum(n['lines'] for n in table.values()),
                             sum(n['tokens'] for n in table.values())))
    return 0


if __name__ == '__main__':
    sys.exit(main())
