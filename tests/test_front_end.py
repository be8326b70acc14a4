"""The front end against frozen copies of the code it replaced: the
backtracking tokenizer and parser, the profile walk run on every call, and
the character loops of the .drv line reader.  Each must give the same
result, or the same error message, on every input."""

from __future__ import annotations

import re

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from conftest import (ATOM_NAMES, _bool_layer, atoms, jl_formulas,
                      lp_terms, modal_formulas, node_objects, qlp_formulas,
                      qlp_terms, timed_formulas, with_fix)
from justfix import kernel, syntax
from justfix.registry import get_logic
from justfix.syntax import (And, App, Atom, Bang, Box, Const, Exists,
                            Falsum, FixApp, FMeta, Forall, Iff, Imp, Just,
                            Knows, Mu, Neg, Or, ParseError, PositivityError,
                            Prim, ProfileError, Quest, TMeta, TSum, UAll,
                            Var, WQuest, Xor, is_var_name, nu_formula,
                            occurrence_ok, print_formula, print_term, walk)


# -- the parser ---------------------------------------------------------------
# Frozen copy of the tokenizer and parser before the lookahead: unary
# parsed a speculative term at every atom and '(' and backtracked on
# ParseError.  Its number token has since been narrowed from \d+ to ASCII
# digits, as in the scanner, so K@\u0663 p is a bad character in both.

_REF_KEYWORDS = {"false", "xor", "all", "ex", "mu", "nu", "fix"}
_REF_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_#]*")
_REF_TOKEN_RE = re.compile(
    r"(<->|->|:@|\?\?|\[\]|<>|[~&|().,;:*+!?@]|[A-Za-z_][A-Za-z0-9_#]*|[0-9]+)")
_REF_WS_RE = re.compile(r"\s*")


def _ref_tokenize(text: str) -> list[tuple[str, int]]:
    toks: list[tuple[str, int]] = []
    pos = 0
    while pos < len(text):
        pos = _REF_WS_RE.match(text, pos).end()
        if pos >= len(text):
            break
        m = _REF_TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"bad character {text[pos]!r} at {pos}")
        toks.append((m.group(0), pos))
        pos = m.end()
    return toks


def _ref_is_ident(tok: str) -> bool:
    return bool(_REF_IDENT_RE.fullmatch(tok)) and tok not in _REF_KEYWORDS


class _RefParser:
    def __init__(self, text: str, profile: LanguageProfile):
        self.text = text
        self.toks = _ref_tokenize(text)
        self.pos = 0
        self.profile = profile

    def peek(self, ahead: int = 0) -> Optional[str]:
        i = self.pos + ahead
        return self.toks[i][0] if i < len(self.toks) else None

    def next(self) -> str:
        if self.pos >= len(self.toks):
            raise ParseError(f"unexpected end of input in {self.text!r}")
        tok = self.toks[self.pos][0]
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.next()
        if got != tok:
            raise ParseError(f"expected {tok!r}, got {got!r} in {self.text!r}")

    def ident(self) -> str:
        tok = self.next()
        if not _ref_is_ident(tok):
            raise ParseError(f"expected identifier, got {tok!r} in {self.text!r}")
        return tok

    # formula levels

    def imp(self) -> Formula:
        left = self.disj()
        if self.peek() == "->":
            self.next()
            return Imp(left, self.imp())
        if self.peek() == "<->":
            self.next()
            return Iff(left, self.imp())
        return left

    def disj(self) -> Formula:
        left = self.conj()
        while self.peek() in ("|", "xor"):
            op = self.next()
            right = self.conj()
            left = Or(left, right) if op == "|" else Xor(left, right)
        return left

    def conj(self) -> Formula:
        left = self.unary()
        while self.peek() == "&":
            self.next()
            left = And(left, self.unary())
        return left

    def unary(self) -> Formula:
        tok = self.peek()
        if tok == "~":
            self.next()
            return Neg(self.unary())
        if tok == "[]":
            self.next()
            return Box(self.unary())
        if tok == "<>":
            self.next()
            return Neg(Box(Neg(self.unary())))
        if tok == "K" and self.peek(1) == "@":
            self.next()
            self.next()
            num = self.next()
            if not num.isdigit():
                raise ParseError(f"expected time after K@, got {num!r}")
            return Knows(int(num), self.unary())
        if tok in ("all", "ex"):
            self.next()
            v = self.ident()
            self.expect(".")
            body = self.imp()
            return Forall(v, body) if tok == "all" else Exists(v, body)
        if tok in ("mu", "nu"):
            self.next()
            p = self.ident()
            self.expect(".")
            body = self.imp()
            return Mu(p, body) if tok == "mu" else nu_formula(p, body)
        save = self.pos
        try:
            t = self.term()
            nxt = self.peek()
            if nxt == ":":
                self.next()
                return Just(t, None, self.unary())
            if nxt == ":@":
                self.next()
                ag = self.ident()
                return Just(t, ag, self.unary())
        except ParseError:
            pass
        self.pos = save
        return self.primary()

    def primary(self) -> Formula:
        tok = self.next()
        if tok == "false":
            return Falsum()
        if tok == "fix":
            self.expect("(")
            name = self.ident()
            args: list[Formula] = []
            if self.peek() == ";":
                self.next()
                args.append(self.imp())
                while self.peek() == ",":
                    self.next()
                    args.append(self.imp())
            self.expect(")")
            return FixApp(name, tuple(args))
        if tok == "(":
            f = self.imp()
            self.expect(")")
            return f
        if _ref_is_ident(tok):
            return Atom(tok)
        raise ParseError(f"unexpected token {tok!r} in {self.text!r}")

    # term levels

    def term(self) -> Term:
        left = self.tapp()
        while self.peek() == "+":
            self.next()
            left = TSum(left, self.tapp())
        return left

    def tapp(self) -> Term:
        left = self.tunary()
        while self.peek() == "*":
            self.next()
            left = App(left, self.tunary())
        return left

    def tunary(self) -> Term:
        tok = self.peek()
        if tok == "!":
            self.next()
            return Bang(self.tunary())
        if tok == "??":
            self.next()
            return WQuest(self.tunary())
        if tok == "?":
            self.next()
            return Quest(self.tunary())
        return self.tprimary()

    def tprimary(self) -> Term:
        tok = self.next()
        if tok == "(":
            inner = self.term()
            if self.peek() == "all":
                self.next()
                v = self.ident()
                if not is_var_name(v):
                    raise ParseError(f"verifier binds a variable, got {v!r}")
                self.expect(")")
                return UAll(inner, v)
            self.expect(")")
            return inner
        if not _ref_is_ident(tok):
            raise ParseError(f"expected term, got {tok!r} in {self.text!r}")
        if self.peek() == "(":
            self.next()
            args = [self.ident()]
            while self.peek() == ",":
                self.next()
                args.append(self.ident())
            self.expect(")")
            for a in args:
                if not is_var_name(a):
                    raise ParseError(f"primitive term argument must be a variable, got {a!r}")
            return Prim(tok, tuple(args))
        if is_var_name(tok):
            return Var(tok)
        if "Const" not in self.profile.term_nodes and "Prim" in self.profile.term_nodes:
            return Prim(tok, ())
        return Const(tok)


def _ref_parse(text: str, profile: LanguageProfile, rule):
    """Run one parser rule over the whole of text."""
    p = _RefParser(text, profile)
    try:
        out = rule(p)
    except RecursionError:
        raise ParseError("formula nested too deeply") from None
    if p.pos != len(p.toks):
        tok, at = p.toks[p.pos]
        raise ParseError(f"trailing input {tok!r} at {at} in {text!r}")
    return out




def _outcome(parse, *args):
    try:
        return parse(*args)
    except (ParseError, PositivityError) as e:
        return '%s: %s' % (type(e).__name__, e)


def _same_parse(text, profile, term=False):
    new = _outcome(syntax._parse, text, profile,
                   syntax._TERM if term else 0)
    old = _outcome(_ref_parse, text, profile,
                   _RefParser.term if term else _RefParser.imp)
    assert new == old, text


_PROFILES = {name: get_logic(name).profile for name in (
    'K', 'LP', 'QLP', 'QLP_n', 'tS4', 'K(mu)', 'T(FP)', 'QLP-(FP)')}
_PROFILES['full'] = syntax.FULL


def _labelled(f):
    """f with every justification labelled by one of two agents."""
    kids = [_labelled(k) for k in f.children()]
    if isinstance(f, Just):
        return Just(f.t, 'a' if len(kids) % 2 else 'b', kids[0])
    return f.rebuild(kids)


def _mu(vf):
    v, f = vf
    return Mu(v if occurrence_ok(f, v, 'positive') else 'm', f)


# a formula printed under the profile it belongs to
_printed = st.one_of(
    st.tuples(st.just('K'), modal_formulas(6)),
    st.tuples(st.just('LP'), jl_formulas(6)),
    st.tuples(st.just('QLP'), qlp_formulas(6)),
    st.tuples(st.just('QLP_n'), qlp_formulas(6).map(_labelled)),
    st.tuples(st.just('tS4'), timed_formulas(6)),
    st.tuples(st.just('K(mu)'), st.recursive(
        atoms | st.just(Falsum()),
        lambda ch: _bool_layer(ch) | ch.map(Box)
        | st.tuples(st.sampled_from(ATOM_NAMES), ch).map(_mu),
        max_leaves=6)),
    st.tuples(st.just('T(FP)'), with_fix(modal_formulas(4))),
).map(lambda pf: (pf[0], print_formula(pf[1])))

_printed_terms = st.one_of(
    st.tuples(st.just('LP'), lp_terms),
    st.tuples(st.just('QLP'), qlp_terms),
    st.tuples(st.just('full'), qlp_terms | lp_terms),
).map(lambda pt: (pt[0], print_term(pt[1])))


@settings(max_examples=500, deadline=None)
@given(_printed, st.sampled_from(sorted(_PROFILES)))
@example(('K(mu)', '( mu p . p -> false'), 'K(mu)')    # both refuse the mu
def test_printed_formulas_parse_as_before(pf, other):
    name, text = pf
    _same_parse(text, _PROFILES[name])
    _same_parse(text, _PROFILES[other])


@settings(max_examples=300, deadline=None)
@given(_printed_terms)
def test_printed_terms_parse_as_before(pt):
    name, text = pt
    _same_parse(text, _PROFILES[name], term=True)


# tokens a mutation may insert: every token kind, keywords, a stray
# character and a stray '#'
_INSERTS = ('(', ')', ':', ':@', '~', '&', '|', '->', '<->', 'xor', '!',
            '?', '??', '*', '+', ',', ';', '.', '@', '[]', '<>', 'K', '3',
            'all', 'ex', 'mu', 'nu', 'fix', 'false', 'x', 'p', 'c', 'f',
            '$', '#', '(x all y)')


def _mutate(draw, toks):
    toks = list(toks)
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(('delete', 'duplicate', 'swap', 'insert')))
        if not toks:
            op = 'insert'
        k = draw(st.integers(0, max(len(toks) - 1, 0)))
        if op == 'delete':
            del toks[k]
        elif op == 'duplicate':
            toks.insert(k, toks[k])
        elif op == 'swap':
            j = draw(st.integers(0, len(toks) - 1))
            toks[k], toks[j] = toks[j], toks[k]
        else:
            toks.insert(k, draw(st.sampled_from(_INSERTS)))
    return ' '.join(toks)


@settings(max_examples=1000, deadline=None)
@given(st.data())
def test_malformed_formulas_fail_as_before(data):
    name, text = data.draw(_printed)
    toks = [tok for tok, _ in _ref_tokenize(text)]
    bad = _mutate(data.draw, toks)
    _same_parse(bad, _PROFILES[name])
    _same_parse(bad, _PROFILES[data.draw(st.sampled_from(sorted(_PROFILES)))])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_malformed_terms_fail_as_before(data):
    name, text = data.draw(_printed_terms)
    bad = _mutate(data.draw, [tok for tok, _ in _ref_tokenize(text)])
    _same_parse(bad, _PROFILES[name], term=True)


def _long(draw, printed, join):
    """Drawn printed formulas (or terms), parenthesized and joined until
    they have more tokens than the parser's group memo stores a group of."""
    parts = []
    while len(_ref_tokenize(join.join(parts))) <= syntax._GROUP_MIN:
        parts.append('(%s)' % draw(printed)[1])
    return join.join(parts)


# where a text puts a large group: at the top, under prefixes, binders and
# more parentheses (deeper than at the top), and before a ':' that sends
# the parser down the term path first
_GROUP_SITES = ('%s', '%s -> p', 'q & %s', '~~%s', 'K@1 %s', 'x : %s',
                '[](%s | q)', '(%s)', 'fix(d; %s)', 'all x . %s', '%s : p',
                '~' * 40 + '%s')
_TERM_GROUP_SITES = ('%s : p', '!%s : p', '%s * c : p', '(%s all x) : p')
_TERM_SITES = ('%s', '!%s', '%s + c', '(%s all x)')


@st.composite
def _one_table_inputs(draw):
    """1 to 12 (term?, text, profile name): printed formulas and terms,
    and texts that repeat one large formula group and one large term group
    at different sites, some of each mutated so that they fail."""
    group = '(%s)' % _long(draw, _printed, ' & ')
    term_group = '(%s)' % _long(draw, _printed_terms, ' + ')
    # one profile for most texts of a group, as in a file, so that the
    # group can be served
    group_profile = draw(st.sampled_from(sorted(_PROFILES)))
    inputs = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(('printed', 'group', 'term group')))
        if kind == 'printed':
            term = draw(st.booleans())
            name, text = draw(_printed_terms if term else _printed)
            name = draw(st.sampled_from((name, 'full')))
        elif kind == 'group':
            term = False
            name = draw(st.sampled_from((group_profile,) * 3 + ('full',)))
            text = draw(st.sampled_from(_GROUP_SITES)) % group
        else:
            term, name = draw(st.booleans()), draw(st.sampled_from(
                ('LP', 'QLP', 'full')))
            text = draw(st.sampled_from(
                _TERM_SITES if term else _TERM_GROUP_SITES)) % term_group
        if draw(st.integers(0, 3)) == 0:
            text = _mutate(draw, [tok for tok, _ in _ref_tokenize(text)])
        inputs.append((term, text, name))
    return inputs


def _equal(a, b) -> bool:
    """a == b for two outcomes, without the recursion of ==, which the
    deep formulas of the examples below would exhaust."""
    todo = [(a, b)]
    while todo:
        x, y = todo.pop()
        if x is y:
            continue
        if type(x) is not type(y):
            return False
        if isinstance(x, (syntax.Formula, syntax.Term)):
            todo += zip([getattr(x, n) for n in x.__match_args__],
                        [getattr(y, n) for n in y.__match_args__])
        elif type(x) is tuple and len(x) == len(y):
            todo += zip(x, y)
        elif x != y:
            return False
    return True


# A group parsed first, then where a memo that ignored the stack would
# skip parsing it again.  @given runs with the recursion limit raised
# (hypothesis adds 2,000 frames), so both tables accept these here; the
# tests after this one find them refused at the default limit.
_PARENS_150 = '(' * 150 + 'p & q' + ')' * 150
_NEGATIONS_900 = '(%sp)' % ('~' * 900)


@settings(max_examples=300, deadline=None)
@given(_one_table_inputs())
@example([(False, _PARENS_150, 'full'),
          (False, '(' * 60 + _PARENS_150 + ')' * 60, 'full')])
@example([(False, _NEGATIONS_900, 'full'),
          (False, '~' * 900 + _NEGATIONS_900, 'full')])
def test_one_table_parses_as_fresh_tables(inputs):
    """Formulas and terms, printed or mutated (so that some fail, some
    after a term path that backtracks), and texts that repeat a large
    group, parsed one after another through one table: each gives what a
    fresh table gives, and equal subtrees of all of them are one object."""
    table, parsed = {}, []
    for term, text, name in inputs:
        profile = _PROFILES[name]
        level = syntax._TERM if term else 0
        shared = _outcome(syntax._parse, text, profile, level, table)
        assert _equal(shared, _outcome(syntax._parse, text, profile, level)), text
        if not isinstance(shared, str):
            parsed.append(shared)
    # a node's table key (its class, its other fields and the ids of its
    # children) hashes without recursion, and by induction no two objects
    # share a key if and only if no two are equal
    nodes = node_objects(parsed)
    assert len({(type(g), *map(syntax._key, [getattr(g, n) for n in
                                             g.__match_args__]))
                for g in nodes}) == len(nodes)


_REUSED_TOO_DEEP = {
    'parentheses': (_PARENS_150, '(' * 60 + _PARENS_150 + ')' * 60),
    'negations': (_NEGATIONS_900, '~' * 900 + _NEGATIONS_900),
}


@pytest.mark.parametrize('first, second', _REUSED_TOO_DEEP.values(),
                         ids=list(_REUSED_TOO_DEEP))
def test_a_reused_group_nested_too_deeply_is_refused(first, second):
    table = {}
    syntax.parse_formula(first, table=table)
    for text, table in ((second, table), (first + ' & ' + second, {})):
        with pytest.raises(ParseError, match='^formula nested too deeply$'):
            syntax.parse_formula(text, table=table)
    # a ParseError, as before the memo, not a DerivationError
    drv = 'logic: K\n\n1. %s ; prop\n2. %s ; prop\n' % (first, second)
    with pytest.raises(ParseError, match='^formula nested too deeply$'):
        kernel.parse_derivation(drv)


def test_groups_chained_over_lines_nest_as_deep_as_parsed_apart():
    # each line wraps the line before it in 250 negations and parentheses
    lines, f = [], 'p'
    for n in range(1, 5):
        f = '(%s%s)' % ('~' * 250, f)
        lines.append('%d. %s ; prop' % (n, f))
    kernel.parse_derivation('logic: K\n\n%s\n' % '\n'.join(lines[:3]))
    with pytest.raises(ParseError, match='^formula nested too deeply$'):
        kernel.parse_derivation('logic: K\n\n%s\n' % '\n'.join(lines))


def test_a_refused_mu_stays_refused_through_one_table():
    table = {}
    for _ in range(2):
        with pytest.raises(PositivityError):
            syntax.parse_formula('q & mu p . ~p', table=table)


_EDGE_INPUTS = (
    '', ' ', 'x : ~', '( x : ~ )', '(x) : p', '(x all y) : p', '(c) * d : p',
    'f(x) : p', 'f(x)', 'p(', '!x', '! x : p', '?x : x : p', '??c : p',
    'x : p $ q', '\u00e9', 'p # q', 'K@ p', 'K@\u0663 p', 'c#3 : p',
    '((p))', '((x)) : p', '((x) : p)', 'p : q', 'x :@ : p', 'x :@a',
    '(' * 100 + 'p' + ')' * 100, '~' * 200 + 'p', 'x : ' * 100 + 'p',
)


@pytest.mark.parametrize('text', _EDGE_INPUTS,
                         ids=['edge%d' % k for k in range(len(_EDGE_INPUTS))])
def test_edge_inputs_parse_as_before(text):
    for profile in _PROFILES.values():
        _same_parse(text, profile)
        _same_parse(text, profile, term=True)


def test_times_are_ascii_digits():
    with pytest.raises(ParseError, match="bad character '\u0663' at 2"):
        syntax.parse_formula('K@\u0663 p')
    assert syntax.parse_formula('K@03 p') == Knows(3, Atom('p'))


# -- the profile check ----------------------------------------------------------
# Frozen copy of check_profile before the language facts: one walk over
# the formula on every call.

def _ref_check_profile(f, profile, agents=None):
    agent_err = None
    for g in walk(f):
        cls = type(g).__name__
        if cls == "FMeta":
            continue
        if cls not in profile.formula_nodes:
            raise ProfileError(f"{cls} not in language {profile.name}")
        if isinstance(g, Just):
            if profile.agents == "single" and g.agent is not None:
                raise ProfileError(f"agent label in single-agent language {profile.name}")
            if profile.agents == "multi" and g.agent is None:
                raise ProfileError(f"missing agent label in {profile.name}")
            for t in walk(g.t):
                tcls = type(t).__name__
                if tcls != "TMeta" and tcls not in profile.term_nodes:
                    raise ProfileError(f"term {tcls} not in language {profile.name}")
            if agents is None or agent_err:
                continue
            if not agents:
                if g.agent is not None:
                    agent_err = "agent label %r in single-agent logic" % g.agent
            elif g.agent is None:
                agent_err = "missing agent label in multi-agent logic"
            elif g.agent not in agents:
                agent_err = "undeclared agent %r" % g.agent
    if agent_err:
        raise ProfileError(agent_err)


def _check_outcome(check, f, profile, agents):
    try:
        check(f, profile, agents)
    except ProfileError as e:
        return str(e)
    return None


# every term kind, metavariables included
_all_terms = st.recursive(
    st.sampled_from(('x', 'y')).map(Var) | st.just(Const('c'))
    | st.just(Prim('f', ('x',))) | st.just(TMeta('t')),
    lambda ch: st.one_of(
        st.tuples(ch, ch).map(lambda ab: App(*ab)),
        st.tuples(ch, ch).map(lambda ab: TSum(*ab)),
        ch.map(Bang), ch.map(Quest), ch.map(WQuest),
        ch.map(lambda t: UAll(t, 'x'))),
    max_leaves=3)

_AGENT_LABELS = st.sampled_from((None, None, 'a', 'b', 'c'))

# every formula kind, agent labels and metavariables included
_all_formulas = st.recursive(
    atoms | st.just(Falsum()) | st.just(FMeta('A')),
    lambda ch: st.one_of(
        _bool_layer(ch), ch.map(Box),
        st.tuples(st.integers(0, 3), ch).map(lambda tf: Knows(*tf)),
        st.tuples(_all_terms, _AGENT_LABELS, ch).map(lambda j: Just(*j)),
        st.tuples(st.sampled_from(('x', 'y')), ch).map(lambda vf: Forall(*vf)),
        st.tuples(st.sampled_from(('x', 'y')), ch).map(lambda vf: Exists(*vf)),
        st.tuples(st.sampled_from(ATOM_NAMES), ch).map(_mu),
        st.lists(ch, max_size=2).map(lambda xs: FixApp('d', tuple(xs)))),
    max_leaves=8)

_CHECK_PROFILES = [get_logic(name).profile for name in (
    'K', 'S4(mu)', 'T(FP)', 'J', 'LP', 'JT45(mu)', 'QLP', 'QLP-', 'QLP_n',
    'QLP-_n', 'tS4', 'GL')] + [syntax.FULL]
_agent_tuples = st.sampled_from((None, (), ('a',), ('a', 'b'), ('c', 'a')))
_checks = st.lists(st.tuples(st.sampled_from(_CHECK_PROFILES), _agent_tuples),
                   min_size=1, max_size=4)


def _same_check(f, checks):
    for profile, agents in checks:
        assert _check_outcome(syntax.check_profile, f, profile, agents) == \
            _check_outcome(_ref_check_profile, f, profile, agents)


@settings(max_examples=500, deadline=None)
@given(_all_formulas, _all_formulas, _all_terms, _AGENT_LABELS, _checks)
def test_cached_profile_check_matches_walk(f, g, t, agent, checks):
    _same_check(f, checks)              # the first call computes the facts
    _same_check(f, checks)              # a repeated call reads them
    _same_check(g, checks[::-1])
    # fresh wrappers over checked children
    _same_check(Imp(f, g), checks)
    _same_check(Just(t, agent, f), checks)
    _same_check(Neg(Just(t, agent, Imp(g, f))), checks)


def test_facts_are_not_fields():
    f = Just(Var('x'), 'a', Imp(FMeta('A'), Knows(1, Atom('p'))))
    syntax.check_profile(f, syntax.FULL, ('a',))
    assert f._kinds
    assert list(Just.__match_args__) == ['t', 'agent', 'a']
    assert repr(f) == ("Just(t=Var(name='x'), agent='a', a=Imp(a=FMeta("
                       "name='A'), b=Knows(time=1, a=Atom(name='p'))))")
    # g has f's facts from its construction, before any profile check
    g = Just(Var('x'), 'a', Imp(FMeta('A'), Knows(1, Atom('p'))))
    assert f == g and hash(f) == hash(g)
    assert g._kinds == f._kinds


# -- the .drv line reader -------------------------------------------------------
# Frozen copies of the character loops strip_comment and _split_top
# replaced with str methods.

def _ref_strip_comment(line):
    s = line.lstrip()
    if s.startswith('#'):
        return ''
    for k in range(1, len(line)):
        if line[k] == '#' and line[k - 1].isspace():
            return line[:k]
    return line


def _ref_split_top(text, sep):
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == '(':
            depth += 1
        elif ch == ')':
            depth -= 1
        if ch == sep and depth == 0:
            parts.append(''.join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append(''.join(cur))
    return parts


_line_text = st.text(st.sampled_from('#();, \tp1\u3000'), max_size=24)


@settings(max_examples=1000, deadline=None)
@given(_line_text)
def test_line_reader_matches_character_loops(line):
    assert kernel.strip_comment(line) == _ref_strip_comment(line)
    for sep in ';,':
        assert kernel._split_top(line, sep) == _ref_split_top(line, sep)
