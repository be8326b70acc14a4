import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from conftest import (ATOM_NAMES, any_formulas, bool_formulas, jl_formulas,
                      lp_terms, modal_formulas, node_objects, qlp_formulas,
                      qlp_terms, timed_formulas, with_fix)
from justfix.registry import get_logic
from justfix.syntax import (And, Atom, Bang, Box, Const, Exists, Falsum,
                            FixApp, FMeta, Forall, Formula, Iff, Imp, Just,
                            Knows, Mu, Neg, NotFreeFor, Or, ParseError,
                            PositivityError, Prim, ProfileError, TMeta, TSum,
                            UAll, Var, free_vars, imp_chain, nu_formula,
                            occurrence_ok, parse_formula, parse_term,
                            print_formula, print_term, subst_prop,
                            subst_term_for_var, uall_vars,
                            walk, App, Quest, WQuest, Xor,
                            OCCURRENCE_MODES)
from justfix.transforms import project

QLP = get_logic('QLP').profile


# -- round trips (invariant suite: >= 500 instances each) ---------------------

@settings(max_examples=500, deadline=None)
@given(modal_formulas() | jl_formulas() | timed_formulas() | bool_formulas())
def test_roundtrip_print_parse(f):
    assert parse_formula(print_formula(f)) == f


@settings(max_examples=500, deadline=None)
@given(qlp_formulas())
def test_roundtrip_qlp_profile(f):
    # arity-0 primitive terms only lex as primitives under a qlp profile
    assert parse_formula(print_formula(f), QLP) == f


@settings(max_examples=500, deadline=None)
@given(qlp_terms | lp_terms)
def test_roundtrip_terms(t):
    prof = QLP if any(isinstance(s, (Prim, UAll))
                      for s in _subterms(t)) else None
    got = parse_term(print_term(t), prof) if prof else parse_term(print_term(t))
    assert got == t


def _subterms(t):
    yield t
    for f in t.__match_args__:
        v = getattr(t, f)
        if hasattr(v, '__match_args__'):
            yield from _subterms(v)


# -- substitution -------------------------------------------------------------

@settings(max_examples=500, deadline=None)
@given(any_formulas())
def test_subst_identity(f):
    assert subst_prop(f, 'p', Atom('p')) == f


@settings(max_examples=500, deadline=None)
@given(jl_formulas(max_leaves=5))
def test_subst_capture_rejected(inner):
    # wrap so that x occurs free under a binder for y, then substitute a
    # y-containing term for x: must refuse rather than capture
    f = Exists('y', And(Just(Var('x'), None, Atom('p')), inner))
    if 'x' in free_vars(inner):
        pass  # the wrapper already guarantees an x occurrence
    with pytest.raises(NotFreeFor):
        subst_term_for_var(f, 'x', TSum(Var('y'), Const('c')))


@settings(max_examples=500, deadline=None)
@given(jl_formulas(max_leaves=6))
def test_subst_removes_variable(f):
    got = subst_term_for_var(f, 'x', Const('c'))
    assert 'x' not in free_vars(got)


def test_subst_prim_slots_var_to_var_only():
    f = Just(Prim('f', ('x',)), None, Atom('p'))
    got = subst_term_for_var(f, 'x', Var('y'))
    assert got == Just(Prim('f', ('y',)), None, Atom('p'))
    with pytest.raises(NotFreeFor):
        subst_term_for_var(f, 'x', Bang(Var('y')))


def test_subst_under_matching_binder_is_noop():
    f = Forall('x', Just(Var('x'), None, Atom('p')))
    assert subst_term_for_var(f, 'x', Const('c')) == f


# -- occurrence modes ---------------------------------------------------------

def _box_rewrite(f):
    """(ex x . x : G) with x not free in G becomes []G; everything else
    is rebuilt structurally."""
    from justfix.syntax import Formula
    if isinstance(f, Exists) and isinstance(f.a, Just) \
            and isinstance(f.a.t, Var) and f.a.t.name == f.var \
            and f.var not in free_vars(f.a.a):
        return Box(_box_rewrite(f.a.a))
    kw = {}
    for name in f.__match_args__:
        v = getattr(f, name)
        kw[name] = _box_rewrite(v) if isinstance(v, Formula) else v
    return type(f)(**kw)


@settings(max_examples=500, deadline=None)
@given(qlp_formulas(max_leaves=7))
def test_occurrence_parity_exists_to_box(f):
    # guarded under an existential justification implies guarded under a
    # box after the box rewrite
    if occurrence_ok(f, 'p', 'exists_justified'):
        assert occurrence_ok(_box_rewrite(f), 'p', 'modalized')


@settings(max_examples=500, deadline=None)
@given(modal_formulas(max_leaves=7))
def test_occurrence_positive_negation_flips(f):
    # p positive in f iff p "negative" in ~f; semi_positive tracks the
    # weaker guard
    if occurrence_ok(f, 'p', 'positive'):
        assert occurrence_ok(f, 'p', 'semi_positive') or \
            occurrence_ok(Neg(Neg(f)), 'p', 'positive')


def test_occurrence_mode_table():
    f = parse_formula('[]p -> q')
    assert occurrence_ok(f, 'p', 'modalized')
    assert not occurrence_ok(f, 'q', 'modalized')
    assert occurrence_ok(f, 'q', 'positive')
    assert not occurrence_ok(f, 'p', 'positive')  # p is negative here
    assert not occurrence_ok(parse_formula('p | q'), 'p', 'modalized')
    g = parse_formula('x : p', QLP)
    assert occurrence_ok(g, 'p', 'justified')
    assert not occurrence_ok(g, 'p', 'exists_justified')
    h = parse_formula('ex x . x : p', QLP)
    assert occurrence_ok(h, 'p', 'exists_justified')


def test_occurrence_vacuous_when_absent():
    f = parse_formula('q -> r')
    for mode in ('modalized', 'justified', 'exists_justified', 'positive'):
        assert occurrence_ok(f, 'p', mode)


def test_unknown_occurrence_mode():
    with pytest.raises(ValueError):
        occurrence_ok(Atom('p'), 'p', 'sideways')


# -- parsing details ----------------------------------------------------------

def test_hash_allowed_in_identifiers():
    t = parse_term('c#12 * x')
    assert print_term(t) == 'c#12 * x'


def test_binders_extend_right():
    f = parse_formula('all x . x : p -> p', QLP)
    assert isinstance(f, Forall) and isinstance(f.a, Imp)


def test_mu_positivity_enforced_at_parse():
    with pytest.raises(Exception):
        parse_formula('mu p . (p -> q)')
    parse_formula('mu p . (q | p)')  # fine


_NU_BODIES = {
    'nu p . (q & x : p)': And(Atom('q'), Just(Var('x'), None, Atom('p'))),
    'nu p . mu p . p': Mu('p', Atom('p')),
    # a fix argument holds the only node field that is a tuple
    'nu p . (fix(d; q) & p)': And(FixApp('d', (Atom('q'),)), Atom('p')),
}


@pytest.mark.parametrize('text', list(_NU_BODIES))
def test_nu_parses_to_its_expansion_one_object_per_content(text):
    table = {}
    f = parse_formula(text, table=table)
    assert f == nu_formula('p', _NU_BODIES[text])
    nodes = node_objects([f])
    assert len(set(nodes)) == len(nodes)
    # the table serves the expansion to a later parse through it
    assert parse_formula('r | ' + text, table=table).b is f


def test_nu_keeps_the_positivity_error_of_its_expansion():
    with pytest.raises(PositivityError):
        nu_formula('p', FixApp('d', (Atom('p'),)))
    with pytest.raises(PositivityError):
        parse_formula('nu p . fix(d; p)')


def test_precedence_pins():
    assert print_formula(parse_formula('p & q | r')) == 'p & q | r'
    assert parse_formula('p & q | r') == Or(And(Atom('p'), Atom('q')),
                                            Atom('r'))
    assert parse_formula('p -> q -> r') == Imp(Atom('p'),
                                               Imp(Atom('q'), Atom('r')))
    assert parse_formula('~[]p') == Neg(Box(Atom('p')))
    assert parse_formula('K@3 ~E1 & E2') == And(Knows(3, Neg(Atom('E1'))),
                                                Atom('E2'))


def test_parse_errors():
    for bad in ('p ->', '(p', 'mu . p', 'x :', ''):
        with pytest.raises(ParseError):
            parse_formula(bad)


def test_profile_rejections():
    with pytest.raises(ProfileError):
        parse_formula('[]p', QLP)
    with pytest.raises(ProfileError):
        parse_formula('(x all y) : p', get_logic('QLP-').profile)
    with pytest.raises(ProfileError):
        parse_formula('fix(d)', get_logic('QLP-').profile)
    parse_formula('fix(d)', get_logic('QLP-(FP)').profile)
    with pytest.raises(ProfileError):
        parse_formula('x : p', get_logic('T').profile)


def test_parse_term_refuses_a_term_outside_the_language():
    jl = get_logic('J').profile
    with pytest.raises(ProfileError, match='^term Prim not in language jl$'):
        parse_term('c * f(y)', jl)
    with pytest.raises(ProfileError,
                       match='^term Const not in language modal$'):
        parse_term('c', get_logic('K').profile)
    with pytest.raises(ProfileError, match='^term UAll not in language'):
        parse_term('(x all y)', get_logic('QLP-').profile)
    assert parse_term('c * x', jl) == App(Const('c'), Var('x'))


def test_agent_tags_parse():
    f = parse_formula('y :@s (E & ~ex x . x :@s E)',
                      get_logic('QLP-_n').profile)
    assert isinstance(f, Just) and f.agent == 's'


# -- helpers ------------------------------------------------------------------

def test_imp_chain():
    p, q, r = Atom('p'), Atom('q'), Atom('r')
    assert imp_chain([p, q], r) == Imp(p, Imp(q, r))
    assert imp_chain([], r) == r


@settings(max_examples=200, deadline=None)
@given(qlp_formulas(max_leaves=5))
def test_uall_vars_disjoint_from_free(f):
    # a variable bound by a uniform verifier is tracked separately from
    # the free variables of the formula
    assert uall_vars(f) == {v for t in _formula_terms(f)
                            for v in _uall_in(t)}


def _formula_terms(f):
    from justfix.syntax import formula_terms
    return formula_terms(f)


def _uall_in(t):
    out = set()
    if isinstance(t, UAll):
        out.add(t.var)
        out |= _uall_in(t.inner)
    else:
        for name in t.__match_args__:
            v = getattr(t, name)
            if hasattr(v, '__match_args__'):
                out |= _uall_in(v)
    return out


def test_field_walkers_reach_inner_nodes():
    inner = UAll(Prim('f', ('x',)), 'y')
    t = TSum(Const('c'), App(Bang(inner), Var('x')))
    assert inner in list(_subterms(t)) and Prim('f', ('x',)) in _subterms(t)
    assert _uall_in(t) == {'y'}


# -- the generic traversal ----------------------------------------------------

def _preorder(f):
    yield f
    for k in f.children():
        yield from _preorder(k)


@settings(max_examples=300, deadline=None)
@given(with_fix(any_formulas(max_leaves=4)))
def test_rebuild_children_and_walk_order(f):
    assert f.rebuild(f.children()) == f
    assert list(walk(f)) == list(_preorder(f))


def test_walk_visits_fix_arguments_left_to_right():
    a, b = Atom('p'), Neg(Atom('q'))
    f = And(FixApp('d', (a, b)), Atom('r'))
    assert list(walk(f)) == [f, f.a, a, b, b.a, Atom('r')]


# -- differential oracles: the per-node recursions the generic traversal ------
# -- replaced, frozen as they were written before it --------------------------

def _ref_subterms(t):
    yield t
    match t:
        case App(a, b) | TSum(a, b):
            yield from _ref_subterms(a)
            yield from _ref_subterms(b)
        case Bang(s) | Quest(s) | WQuest(s):
            yield from _ref_subterms(s)
        case UAll(inner, _):
            yield from _ref_subterms(inner)
        case _:
            pass


def _ref_term_vars(t):
    match t:
        case Var(n):
            return frozenset({n})
        case Prim(_, args):
            return frozenset(args)
        case App(a, b) | TSum(a, b):
            return _ref_term_vars(a) | _ref_term_vars(b)
        case Bang(s) | Quest(s) | WQuest(s):
            return _ref_term_vars(s)
        case UAll(inner, v):
            return _ref_term_vars(inner) - {v}
        case _:
            return frozenset()


def _ref_subst_in_term(s, x, t):
    match s:
        case Var(n):
            return t if n == x else s
        case Prim(sym, args):
            if x in args:
                if not isinstance(t, Var):
                    raise NotFreeFor(
                        f"cannot put compound term {t} in argument place of {sym}")
                return Prim(sym, tuple(t.name if a == x else a for a in args))
            return s
        case App(a, b):
            return App(_ref_subst_in_term(a, x, t), _ref_subst_in_term(b, x, t))
        case TSum(a, b):
            return TSum(_ref_subst_in_term(a, x, t), _ref_subst_in_term(b, x, t))
        case Bang(u):
            return Bang(_ref_subst_in_term(u, x, t))
        case Quest(u):
            return Quest(_ref_subst_in_term(u, x, t))
        case WQuest(u):
            return WQuest(_ref_subst_in_term(u, x, t))
        case UAll(inner, v):
            if v == x:
                return s
            if x in _ref_term_vars(inner) and v in _ref_term_vars(t):
                raise NotFreeFor(f"{t} not free for {x}: capture by verifier on {v}")
            return UAll(_ref_subst_in_term(inner, x, t), v)
        case _:
            return s


def _ref_occurrences(f, p):
    occs = []

    def go(g, box, just, ejust, pol, opq):
        match g:
            case Atom(n):
                if n == p:
                    occs.append((box, just, ejust, pol, opq))
            case Neg(a):
                go(a, box, just, ejust, -pol, opq)
            case And(a, b) | Or(a, b):
                go(a, box, just, ejust, pol, opq)
                go(b, box, just, ejust, pol, opq)
            case Imp(a, b):
                go(a, box, just, ejust, -pol, opq)
                go(b, box, just, ejust, pol, opq)
            case Iff(a, b) | Xor(a, b):
                go(a, box, just, ejust, 0, opq)
                go(b, box, just, ejust, 0, opq)
            case Box(a) | Knows(_, a):
                go(a, True, just, ejust, pol, opq)
            case Just(_, _, a):
                go(a, box, True, ejust, pol, opq)
            case Exists(v, Just(Var(w), _, a)) if w == v:
                go(a, box, True, True, pol, opq)
            case Forall(_, a) | Exists(_, a):
                go(a, box, just, ejust, pol, opq)
            case Mu(q, a):
                if q != p:
                    go(a, box, just, ejust, pol, opq)
            case FixApp(_, args):
                for x in args:
                    go(x, box, just, ejust, pol, True)
            case _:
                pass

    go(f, False, False, False, 1, False)
    return occs


def _positive_mu(vf):
    # mu over an atom that occurs only positively and never inside a
    # fixed-point argument (what Mu demands), else over a fresh one
    v, f = vf
    if all(pol == 1 and not opq
           for _, _, _, pol, opq in _ref_occurrences(f, v)):
        return Mu(v, f)
    return Mu('m', f)


def _ex_just(vf):
    # the ex x . x : A shape, the one place ejust is set
    v, f = vf
    return Exists(v, Just(Var(v), None, f))


_occurrence_formulas = st.recursive(
    jl_formulas(max_leaves=6) | qlp_formulas(max_leaves=6),
    lambda ch: st.one_of(
        ch.map(Box),
        st.tuples(st.integers(0, 3), ch).map(lambda tf: Knows(*tf)),
        st.tuples(st.sampled_from(ATOM_NAMES), ch).map(_positive_mu),
        st.tuples(st.sampled_from(('x', 'y')), ch).map(_ex_just),
        st.lists(ch, max_size=3).map(lambda xs: FixApp('d', tuple(xs))),
        ch.map(Neg),
        st.tuples(ch, ch).map(lambda ab: Imp(*ab)),
        st.tuples(ch, ch).map(lambda ab: Iff(*ab))),
    max_leaves=4)


def _ref_occurrence_ok(f, p, mode):
    """occurrence_ok, folded from the occurrences _ref_occurrences lists."""
    def ok(box, just, ejust, pol, opq):
        return not opq and {
            'modalized': box, 'justified': just, 'exists_justified': ejust,
            'positive': pol == 1,
            'semi_positive': pol == 1 or box or just}[mode]
    return all(ok(*occ) for occ in _ref_occurrences(f, p))


@settings(max_examples=500, deadline=None)
@given(_occurrence_formulas)
def test_occurrences_match_reference(f):
    for p in ATOM_NAMES:
        for mode in OCCURRENCE_MODES:
            assert occurrence_ok(f, p, mode) == _ref_occurrence_ok(f, p, mode)


@settings(max_examples=500, deadline=None)
@given(qlp_terms | lp_terms)
def test_term_traversals_match_reference(t):
    assert t.rebuild(t.children()) == t
    assert list(walk(t)) == list(_preorder(t)) == list(_ref_subterms(t))
    assert free_vars(t) == _ref_term_vars(t)


def _subst_outcome(subst, s, x, t):
    try:
        return subst(s, x, t)
    except NotFreeFor as e:
        return 'NotFreeFor: %s' % e


@settings(max_examples=500, deadline=None)
@given(qlp_terms | lp_terms, st.sampled_from(('x', 'y', 'z')),
       qlp_terms | lp_terms)
def test_subst_in_term_matches_reference(s, x, t):
    assert _subst_outcome(subst_term_for_var, s, x, t) == \
        _subst_outcome(_ref_subst_in_term, s, x, t)


# -- node shapes: the children tables the generated methods replaced, ---------
# -- frozen as they were written before them ----------------------------------

def _ref_body(f):
    return (f.a,)


def _ref_pair(f):
    return (f.a, f.b)


_REF_CHILDREN = {
    Neg: _ref_body, Box: _ref_body, Knows: _ref_body, Just: _ref_body,
    Forall: _ref_body, Exists: _ref_body, Mu: _ref_body,
    And: _ref_pair, Or: _ref_pair, Imp: _ref_pair, Iff: _ref_pair,
    Xor: _ref_pair,
    FixApp: lambda f: f.args,
    App: lambda t: (t.fn, t.arg), TSum: lambda t: (t.left, t.right),
    Bang: lambda t: (t.t,), Quest: lambda t: (t.t,), WQuest: lambda t: (t.t,),
    UAll: lambda t: (t.inner,),
}
_REF_REBUILD = {
    Neg: lambda f, k: Neg(k[0]),
    Box: lambda f, k: Box(k[0]),
    Knows: lambda f, k: Knows(f.time, k[0]),
    Just: lambda f, k: Just(f.t, f.agent, k[0]),
    Forall: lambda f, k: Forall(f.var, k[0]),
    Exists: lambda f, k: Exists(f.var, k[0]),
    Mu: lambda f, k: Mu(f.var, k[0]),
    And: lambda f, k: And(k[0], k[1]),
    Or: lambda f, k: Or(k[0], k[1]),
    Imp: lambda f, k: Imp(k[0], k[1]),
    Iff: lambda f, k: Iff(k[0], k[1]),
    Xor: lambda f, k: Xor(k[0], k[1]),
    FixApp: lambda f, k: FixApp(f.name, tuple(k)),
    App: lambda t, k: App(k[0], k[1]),
    TSum: lambda t, k: TSum(k[0], k[1]),
    Bang: lambda t, k: Bang(k[0]),
    Quest: lambda t, k: Quest(k[0]),
    WQuest: lambda t, k: WQuest(k[0]),
    UAll: lambda t, k: UAll(k[0], t.var),
}


def _ref_children(f):
    kids = _REF_CHILDREN.get(type(f))
    return kids(f) if kids else ()


def _ref_rebuild(f, kids):
    make = _REF_REBUILD.get(type(f))
    return make(f, kids) if make else f


_p, _q, _x, _c = Atom('p'), Atom('q'), Var('x'), Const('c')
_NODE_SAMPLES = (
    Var('x'), Const('c'), Prim('f', ('x', 'y')), App(_c, _x), TSum(_x, _c),
    Bang(_x), Quest(_c), WQuest(_x), UAll(App(_c, _x), 'x'), TMeta('s'),
    Atom('p'), Falsum(), Neg(_p), And(_p, _q), Or(_q, _p), Imp(_p, _q),
    Iff(_q, _p), Xor(_p, _q), Box(_p), Knows(3, _p),
    Just(App(_c, _x), None, _p), Just(Bang(_x), 'a', _q),
    Forall('x', Just(_x, None, _p)), Exists('y', _q), Mu('p', Or(_p, _q)),
    FixApp('d'), FixApp('d', (_p, Neg(_q))), FMeta('A'),
)


def test_node_samples_cover_every_class():
    import justfix.syntax as syntax
    assert {type(s) for s in _NODE_SAMPLES} == set(syntax._KIND_BITS)


@pytest.mark.parametrize('node', _NODE_SAMPLES, ids=repr)
def test_children_and_rebuild_match_reference(node):
    kids = node.children()
    assert kids == _ref_children(node)
    assert node.rebuild(kids) == _ref_rebuild(node, kids) == node
    # fresh children, one distinct leaf per place, in children() order
    leaf = Atom if isinstance(node, Formula) else Const
    fresh = [leaf('k%d' % k) for k in range(len(kids))]
    assert node.rebuild(fresh) == _ref_rebuild(node, fresh)
    assert node.rebuild(fresh).children() == tuple(fresh)
    if type(node) not in _REF_REBUILD:      # a leaf
        assert node.rebuild(()) is node


def test_rebuilt_mu_rechecks_positivity():
    mu = Mu('p', Or(_p, _q))
    with pytest.raises(PositivityError):
        mu.rebuild([Neg(_p)])
    with pytest.raises(PositivityError):
        _ref_rebuild(mu, [Neg(_p)])


# printed forms of (p OP1 q) OP2 r and p OP1 (q OP2 r), frozen
_FORMULA_GROUPINGS = {
    ('->', '->'): ('(p -> q) -> r', 'p -> q -> r'),
    ('->', '<->'): ('(p -> q) <-> r', 'p -> q <-> r'),
    ('->', '|'): ('(p -> q) | r', 'p -> q | r'),
    ('->', 'xor'): ('(p -> q) xor r', 'p -> q xor r'),
    ('->', '&'): ('(p -> q) & r', 'p -> q & r'),
    ('<->', '->'): ('(p <-> q) -> r', 'p <-> q -> r'),
    ('<->', '<->'): ('(p <-> q) <-> r', 'p <-> q <-> r'),
    ('<->', '|'): ('(p <-> q) | r', 'p <-> q | r'),
    ('<->', 'xor'): ('(p <-> q) xor r', 'p <-> q xor r'),
    ('<->', '&'): ('(p <-> q) & r', 'p <-> q & r'),
    ('|', '->'): ('p | q -> r', 'p | (q -> r)'),
    ('|', '<->'): ('p | q <-> r', 'p | (q <-> r)'),
    ('|', '|'): ('p | q | r', 'p | (q | r)'),
    ('|', 'xor'): ('p | q xor r', 'p | (q xor r)'),
    ('|', '&'): ('(p | q) & r', 'p | q & r'),
    ('xor', '->'): ('p xor q -> r', 'p xor (q -> r)'),
    ('xor', '<->'): ('p xor q <-> r', 'p xor (q <-> r)'),
    ('xor', '|'): ('p xor q | r', 'p xor (q | r)'),
    ('xor', 'xor'): ('p xor q xor r', 'p xor (q xor r)'),
    ('xor', '&'): ('(p xor q) & r', 'p xor q & r'),
    ('&', '->'): ('p & q -> r', 'p & (q -> r)'),
    ('&', '<->'): ('p & q <-> r', 'p & (q <-> r)'),
    ('&', '|'): ('p & q | r', 'p & (q | r)'),
    ('&', 'xor'): ('p & q xor r', 'p & (q xor r)'),
    ('&', '&'): ('p & q & r', 'p & (q & r)'),
}
_TERM_GROUPINGS = {
    ('+', '+'): ('c + d + x', 'c + (d + x)'),
    ('+', '*'): ('(c + d) * x', 'c + d * x'),
    ('*', '+'): ('c * d + x', 'c * (d + x)'),
    ('*', '*'): ('c * d * x', 'c * (d * x)'),
}
_FORMULA_OPS = {'->': Imp, '<->': Iff, '|': Or, 'xor': Xor, '&': And}
_TERM_OPS = {'+': TSum, '*': App}


@pytest.mark.parametrize('ops', sorted(_FORMULA_GROUPINGS))
def test_formula_groupings_print_as_before(ops):
    one, two = (_FORMULA_OPS[op] for op in ops)
    p, q, r = Atom('p'), Atom('q'), Atom('r')
    left, right = two(one(p, q), r), one(p, two(q, r))
    assert (print_formula(left), print_formula(right)) == \
        _FORMULA_GROUPINGS[ops]
    assert parse_formula(print_formula(left)) == left
    assert parse_formula(print_formula(right)) == right


@pytest.mark.parametrize('ops', sorted(_TERM_GROUPINGS))
def test_term_groupings_print_as_before(ops):
    one, two = (_TERM_OPS[op] for op in ops)
    c, d, x = Const('c'), Const('d'), Var('x')
    left, right = two(one(c, d), x), one(c, two(d, x))
    assert (print_term(left), print_term(right)) == _TERM_GROUPINGS[ops]
    assert parse_term(print_term(left)) == left
    assert parse_term(print_term(right)) == right
