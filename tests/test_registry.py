import copy
import itertools
import random
import sys

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from conftest import (ATOM_NAMES, any_formulas, atoms, bool_formulas,
                      corpus_paths, jl_formulas)
from justfix import registry
from justfix.kernel import load_derivation, memo_scope
from justfix.registry import (EMPTY, TOTAL, SCHEMAS, Spec, UnknownLogic,
                              _BDD, _CONNECTIVES, _GROWTH, _consequence_bdd,
                              get_logic, infer_term,
                              is_tautology, known_logics, match_axiom,
                              sigma_match, spec_membership, taut_consequence)
from justfix.syntax import (And, Atom, Bang, Box, Const, Falsum, Iff, Imp,
                            Just, Knows, Neg, Or, ParseError, Var, Xor,
                            parse_formula, print_formula)


# -- independent boolean oracle -----------------------------------------------
# A plain truth-table evaluator, sharing no code with the checker: anything
# that is not a boolean connective is an opaque atom keyed by its printed
# form.

_BOOL = {'Neg', 'And', 'Or', 'Imp', 'Iff', 'Xor', 'Falsum'}


def _atomize(f, acc):
    kind = type(f).__name__
    if kind == 'Falsum':
        return
    if kind == 'Neg':
        _atomize(f.a, acc)
    elif kind in _BOOL:
        _atomize(f.a, acc)
        _atomize(f.b, acc)
    else:
        acc.setdefault(print_formula(f), f)


def _eval(f, env):
    kind = type(f).__name__
    if kind == 'Falsum':
        return False
    if kind == 'Neg':
        return not _eval(f.a, env)
    if kind == 'And':
        return _eval(f.a, env) and _eval(f.b, env)
    if kind == 'Or':
        return _eval(f.a, env) or _eval(f.b, env)
    if kind == 'Imp':
        return (not _eval(f.a, env)) or _eval(f.b, env)
    if kind == 'Iff':
        return _eval(f.a, env) == _eval(f.b, env)
    if kind == 'Xor':
        return _eval(f.a, env) != _eval(f.b, env)
    return env[print_formula(f)]


def table_consequence(premises, conclusion):
    acc = {}
    for g in list(premises) + [conclusion]:
        _atomize(g, acc)
    keys = sorted(acc)
    for bits in itertools.product((False, True), repeat=len(keys)):
        env = dict(zip(keys, bits))
        if all(_eval(g, env) for g in premises) and not _eval(conclusion, env):
            return False
    return True


def corpus_small_formulas(limit_atoms=5):
    """Every corpus step/premise formula with at most limit_atoms opaque
    atoms."""
    out = []
    for path in corpus_paths():
        d = load_derivation(path)
        for f in [s.formula for s in d.steps] + \
                [p.formula for p in d.premises]:
            acc = {}
            _atomize(f, acc)
            if len(acc) <= limit_atoms:
                out.append(f)
    return out


def test_taut_oracle_on_corpus_formulas():
    forms = corpus_small_formulas()
    assert len(forms) >= 40
    for f in forms:
        assert taut_consequence(f, []) == table_consequence([], f), \
            print_formula(f)


def test_taut_oracle_on_corpus_prop_steps():
    # re-judge every accepted prop step that stays within the atom budget
    checked = 0
    for path in corpus_paths():
        d = load_derivation(path)
        by_index = {s.index: s for s in d.steps}
        for s in d.steps:
            if s.rule != 'prop':
                continue
            prems = [by_index[i].formula for i in s.refs]
            acc = {}
            for g in prems + [s.formula]:
                _atomize(g, acc)
            if len(acc) > 5:
                continue
            assert table_consequence(prems, s.formula), \
                '%s step %d' % (path, s.index)
            checked += 1
    assert checked >= 10


@settings(max_examples=500, deadline=None)
@given(bool_formulas(max_leaves=6))
def test_taut_oracle_random(f):
    assert is_tautology(f) == table_consequence([], f)


@st.composite
def _five_atom_formulas(draw):
    # every ATOM_NAMES atom once plus up to five repeats, in a drawn order,
    # folded pairwise by drawn connectives, each part perhaps negated
    names = list(ATOM_NAMES) + draw(st.lists(st.sampled_from(ATOM_NAMES),
                                             max_size=5))
    parts = [Atom(n) for n in draw(st.permutations(names))]
    parts = [Neg(a) if draw(st.booleans()) else a for a in parts]
    while len(parts) > 1:
        k = draw(st.integers(0, len(parts) - 2))
        f = draw(st.sampled_from((And, Or, Imp, Iff, Xor)))(parts[k],
                                                            parts[k + 1])
        parts[k:k + 2] = [Neg(f) if draw(st.booleans()) else f]
    return parts[0]


@settings(max_examples=500, deadline=None)
@given(_five_atom_formulas())
def test_taut_oracle_five_atoms(f):
    acc = {}
    _atomize(f, acc)
    assert len(acc) == 5
    assert is_tautology(f) == table_consequence([], f)
    # few such draws are tautologies, so also prove one consequence each
    g = _mirror(f)
    assert taut_consequence(g, [f]) == table_consequence([f], g)


@settings(max_examples=300, deadline=None)
@given(st.lists(bool_formulas(max_leaves=4), max_size=2),
       bool_formulas(max_leaves=4))
def test_taut_consequence_random(prems, goal):
    assert taut_consequence(goal, prems) == table_consequence(prems, goal)


def test_taut_pins():
    assert is_tautology(parse_formula('((p -> q) -> p) -> p'))
    assert is_tautology(parse_formula('(p xor q) <-> ((p | q) & ~(p & q))'))
    assert not is_tautology(parse_formula('p -> q'))
    assert taut_consequence(parse_formula('q'),
                            [parse_formula('p'), parse_formula('p -> q')])
    assert not taut_consequence(parse_formula('p'), [parse_formula('p -> q')])


def test_taut_treats_boxes_opaquely():
    assert is_tautology(parse_formula('[]p -> []p'))
    assert not is_tautology(parse_formula('[](p & q) -> []p'))


# -- ten-atom oracle and scaling ----------------------------------------------
# Each example draws a pool of at most ten opaque atoms: names, and []A or
# K@n A over small formulas of those names, so equal opaque subformulas
# recur and must share one atom.  Formulas are built over the pool only,
# which keeps the truth table at 1024 rows or fewer.

TEN_NAMES = ('p', 'q', 'r', 's', 'u', 'v', 'w', 'E1', 'E2', 'E3')
_ten_names = st.sampled_from(TEN_NAMES).map(Atom)
_opaque = (_ten_names
           | bool_formulas(3, _ten_names).map(Box)
           | st.builds(Knows, st.integers(0, 2), bool_formulas(3, _ten_names)))
_pools = st.lists(_opaque, min_size=5, max_size=10, unique=True)


@st.composite
def _pooled(draw, pool, max_leaves):
    # a random tree over as many distinct pool atoms as max_leaves allows,
    # plus repeats and Falsum; plain recursive strategies mostly draw one
    # or two atoms
    rnd = draw(st.randoms(use_true_random=False))
    parts = rnd.sample(pool, min(len(pool), max_leaves))
    parts += [rnd.choice(pool + [Falsum()])
              for _ in range(rnd.randint(0, max_leaves - len(parts)))]
    rnd.shuffle(parts)
    while len(parts) > 1:
        k = rnd.randrange(len(parts) - 1)
        join = rnd.choice((And, Or, Imp, Iff, Xor))
        parts[k:k + 2] = [join(parts[k], parts[k + 1])]
        if rnd.random() < 0.5:
            parts[k] = Neg(parts[k])
    return parts[0]


def _mirror(f):
    # an equivalent formula built afresh: operands swapped, implications
    # contraposed, atoms copied
    if isinstance(f, Imp):
        return Imp(Neg(_mirror(f.b)), Neg(_mirror(f.a)))
    if isinstance(f, (And, Or, Iff, Xor)):
        return type(f)(_mirror(f.b), _mirror(f.a))
    if isinstance(f, Neg):
        return Neg(_mirror(f.a))
    return copy.deepcopy(f)


@settings(max_examples=200, deadline=None)
@given(_pools.flatmap(lambda pool: st.tuples(st.just(pool),
                                             _pooled(pool, 20))))
def test_taut_oracle_ten_atoms(case):
    pool, f = case
    assert is_tautology(f) == table_consequence([], f)
    # equal atoms are one atom, however often they are built ...
    assert is_tautology(Iff(f, _mirror(f)))
    # ... and distinct ones are never merged
    for a, b in zip(pool, pool[1:]):
        assert not is_tautology(Iff(a, b))


@settings(max_examples=200, deadline=None)
@given(_pools.flatmap(lambda pool: st.tuples(
           st.lists(_pooled(pool, 8), max_size=3), _pooled(pool, 12))),
       st.booleans())
def test_taut_consequence_ten_atoms(case, weaken):
    prems, goal = case
    if weaken and prems:
        goal = Or(goal, prems[-1])  # a consequence by construction
    assert taut_consequence(goal, prems) == table_consequence(prems, goal)


def test_taut_oracle_on_corpus_prop_steps_ten_atoms():
    checked = 0
    for path in corpus_paths():
        d = load_derivation(path)
        by_index = {s.index: s for s in d.steps}
        for s in d.steps:
            if s.rule != 'prop':
                continue
            prems = [by_index[i].formula for i in s.refs]
            acc = {}
            for g in prems + [s.formula]:
                _atomize(g, acc)
            if len(acc) > 10:
                continue
            where = '%s step %d' % (path, s.index)
            assert table_consequence(prems, s.formula), where
            assert taut_consequence(s.formula, prems), where
            checked += 1
    assert checked >= 80


def _family_atoms(n):
    # every fifth atom is opaque, as in the perfbench prop workload
    return ['[]a%d' % k if k % 5 == 4 else 'a%d' % k for k in range(n)]


def _excluded_middle(n, crossed=False):
    # crossed: the first conjunct negates the second atom
    a = _family_atoms(n)
    return ' & '.join('(%s | ~%s)' % (x, a[1] if crossed and k == 0 else x)
                      for k, x in enumerate(a))


def _parity(n, dropped=False):
    # dropped: the right side loses its last atom
    a = _family_atoms(n)
    right = a[::-1][:-1] if dropped else a[::-1]
    return '(%s) <-> (%s)' % (' xor '.join(a), ' xor '.join(right))


@pytest.mark.parametrize('n', [20, 60])
@pytest.mark.parametrize('family, valid', [
    (_excluded_middle, True),
    (_parity, True),
    (lambda n: _excluded_middle(n, crossed=True), False),
    (lambda n: _parity(n, dropped=True), False),
], ids=['excluded-middle', 'parity', 'crossed', 'dropped'])
def test_taut_node_table_linear_in_atoms(family, valid, n, monkeypatch):
    # counts, not a wall time, so the bounds do not flake; splitting on
    # atoms one by one could never finish at 60
    calls = []

    def counted(*args, fn=_BDD.apply):
        calls.append(None)
        return fn(*args)

    monkeypatch.setattr(_BDD, 'apply', counted)
    node, bdd = _consequence_bdd(parse_formula(family(n)), [])
    assert len(bdd.atoms) == n
    assert (node == 1) == valid
    assert len(bdd.nodes) <= 4 * n
    # without the terminal rules, 'dropped' took 19.6n apply calls at 60
    assert len(calls) <= 12 * n


@settings(max_examples=300, deadline=None)
@given(bool_formulas(6, atoms | atoms.map(Box)),
       bool_formulas(6, atoms | atoms.map(Box)))
def test_bdd_negation_and_equivalence_share_nodes(f, g):
    # within one BDD: ~f is the complement of f, and two formulas get the
    # same node exactly when the truth tables prove each from the other
    bdd = _BDD()
    u, v = bdd.build(f), bdd.build(g)
    assert bdd.apply(_CONNECTIVES[Xor], u, bdd.build(Neg(f))) == 1
    assert bdd.build(_mirror(f)) == u
    assert (u == v) == (table_consequence([f], g)
                        and table_consequence([g], f))


@settings(max_examples=300, deadline=None)
@given(bool_formulas(8, atoms | atoms.map(Box)),
       bool_formulas(8, atoms | atoms.map(Box)))
def test_bdd_hi_edges_regular_and_negation_a_complement_bit(f, g):
    # a ref is 2 * index + a complement bit; every stored node keeps its hi
    # edge regular, so ~f is the ref of f with the bit flipped, which adds
    # no node
    bdd = _BDD()
    u = bdd.build(f)
    bdd.apply(_CONNECTIVES[Iff], u, bdd.build(g))
    nodes = len(bdd.nodes)
    assert bdd.build(Neg(f)) == u ^ 1
    assert bdd.build(Neg(Neg(f))) == u
    assert len(bdd.nodes) == nodes
    assert bdd.nodes[0][1:] == (0, 0)
    for var, lo, hi in bdd.nodes[1:]:
        assert hi % 2 == 0 and lo != hi
        assert max(lo, hi) // 2 < len(bdd.nodes)
    assert (u == 1) == table_consequence([], f)
    assert (u == 0) == table_consequence([f], Falsum())


def test_true_implication_builds_no_further_premise():
    # p | ~p holds, so no premise is built: none of their atoms is numbered
    node, bdd = _consequence_bdd(parse_formula('p | ~p'),
                                 [parse_formula('q & []r'), parse_formula('s')])
    assert node == 1 and list(bdd.atoms) == [Atom('p')]
    # the last premise proves q; the first is never built
    node, bdd = _consequence_bdd(parse_formula('q'),
                                 [parse_formula('[]r'), parse_formula('q')])
    assert node == 1 and list(bdd.atoms) == [Atom('q')]


# -- one BDD per memo scope ----------------------------------------------------

_LEAVES = atoms | atoms.map(Box)


@settings(max_examples=200, deadline=None)
@given(st.lists(bool_formulas(5, _LEAVES), min_size=2, max_size=5),
       st.data())
def test_scope_bdd_decides_every_query_as_truth_tables(pool, data):
    # the queries of one scope share atoms, formula objects and one node
    # table, whose order the earlier queries set; each still gets the
    # truth-table verdict, and the table stays canonical
    pick = st.sampled_from(pool)
    goals = pick | st.tuples(pick, pick).map(lambda ab: Imp(*ab))
    queries = data.draw(st.lists(st.tuples(goals, st.lists(pick, max_size=3)),
                                 min_size=2, max_size=6))
    with memo_scope():
        for goal, premises in queries:
            assert taut_consequence(goal, premises) == \
                table_consequence(premises, goal)
        bdd = registry._DECISIONS['bdd']
    assert bdd.nodes[0][1:] == (0, 0)
    for var, lo, hi in bdd.nodes[1:]:
        assert hi % 2 == 0 and lo != hi


def test_inherited_atom_order_costs_at_most_growth_nodes():
    n = 14
    a, b = (['%s%d' % (x, k) for k in range(n)] for x in 'ab')
    pairs = ' | '.join('(%s & %s)' % ab for ab in zip(a, b))
    first = parse_formula(' & '.join(a + b) + ' -> a0')
    second = parse_formula('(%s) -> (%s | z)' % (pairs, pairs))
    # alone, each b is numbered beside its a: 97 nodes and the leaf
    node, alone = _consequence_bdd(second, [])
    assert node == 1 and len(alone.nodes) == 98
    with memo_scope():
        assert taut_consequence(first, [])
        shared = registry._DECISIONS['bdd']
        before = len(shared.nodes)
        # the first query numbered every a before any b, an order on which
        # the second took 65,532 nodes; past _GROWTH it runs on a fresh
        # table instead
        assert taut_consequence(second, [])
        fresh = registry._DECISIONS['bdd']
    assert fresh is not shared
    assert len(shared.nodes) - before + len(fresh.nodes) - 1 <= _GROWTH + 98


# -- schema matching ----------------------------------------------------------
# instances are rebuilt here from the published shapes, sharing nothing
# with the matcher

from justfix.syntax import Box, Quest, WQuest, App, TSum, Var  # noqa: E402

_X, _Y = Var('x'), Var('y')

_MODAL_BUILD = {
    'K': ('K', lambda a, b: Imp(Box(Imp(a, b)), Imp(Box(a), Box(b)))),
    'T': ('T', lambda a, b: Imp(Box(a), a)),
    'D': ('D', lambda a, b: Imp(Box(a), Neg(Box(Neg(a))))),
    '4': ('K4', lambda a, b: Imp(Box(a), Box(Box(a)))),
    'B': ('KB', lambda a, b: Imp(Neg(a), Box(Neg(Box(a))))),
    '5': ('K5', lambda a, b: Imp(Neg(Box(a)), Box(Neg(Box(a))))),
    'lob': ('GL', lambda a, b: Imp(Box(Imp(Box(a), a)), Box(a))),
}

# LP's profile covers every term the generator emits, so these four run over
# formulas with embedded evidence; the remaining schemas live in logics with
# narrower term languages and get boolean slot fillers instead.
_LP_BUILD = {
    'jk': lambda a, b: Imp(
        Just(_Y, None, Imp(a, b)),
        Imp(Just(_X, None, a), Just(App(_Y, _X), None, b))),
    'sum': lambda a, b: Imp(Just(_X, None, a),
                            Just(TSum(_X, _Y), None, a)),
    'jt': lambda a, b: Imp(Just(_X, None, a), a),
    'j4': lambda a, b: Imp(Just(_X, None, a),
                           Just(Bang(_X), None, Just(_X, None, a))),
}

_JL_BUILD = {
    'jd': ('JD', lambda a, b: Imp(Just(_X, None, Falsum()), Falsum())),
    'jb': ('JB', lambda a, b: Imp(
        Neg(a), Just(WQuest(_X), None, Neg(Just(_X, None, a))))),
    'j5': ('J5', lambda a, b: Imp(
        Neg(Just(_X, None, a)),
        Just(Quest(_X), None, Neg(Just(_X, None, a))))),
    'elob': ('EGL', lambda a, b: Imp(
        Just(_Y, None, Imp(Just(_X, None, a), a)), Just(_X, None, a))),
}


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(sorted(_MODAL_BUILD)), bool_formulas(max_leaves=3),
       bool_formulas(max_leaves=3))
def test_modal_schema_instantiation_recovered(name, a, b):
    logic_id, build = _MODAL_BUILD[name]
    inst = build(a, b)
    hit = match_axiom(get_logic(logic_id), inst)
    # degenerate draws can collapse an instance into a plain tautology
    assert hit is not None and hit[0] in (name, 'taut'), print_formula(inst)


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(sorted(_LP_BUILD)), jl_formulas(max_leaves=3),
       jl_formulas(max_leaves=3))
def test_lp_schema_instantiation_recovered(name, a, b):
    inst = _LP_BUILD[name](a, b)
    hit = match_axiom(get_logic('LP'), inst)
    assert hit is not None and hit[0] in (name, 'taut'), print_formula(inst)


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(sorted(_JL_BUILD)), bool_formulas(max_leaves=3),
       bool_formulas(max_leaves=3))
def test_jl_schema_instantiation_recovered(name, a, b):
    logic_id, build = _JL_BUILD[name]
    inst = build(a, b)
    hit = match_axiom(get_logic(logic_id), inst)
    assert hit is not None and hit[0] in (name, 'taut'), print_formula(inst)


def test_match_axiom_profile_guard():
    # a jt instance mentioning boxes is not jt for a justification logic
    assert match_axiom(get_logic('JT'), parse_formula('x : p -> p'))
    assert match_axiom(get_logic('JT'),
                       parse_formula('x : []p -> []p',)) is None


def test_match_axiom_misses():
    lp = get_logic('LP')
    assert match_axiom(lp, parse_formula('x : p -> q')) is None
    assert match_axiom(lp, parse_formula('p -> x : p')) is None


def test_mu_closure_not_free_for_its_variable_is_no_instance():
    # A[mu p. A / p] would put a free q under mu q: no closure instance
    f = parse_formula('(q & mu q . ((mu p . (q & mu q . (p | q))) | q)) '
                      '<-> mu p . (q & mu q . (p | q))')
    assert SCHEMAS['mu-cl'].match(f) is None
    assert match_axiom(get_logic('K(mu)'), f) is None


def test_sacchetti_schema():
    logic = get_logic('Sacchetti-2')
    inst = parse_formula('[]([][]p -> p) -> []p')
    assert match_axiom(logic, inst)
    assert match_axiom(logic, parse_formula('[]([]p -> p) -> []p')) is None
    with pytest.raises((UnknownLogic, ValueError)):
        get_logic('Sacchetti-0')


def test_sacchetti_index_is_bounded_by_the_parser_depth():
    assert get_logic('Sacchetti-1000').name == 'Sacchetti-1000'
    for n in (1001, 10 ** 10):
        with pytest.raises(UnknownLogic):
            get_logic('Sacchetti-%d' % n)
    with pytest.raises(ParseError):
        parse_formula('[]' * 1000 + 'p')


# -- specifications -----------------------------------------------------------

def test_total_spec_accepts_prefixed_axioms():
    lp = get_logic('LP')
    for s in ('c : (x : p -> p)',
              'd : c : (x : p -> p)',
              'c : c : c : (((p -> q) -> p) -> p)'):
        assert spec_membership(TOTAL, parse_formula(s), lp)


def test_total_spec_rejects_non_axioms():
    lp = get_logic('LP')
    assert not spec_membership(TOTAL, parse_formula('c : (p -> q)'), lp)
    assert not spec_membership(TOTAL, parse_formula('x : p -> p'), lp)


def test_empty_and_explicit_specs():
    lp = get_logic('LP')
    f = parse_formula('c : (x : p -> p)')
    assert not spec_membership(EMPTY, f, lp)
    spec = Spec('explicit', frozenset([f]))
    assert spec_membership(spec, f, lp)
    assert not spec_membership(spec, parse_formula('c : (y : q -> q)'), lp)


@settings(max_examples=500, deadline=None)
@given(st.integers(1, 4))
def test_spec_membership_peels_constants(n):
    lp = get_logic('LP')
    f = parse_formula('x : p -> p')
    for k in range(1, n + 1):
        f = Just(Const('c%d' % k), None, f)
    assert spec_membership(TOTAL, f, lp)


def test_qlp_total_spec_wants_primitive_terms():
    qlp = get_logic('QLP')
    good = parse_formula('f(x) : (x : p -> p)', qlp.profile)
    assert spec_membership(TOTAL, good, qlp)
    bad = parse_formula('(f * g) : (x : p -> p)', qlp.profile)
    assert not spec_membership(TOTAL, bad, qlp)


# -- sigma matching -----------------------------------------------------------

def test_sigma_match_basics():
    base = parse_formula('fix(d) <-> ~ x : fix(d)',
                         get_logic('JT(FP)').profile)
    target = parse_formula('fix(d) <-> ~ (c * d) : fix(d)',
                           get_logic('JT(FP)').profile)
    sig = sigma_match(base, target)
    assert sig is not None
    assert print_formula(target) != print_formula(base)
    assert sigma_match(target, base) is None  # compound term is not a var


def test_sigma_match_rejects_capture():
    qlp = get_logic('QLP').profile
    base = parse_formula('all y . x : p', qlp)
    bad = parse_formula('all y . (y * y) : p', qlp)
    assert sigma_match(base, bad) is None


def test_sigma_match_rejects_capture_in_primitive_argument():
    qlp = get_logic('QLP').profile
    base = parse_formula('all y . f(x) : p', qlp)
    assert sigma_match(base, parse_formula('all y . f(z) : p', qlp)) == \
        {'x': Var('z')}
    assert sigma_match(base, parse_formula('all y . f(y) : p', qlp)) is None


def test_sigma_match_needs_one_term_per_variable():
    base = parse_formula('x : p & x : q')
    assert sigma_match(base, parse_formula('y : p & y : q')) == {'x': Var('y')}
    assert sigma_match(base, parse_formula('y : p & z : q')) is None


def test_sigma_match_identity():
    f = parse_formula('x : p -> p')
    sub = sigma_match(f, f)
    assert sub is not None
    assert all(v == Var(k) for k, v in sub.items())


# -- the registry itself ------------------------------------------------------

def test_known_logics_resolve():
    for name in known_logics():
        if name == 'Sacchetti-n':
            continue
        logic = get_logic(name)
        assert logic.axioms and logic.rules


def test_lp_is_jt4():
    lp, jt4 = get_logic('LP'), get_logic('JT4')
    assert [a.name for a in lp.axioms] == [a.name for a in jt4.axioms]


def test_suffix_display_names():
    assert get_logic('T(FP)').name == 'T(FP)'
    assert get_logic('J(mu)').name == 'J(mu)'
    assert get_logic('QLP-(FP)').name == 'QLP-(FP)'


def test_rule_availability():
    assert 'qnec' in get_logic('QLP').rules
    assert 'qnec' not in get_logic('QLP-').rules
    assert 'gen' in get_logic('QLP-').rules
    assert 'admk' in get_logic('tS4').rules
    assert 'admk' not in get_logic('tT').rules
    assert 'e' in get_logic('tK').rules


def test_unknown_logic():
    with pytest.raises(UnknownLogic):
        get_logic('S6')


# -- quantifier schemas: instances found by term inference ---------------------

@pytest.mark.parametrize('text, want', [
    ('(all x . f(x) : p) -> f(y) : p', ('q1', {'v:x': 'x', 'T:t': Var('y')})),
    ('(all x . q) -> q', ('q1', {'v:x': 'x', 'T:t': Var('x')})),
    ('f(y) : p -> (ex x . f(x) : p)', ('q3', {'v:x': 'x', 'T:t': Var('y')})),
    # the two occurrences of x would need different terms
    ('(all x . x : p -> x : q) -> (y : p -> z : q)', None),
    # y would be captured by ex y
    ('(all x . ex y . x : p) -> (ex y . y : p)', None),
    # a verifier's bound variable is never replaced
    ('(all x . (z all x) : p) -> (z all y) : p', None),
])
def test_qlp_quantifier_schemas(text, want):
    qlp = get_logic('QLP')
    assert match_axiom(qlp, parse_formula(text, qlp.profile)) == want


def test_infer_term_primitive_argument_occurrences():
    qlp = get_logic('QLP').profile
    template = parse_formula('x : p & all y . f(x, y) : q', qlp)
    instance = parse_formula('(g * z) : p & all y . f(z, y) : q', qlp)
    # x would stand for g * z in x : p but for z in f(x, y)
    assert infer_term(template, instance, 'x') is None
    instance = parse_formula('z : p & all y . f(z, y) : q', qlp)
    assert infer_term(template, instance, 'x') == Var('z')


# -- one matcher against the matchers it replaced -----------------------------
# The schema walker (match_term, match_formula), the substitution walker
# (_match_free) and the custom schemas (_sum_match, _q1_match, _q3_match),
# with the schema table and the fixed-point builders, frozen as they were
# written before registry.match_node took their place.

from justfix.fixedpoint import (FixedPointError, fp_axiom,  # noqa: E402
                                fp_axiom_instance, gl_obligation,
                                make_operator)
from justfix.registry import _SACCHETTI_MAX, sacchetti_schema  # noqa: E402
from justfix.syntax import (Exists, FixApp, FMeta, Forall, Mu,  # noqa: E402
                            FULL, NotFreeFor, Prim, TMeta, UAll, free_atoms,
                            free_vars, occurrence_ok, parse_term, subst_prop,
                            subst_prop_multi, subst_term_for_var)
from hypothesis import example  # noqa: E402
from conftest import _bool_layer, atoms  # noqa: E402


def _ref_bind(b, key, val):
    if key in b:
        return b[key] == val
    b[key] = val
    return True


def _ref_match_slot(kind, pat, val, b):
    if isinstance(pat, str) and pat.startswith('?'):
        return _ref_bind(b, kind + ':' + pat[1:], val)
    return pat == val


def _ref_match_term(pat, t, b):
    if isinstance(pat, TMeta):
        return _ref_bind(b, 'T:' + pat.name, t)
    if isinstance(pat, Var) and pat.name.startswith('?'):
        return isinstance(t, Var) and _ref_bind(b, 'v:' + pat.name[1:], t.name)
    if type(pat) is not type(t):
        return False
    kp = pat.children()
    if not kp:
        return pat == t
    if isinstance(pat, UAll) and not _ref_match_slot('v', pat.var, t.var, b):
        return False
    return all(_ref_match_term(p, s, b) for p, s in zip(kp, t.children()))


def _ref_match_formula(pat, f, b):
    if isinstance(pat, FMeta):
        return _ref_bind(b, 'F:' + pat.name, f)
    if type(pat) is not type(f):
        return False
    kp, kf = pat.children(), f.children()
    if not kp:
        return pat == f
    match pat:
        case Knows(i, _):
            if not _ref_match_slot('i', i, f.time, b):
                return False
        case Just(t, agent, _):
            if not (_ref_match_term(t, f.t, b)
                    and _ref_match_slot('a', agent, f.agent, b)):
                return False
        case Forall(v, _) | Exists(v, _) | Mu(v, _):
            if not _ref_match_slot('v', v, f.var, b):
                return False
        case FixApp(name, args):
            if name != f.name or len(args) != len(f.args):
                return False
    return all(_ref_match_formula(p, a, b) for p, a in zip(kp, kf))


def _ref_match_free(base, target, binds):
    sigma = {}

    def wt(u, v, bound):
        if isinstance(u, Var) and u.name in binds and u.name not in bound:
            if free_vars(v) & bound:
                return False
            if u.name in sigma:
                return sigma[u.name] == v
            sigma[u.name] = v
            return True
        if type(u) is not type(v):
            return False
        if isinstance(u, Prim):
            if u.symbol != v.symbol or len(u.args) != len(v.args):
                return False
            return all(wt(Var(p), Var(q), bound)
                       for p, q in zip(u.args, v.args))
        if isinstance(u, UAll):
            if u.var != v.var:
                return False
            bound = bound | {u.var}
        ku = u.children()
        if not ku:
            return u == v
        return all(wt(p, q, bound) for p, q in zip(ku, v.children()))

    def wf(a, c, bound):
        if type(a) is not type(c):
            return False
        ka, kc = a.children(), c.children()
        if not ka:
            return a == c
        match a:
            case Just(t, agent, _):
                if agent != c.agent or not wt(t, c.t, bound):
                    return False
            case Forall(v, _) | Exists(v, _):
                if v != c.var:
                    return False
                bound = bound | {v}
            case Knows(i, _):
                if i != c.time:
                    return False
            case Mu(v, _):
                if v != c.var:
                    return False
            case FixApp(name, args):
                if name != c.name or len(args) != len(c.args):
                    return False
        return all(wf(p, q, bound) for p, q in zip(ka, kc))

    return sigma if wf(base, target, frozenset()) else None


def _ref_infer_term(template, instance, x):
    sigma = _ref_match_free(template, instance, frozenset((x,)))
    if sigma is None:
        return None
    if x not in sigma:
        return Var(x)
    t = sigma[x]
    try:
        if subst_term_for_var(template, x, t) != instance:
            return None
    except NotFreeFor:
        return None
    return t


def _ref_sigma_match(base, target):
    return _ref_match_free(base, target, free_vars(base))


_RA, _RB, _RS, _RT = FMeta('A'), FMeta('B'), TMeta('s'), TMeta('t')


def _ref_sum_match(f):
    for left in (TSum(_RS, _RT), TSum(_RT, _RS)):
        b = {}
        pat = Imp(Just(_RS, '?g', _RA), Just(left, '?g', _RA))
        if _ref_match_formula(pat, f, b):
            return b
    return None


def _ref_q1_match(f):
    if not (isinstance(f, Imp) and isinstance(f.a, Forall)):
        return None
    x = f.a.var
    t = _ref_infer_term(f.a.a, f.b, x)
    if t is None:
        return None
    return {'v:x': x, 'T:t': t}


def _ref_q3_match(f):
    if not (isinstance(f, Imp) and isinstance(f.b, Exists)):
        return None
    x = f.b.var
    t = _ref_infer_term(f.b.a, f.a, x)
    if t is None:
        return None
    return {'v:x': x, 'T:t': t}


def _ref_mu_cl_match(f):
    if not (isinstance(f, Iff) and isinstance(f.b, Mu)):
        return None
    mu = f.b
    if subst_prop(mu.a, mu.var, mu) != f.a:
        return None
    return {'v:p': mu.var, 'F:A': mu.a}


def _ref_not_free(var_key, formula_key):
    return lambda b: b[var_key] not in free_vars(b[formula_key])


def _ref_lt(key1, key2):
    return lambda b: b[key1] < b[key2]


_REF_PATTERNS = {
    'K': (Imp(Box(Imp(_RA, _RB)), Imp(Box(_RA), Box(_RB))),),
    'T': (Imp(Box(_RA), _RA),),
    'D': (Imp(Box(_RA), Neg(Box(Neg(_RA)))),),
    '4': (Imp(Box(_RA), Box(Box(_RA))),),
    'B': (Imp(Neg(_RA), Box(Neg(Box(_RA)))),),
    '5': (Imp(Neg(Box(_RA)), Box(Neg(Box(_RA)))),),
    'lob': (Imp(Box(Imp(Box(_RA), _RA)), Box(_RA)),),
    'jk': (Imp(Just(_RS, '?g', Imp(_RA, _RB)),
               Imp(Just(_RT, '?g', _RA), Just(App(_RS, _RT), '?g', _RB))),),
    'jt': (Imp(Just(_RT, '?g', _RA), _RA),),
    'jd': (Imp(Just(_RT, '?g', Falsum()), Falsum()),),
    'j4': (Imp(Just(_RT, '?g', _RA),
               Just(Bang(_RT), '?g', Just(_RT, '?g', _RA))),),
    'jb': (Imp(Neg(_RA), Just(WQuest(_RT), '?g',
                               Neg(Just(_RT, '?g', _RA)))),),
    'j5': (Imp(Neg(Just(_RT, '?g', _RA)),
               Just(Quest(_RT), '?g', Neg(Just(_RT, '?g', _RA)))),),
    'elob': (Imp(Just(_RS, '?g', Imp(Just(_RT, '?g', _RA), _RA)),
                 Just(_RT, '?g', _RA)),),
    'q2': (Imp(Forall('?x', Imp(_RA, _RB)), Imp(_RA, Forall('?x', _RB))),
           _ref_not_free('v:x', 'F:A')),
    'q4': (Imp(Forall('?x', Imp(_RA, _RB)), Imp(Exists('?x', _RA), _RB)),
           _ref_not_free('v:x', 'F:B')),
    'uf': (Imp(Exists('?y', Just(Var('?y'), '?g',
                                 Forall('?x', Just(_RT, '?g', _RA)))),
               Just(UAll(_RT, '?x'), '?g', Forall('?x', _RA))),
           lambda b: b['v:y'] not in free_vars(b['T:t']),
           _ref_not_free('v:y', 'F:A')),
    'tk': (Imp(Knows('?i', Imp(_RA, _RB)),
               Imp(Knows('?j', _RA), Knows('?k', _RB))),
           _ref_lt('i:i', 'i:k'), _ref_lt('i:j', 'i:k')),
    'mon': (Imp(Knows('?i', _RA), Knows('?j', _RA)), _ref_lt('i:i', 'i:j')),
    'tt': (Imp(Knows('?i', _RA), _RA),),
    't4': (Imp(Knows('?i', _RA), Knows('?j', Knows('?i', _RA))),
           _ref_lt('i:i', 'i:j')),
}
_REF_CUSTOM = {'sum': _ref_sum_match, 'q1': _ref_q1_match,
               'q3': _ref_q3_match, 'mu-cl': _ref_mu_cl_match,
               'taut': lambda f: {} if is_tautology(f) else None}


def _ref_sacchetti(n):
    box_n = _RA
    for _ in range(n):
        box_n = Box(box_n)
    return (Imp(Box(Imp(box_n, _RA)), Box(_RA)),)


def _ref_schema_match(entry, f):
    # entry: a schema name, or the (pattern, *conditions) of one
    if entry in _REF_CUSTOM:
        return _REF_CUSTOM[entry](f)
    pat, *conditions = _REF_PATTERNS.get(entry, entry)
    b = {}
    if not _ref_match_formula(pat, f, b):
        return None
    return b if all(cond(b) for cond in conditions) else None


def _ref_unfold(op, env):
    # the replaced builders let NotFreeFor escape; an argument captured by
    # a binder of the body is now a FixedPointError that names the operator
    try:
        return subst_prop_multi(op.body, env)
    except NotFreeFor as ex:
        raise FixedPointError("%s: %s" % (op.name, ex)) from None


def _ref_fp_axiom(op, args):
    args = tuple(args)
    if len(args) != len(op.params):
        raise FixedPointError("%s expects %d arguments, got %d"
                              % (op.name, len(op.params), len(args)))
    head = FixApp(op.name, args)
    env = {op.var: head}
    env.update(zip(op.params, args))
    return Iff(head, _ref_unfold(op, env))


def _ref_fp_axiom_instance(op, f):
    if not isinstance(f, Iff):
        return None
    head = f.a
    if not isinstance(head, FixApp) or head.name != op.name:
        return None
    if len(head.args) != len(op.params):
        return None
    env = {op.var: head}
    env.update(zip(op.params, head.args))
    try:
        base = _ref_unfold(op, env)
    except FixedPointError:
        return None
    return _ref_sigma_match(base, f.b)


def _ref_gl_obligation(op, candidate, args):
    args = tuple(args)
    if len(args) != len(op.params):
        raise FixedPointError("%s expects %d arguments, got %d"
                              % (op.name, len(op.params), len(args)))
    if not occurrence_ok(op.body, op.var, 'modalized'):
        raise FixedPointError(
            "explicit definability only applies to boxed recursion")
    env = {op.var: candidate}
    env.update(zip(op.params, args))
    return Iff(candidate, _ref_unfold(op, env))


# formulas and terms for the comparison: primitive terms with variable
# arguments, uniform verifiers (t all x), quantifiers that can capture the
# variables terms use, agent labels, and fix(d; ...) heads
_DVARS = ('x', 'y', 'z')
_dvars = st.sampled_from(_DVARS)
_dterms = st.recursive(
    _dvars.map(Var) | st.just(Const('c'))
    | st.builds(Prim, st.sampled_from(('f', 'g')),
                st.lists(_dvars, max_size=2).map(tuple)),
    lambda ch: st.one_of(st.builds(App, ch, ch), st.builds(TSum, ch, ch),
                         st.builds(Bang, ch), st.builds(Quest, ch),
                         st.builds(WQuest, ch), st.builds(UAll, ch, _dvars)),
    max_leaves=3)
_dagents = st.sampled_from((None, 'a', 'b'))


def _dformulas(heads=True, max_leaves=4):
    leaves = atoms | st.just(Falsum())
    if heads:
        leaves |= st.just(FixApp('d', ()))

    def layer(ch):
        out = (_bool_layer(ch) | st.builds(Just, _dterms, _dagents, ch)
               | st.builds(Forall, _dvars, ch) | st.builds(Exists, _dvars, ch)
               | st.builds(Box, ch) | st.builds(Knows, st.integers(0, 3), ch))
        if heads:
            out |= st.lists(ch, min_size=1, max_size=2).map(
                lambda a: FixApp('d', tuple(a)))
            # m is not an atom name of the leaves, so the body is positive
            out |= ch.map(lambda a: Mu('m', Or(Atom('m'), a)))
        return out
    return st.recursive(leaves, layer, max_leaves=max_leaves)


_sigmas = st.dictionaries(_dvars, _dterms, max_size=3)


def _naive_subst(node, sigma, bound=frozenset()):
    """node with each free occurrence of a variable in sigma replaced by its
    term, capture ignored; a primitive argument takes only a variable."""
    kind = type(node)
    if kind is Var:
        return node if node.name in bound else sigma.get(node.name, node)
    if kind is Prim:
        return Prim(node.symbol, tuple(
            sigma[a].name if a in sigma and a not in bound
            and isinstance(sigma[a], Var) else a for a in node.args))
    if kind in (Forall, Exists, UAll):
        bound = bound | {node.var}
    if kind is Just:
        return Just(_naive_subst(node.t, sigma, bound), node.agent,
                    _naive_subst(node.a, sigma, bound))
    return node.rebuild([_naive_subst(k, sigma, bound)
                         for k in node.children()])


def _instantiate(pat, env, alt, rnd):
    """pat with each metavariable replaced by its filler in env, or now and
    then in alt, so that repeated metavariables sometimes disagree."""
    def pick(key):
        return (alt if rnd.random() < 0.15 else env)[key]

    def slot(val, kind):
        if isinstance(val, str) and val.startswith('?'):
            return pick(kind + ':' + val[1:])
        return val

    def go(p):
        kind = type(p)
        if kind is FMeta:
            return pick('F:' + p.name)
        if kind is TMeta:
            return pick('T:' + p.name)
        if kind is Var:
            return Var(slot(p.name, 'v'))
        if kind is Just:
            return Just(go(p.t), slot(p.agent, 'a'), go(p.a))
        if kind is Knows:
            return Knows(slot(p.time, 'i'), go(p.a))
        if kind in (Forall, Exists):
            return kind(slot(p.var, 'v'), go(p.a))
        if kind is UAll:
            return UAll(go(p.inner), slot(p.var, 'v'))
        return p.rebuild([go(k) for k in p.children()])
    return go(pat)


_dformula = _dformulas()


@st.composite
def _fillers(draw):
    return {'F:A': draw(_dformula), 'F:B': draw(_dformula),
            'T:s': draw(_dterms), 'T:t': draw(_dterms),
            'a:g': draw(_dagents), 'v:x': draw(_dvars), 'v:y': draw(_dvars),
            'i:i': draw(st.integers(0, 3)), 'i:j': draw(st.integers(0, 3)),
            'i:k': draw(st.integers(0, 3))}


@st.composite
def _schema_candidates(draw):
    """A formula that is, or nearly is, an instance of a drawn schema."""
    env, alt = draw(_fillers()), draw(_fillers())
    rnd = draw(st.randoms(use_true_random=False))
    shape = draw(st.sampled_from(sorted(_REF_PATTERNS)
                                 + ['sum', 'q1', 'q3', 'mu-cl', 'random']))
    if shape == 'random':
        return draw(_dformula)
    if shape in _REF_PATTERNS:
        return _instantiate(_REF_PATTERNS[shape][0], env, alt, rnd)
    a, t, x = env['F:A'], env['T:t'], env['v:x']
    if shape == 'sum':
        s = TSum(t, env['T:s']) if rnd.random() < 0.5 else TSum(env['T:s'], t)
        return Imp(Just(t, env['a:g'], a), Just(s, env['a:g'], a))
    if shape == 'mu-cl':
        m = Mu('m', Or(Atom('m'), a))
        return Iff(subst_prop(m.a, 'm', m), m)
    inst = _naive_subst(a, {x: t})
    if shape == 'q1':
        return Imp(Forall(x, a), inst)
    return Imp(inst, Exists(x, a))


def test_reference_table_names_every_schema():
    assert sorted(SCHEMAS) == sorted(list(_REF_PATTERNS) + list(_REF_CUSTOM))


@settings(max_examples=300, deadline=None)
@given(_schema_candidates())
@example(parse_formula('x : p -> (x + y) : p'))
@example(parse_formula('x : p -> (y + x) : p'))
@example(parse_formula('(all x . ex y . x : p) -> (ex y . y : p)'))
# a repeated metavariable, and a repeated agent, that differ
@example(parse_formula('x : p -> (x + y) : q'))
@example(parse_formula('x :@a (p -> q) -> y :@a p -> (x * y) :@a q', FULL))
@example(parse_formula('x :@a (p -> q) -> y :@b p -> (x * y) :@a q', FULL))
def test_schemas_agree_with_the_replaced_matchers(f):
    for name, schema in SCHEMAS.items():
        assert schema.match(f) == _ref_schema_match(name, f), name
    for n in (1, 2):
        assert sacchetti_schema(n).match(f) == \
            _ref_schema_match(_ref_sacchetti(n), f)


def _within(frames, fn, *args):
    """fn(*args) with a recursion limit frames above the caller's depth;
    hypothesis raises the limit while it runs a test."""
    depth, f = 0, sys._getframe()
    while f is not None:
        depth, f = depth + 1, f.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + frames)
    try:
        return fn(*args)
    finally:
        sys.setrecursionlimit(limit)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), _fillers(), _fillers(),
       st.randoms(use_true_random=False))
# the deepest schema, on an instance and on a near miss built in code; the
# match has 100 frames, a tenth of the schema's depth, and the reference
# walk, like _instantiate, a frame per level
@example(_SACCHETTI_MAX, {'F:A': Atom('p')}, {'F:A': Atom('p')},
         random.Random(0))
@example(_SACCHETTI_MAX, {'F:A': Atom('p')}, {'F:A': Atom('q')},
         random.Random(2))     # the last A, under the conclusion's box
def test_sacchetti_agrees_with_the_replaced_matcher(n, env, alt, rnd):
    deep = 4 * _SACCHETTI_MAX
    f = _within(deep, _instantiate, _ref_sacchetti(n)[0], env, alt, rnd)
    assert _within(100, sacchetti_schema(n).match, f) == \
        _within(deep, _ref_schema_match, _ref_sacchetti(n), f)


@settings(max_examples=300, deadline=None)
@given(_dformula, _sigmas, _dvars, _dterms)
@example(parse_formula('all y . x : p'), {'x': parse_term('y * y')}, 'x',
         Var('x'))
@example(parse_formula('x : p & (x all x) : q'), {'x': Var('z')}, 'x',
         Var('x'))
@example(parse_formula('(y all x) : p'), {'y': Var('x')}, 'x', Var('x'))
@example(parse_formula('f(x) : p'), {'x': Var('z')}, 'x', Var('x'))
def test_substitution_instances_agree_with_the_replaced_matcher(base, sigma,
                                                                v, u):
    # base also under a quantifier and beside a verifier on v, where the
    # terms of sigma can be captured
    for base in (base, Forall(v, base), And(Just(UAll(u, v), None, base),
                                            Just(u, None, base))):
        target = _naive_subst(base, sigma)
        for a, b in ((base, target), (target, base)):
            assert sigma_match(a, b) == _ref_sigma_match(a, b)
            for x in _DVARS:
                assert infer_term(a, b, x) == _ref_infer_term(a, b, x)


_dbodies = _dformulas(heads=False)


@st.composite
def _operators(draw):
    # the body wraps every occurrence of the recursion atom p in the guard
    # of a drawn mode; every other atom is a parameter
    guard, mode = draw(st.sampled_from((
        (Box, 'modalized'),
        (lambda a: Just(draw(_dterms), None, a), 'justified'),
        (lambda a: Exists('x', Just(Var('x'), None, a)), 'exists_justified'),
    )))
    body = guard(draw(_dbodies))
    params = sorted(free_atoms(body) - {'p'})
    return make_operator('d', 'p', draw(st.permutations(params)), body, mode)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (FixedPointError, NotFreeFor) as ex:
        return type(ex).__name__, str(ex)


@settings(max_examples=200, deadline=None)
@given(_operators(), st.lists(_dformula, max_size=3), _sigmas, _dformula)
def test_fixed_point_instances_agree_with_the_replaced_builders(op, args,
                                                                sigma, cand):
    assert _outcome(fp_axiom, op, args) == _outcome(_ref_fp_axiom, op, args)
    assert _outcome(gl_obligation, op, cand, args) == \
        _outcome(_ref_gl_obligation, op, cand, args)
    head = FixApp('d', tuple(args))
    env = {'p': head}
    env.update(zip(op.params, args))
    try:
        rhs = subst_prop_multi(op.body, env)
    except NotFreeFor:
        rhs = op.body
    for f in (Iff(head, rhs), Iff(head, _naive_subst(rhs, sigma)),
              Iff(cand, rhs), Iff(head, cand)):
        assert _outcome(fp_axiom_instance, op, f) == \
            _outcome(_ref_fp_axiom_instance, op, f)
