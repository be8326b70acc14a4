"""Derivation-to-derivation constructions."""

import os

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from justfix.kernel import check_derivation, load_derivation, parse_derivation
from justfix.registry import EMPTY, Spec
from justfix.syntax import (App, Atom, Bang, Box, Const, Exists, FMeta,
                            Forall, Imp, Just, Knows, Mu, Neg, Or, Prim, UAll,
                            Var, parse_formula, print_formula, free_vars,
                            replace)
from justfix.transforms import (TransformError, collapse_agents,
                                collapse_derivation, deduction,
                                exists_translate, internalize_qlp, jd_lemma,
                                jug, lift, project, project_derivation,
                                project_logic_id, restricted_qnec,
                                substitute_proof)

from conftest import (CORPUS, _bool_layer, atoms, lp_sample_derivations,
                      modal_formulas, node_objects)

P = parse_formula


def entry(name):
    return load_derivation(os.path.join(CORPUS, name))


# -- deduction -----------------------------------------------------------------

def test_deduction_wraps_premise_as_self_implication():
    d = parse_derivation("logic: K\npremise h: p\n1. p ; premise h\n")
    out = deduction(d, 'h')
    assert out.final == P('p -> p')
    assert out.premises == ()
    assert check_derivation(out).ok


def test_deduction_of_unused_premise_weakens():
    d = parse_derivation("logic: K\npremise h: p\n1. q -> q ; prop\n")
    out = deduction(d, 'h')
    assert out.final == P('p -> (q -> q)')
    assert check_derivation(out).ok


def test_deduction_discharges_one_of_many():
    d = parse_derivation("""
logic: K
premise h: p
premise g: q
1. p ; premise h
2. q ; premise g
3. p & q ; prop 1 2
""")
    out = deduction(d, 'h')
    assert out.final == P('p -> p & q')
    assert [pr.name for pr in out.premises] == ['g']
    rep = check_derivation(out)
    assert rep.ok and rep.premises_used == frozenset({'g'})


def test_deduction_unknown_premise():
    d = parse_derivation("logic: K\n1. p -> p ; prop\n")
    with pytest.raises(TransformError):
        deduction(d, 'h')


def test_deduction_refuses_admissible_knowledge_steps():
    d = parse_derivation("""
logic: tS4
premise k: K@1 p
1. K@1 p ; premise k
2. K@5 K@1 p ; admk 1 5
""")
    with pytest.raises(TransformError) as e:
        deduction(d, 'k')
    assert 'cannot be discharged' in str(e.value)


@pytest.mark.parametrize('name', ['tk-surprise.drv', 'tt-surprise.drv',
                                  'ts4-surprise.drv', 'ts4-bot.drv'])
def test_deduction_round_trip_on_timed_entries(name):
    d = entry(name)
    for pre in d.premises:
        out = deduction(d, pre.name)
        assert out.final == Imp(pre.formula, d.final)
        assert pre.name not in {p.name for p in out.premises}
        assert check_derivation(out).ok


# -- lifting -------------------------------------------------------------------

def test_lift_on_generated_samples():
    for d in lp_sample_derivations():
        res = lift(d)
        assert res.derivation.final == Just(res.term, None, d.final)
        assert check_derivation(res.derivation).ok


def test_lift_carries_premises_as_evidence_variables():
    d = parse_derivation("""
logic: LP
premise h: p
1. p ; premise h
2. p | q ; prop 1
""")
    res = lift(d)
    assert res.derivation.premises[0].formula == Just(Var('x#1'), None,
                                                      P('p'))
    assert res.derivation.final == Just(res.term, None, P('p | q'))
    rep = check_derivation(res.derivation)
    assert rep.ok and rep.premises_used == frozenset({'h'})


def test_lift_rejects_modal_input():
    d = parse_derivation("logic: K\n1. p -> p ; prop\n")
    with pytest.raises(TransformError) as e:
        lift(d)
    assert 'justification logics' in str(e.value)


def test_lift_needs_total_spec():
    d = parse_derivation("logic: LP\nspec: empty\n1. x : p -> p ; ax jt\n")
    with pytest.raises(TransformError) as e:
        lift(d)
    assert 'total specification' in str(e.value)


def test_lift_refuses_induction():
    d = parse_derivation("""
logic: J(mu)
1. (q | q) -> q ; prop
2. (mu p . (q | p)) -> q ; mu-ind 1
""")
    with pytest.raises(TransformError) as e:
        lift(d)
    assert 'induction' in str(e.value)


def test_lift_expands_inline_steps_first():
    d = entry('jl-knower.drv')
    res = lift(d)
    assert res.derivation.final == Just(res.term, None, d.final)
    assert check_derivation(res.derivation).ok


# -- quantified internalization ---------------------------------------------------

def test_internalize_gen_goes_through_uniform_verifier():
    d = parse_derivation("logic: QLP\n1. p -> p ; prop\n"
                         "2. all x . (p -> p) ; gen 1 x\n")
    res = internalize_qlp(d)
    assert res.derivation.final == Just(res.term, None, d.final)
    assert isinstance(res.term, UAll)
    assert check_derivation(res.derivation).ok


def test_internalize_qnec_uses_proof_checker():
    d = parse_derivation("logic: QLP\n1. p -> p ; prop\n"
                         "2. ex x . x : (p -> p) ; qnec 1 x\n")
    res = internalize_qlp(d)
    assert res.derivation.final == Just(res.term, None, d.final)
    assert isinstance(res.term, App) and isinstance(res.term.arg, Bang)
    assert check_derivation(res.derivation).ok


def test_internalize_an_reprefixes_with_bang():
    d = parse_derivation("logic: QLP-\n1. g : (x : p -> p) ; an\n")
    res = internalize_qlp(d)
    assert res.term == Bang(Prim('g', ()))
    assert res.derivation.final == Just(res.term, None, d.final)
    assert check_derivation(res.derivation).ok


def test_internalize_refuses_gen_without_uniform_verifiers():
    d = parse_derivation("logic: QLP-\n1. p -> p ; prop\n"
                         "2. all x . (p -> p) ; gen 1 x\n")
    with pytest.raises(TransformError) as e:
        internalize_qlp(d)
    assert 'uniform verifiers' in str(e.value)


def test_internalize_rejects_unquantified_input():
    d = parse_derivation("logic: LP\n1. p -> p ; prop\n")
    with pytest.raises(TransformError) as e:
        internalize_qlp(d)
    assert 'quantified logics' in str(e.value)


# -- proof substitution -------------------------------------------------------------

def test_substitute_proof_rewrites_and_rechecks():
    d = parse_derivation("logic: LP\n1. x : p -> x : p ; prop\n")
    out = substitute_proof(d, 'x', App(Const('c'), Const('d')))
    assert print_formula(out.final) == 'c * d : p -> c * d : p'
    assert check_derivation(out).ok


def test_substitute_proof_keeps_untouched_variables():
    d = parse_derivation("logic: LP\n1. y : p -> y : p ; prop\n")
    out = substitute_proof(d, 'x', Const('c'))
    assert out.final == d.final


def test_substitute_proof_refuses_declared_specs():
    d = entry('qlp-blindspot.drv')
    with pytest.raises(TransformError) as e:
        substitute_proof(d, 'x', Var('y'))
    assert 'declared specification' in str(e.value)


def test_substitute_proof_rejects_capture():
    d = parse_derivation("logic: QLP-\n1. x : p -> x : p ; prop\n"
                         "2. all y . (x : p -> x : p) ; gen 1 y\n")
    with pytest.raises(TransformError):
        substitute_proof(d, 'x', Var('y'))


def test_substitute_proof_updates_inline_arguments():
    d = parse_derivation("""
logic: LP
1. x : p -> x : p ; prop
2. c : p -> c : p ; inline subst 1 x := c
""")
    out = substitute_proof(d, 'y', Const('d'))  # no-op but re-checks
    assert check_derivation(out).ok


# -- upgrade and restricted introduction ------------------------------------------

def test_jug_shape():
    d = parse_derivation("logic: QLP\n1. g : (x : p -> p) ; an\n")
    out = jug(d, 'z')
    assert out.final == Just(UAll(Prim('g', ()), 'z'), None,
                             Forall('z', P('x : p -> p')))
    assert check_derivation(out).ok


def test_jug_needs_uniform_verifiers():
    d = parse_derivation("logic: QLP-\n1. g : (x : p -> p) ; an\n")
    with pytest.raises(TransformError) as e:
        jug(d, 'z')
    assert 'uniform verifiers' in str(e.value)


def test_jug_applies_to_theorems_only():
    d = parse_derivation("logic: QLP\npremise h: g : p\n"
                         "1. g : p ; premise h\n")
    with pytest.raises(TransformError) as e:
        jug(d, 'z')
    assert 'theorems only' in str(e.value)


def test_jug_needs_a_justification():
    d = parse_derivation("logic: QLP\n1. p -> p ; prop\n")
    with pytest.raises(TransformError) as e:
        jug(d, 'z')
    assert 'justification' in str(e.value)


def test_restricted_qnec_on_axiom_instance():
    a = P('x : p -> p')
    out = restricted_qnec(a, 'y')
    assert out.final == Exists('y', Just(Var('y'), None, a))
    assert out.logic_id == 'QLP-'
    assert check_derivation(out).ok


def test_restricted_qnec_guards():
    with pytest.raises(TransformError) as e:
        restricted_qnec(P('p -> q'), 'y')
    assert 'axiom instances' in str(e.value)
    with pytest.raises(TransformError) as e:
        restricted_qnec(P('x : p -> p'), 'x')
    assert 'free' in str(e.value)
    with pytest.raises(TransformError) as e:
        restricted_qnec(P('x : p -> p'), 'y', spec=EMPTY)
    assert 'total specification' in str(e.value)


def test_jd_lemma_direct():
    out = jd_lemma(Var('s'), Var('t'), P('p'), 'JD')
    assert print_formula(out.final) == 's : ~p -> ~t : p'
    assert check_derivation(out).ok


# -- forgetful projection --------------------------------------------------------

def test_project_formula_table():
    assert project(P('x : p')) == Box(P('p'))
    assert project(P('ex x . x : p')) == Box(P('p'))
    assert project(P('t : (s : p -> q)')) == P('[] ([] p -> q)')
    assert project(P('p & ~q')) == P('p & ~q')
    got = project(P('mu p . (q | x : p)'))
    assert got == P('mu p . (q | [] p)')


def test_project_keeps_genuine_quantifiers_out():
    with pytest.raises(TransformError):
        project(Forall('x', P('p')))
    with pytest.raises(TransformError):
        project(Knows(3, P('p')))
    # a quantified verifier over a formula mentioning the variable is not
    # a box in disguise
    f = Exists('x', Just(Var('x'), None, P('x : p')))
    with pytest.raises(TransformError):
        project(f)


def test_project_logic_id_table():
    assert project_logic_id('J') == 'K'
    assert project_logic_id('JT') == 'T'
    assert project_logic_id('JD') == 'D'
    assert project_logic_id('LP') == 'S4'
    assert project_logic_id('JT4') == 'S4'
    assert project_logic_id('EGL') == 'GL'
    assert project_logic_id('JD4(FP)') == 'D4(FP)'
    assert project_logic_id('J(mu)') == 'K(mu)'
    with pytest.raises(TransformError):
        project_logic_id('tK')


def test_project_derivation_ian_becomes_nec_tower():
    d = parse_derivation("logic: LP\n1. d : (c : (x : p -> p)) ; ian\n")
    out = project_derivation(d)
    assert out.logic_id == 'S4'
    assert out.final == project(d.final)
    assert [s.rule for s in out.steps] == ['ax', 'nec', 'nec']
    assert check_derivation(out).ok


def test_project_derivation_jd_bridge():
    d = parse_derivation("logic: JD\n1. t : false -> false ; ax jd\n")
    out = project_derivation(d)
    assert out.logic_id == 'D'
    assert out.final == P('[] false -> false')
    assert any(s.rule == 'nec' for s in out.steps)
    assert check_derivation(out).ok


def test_project_derivation_carries_premises():
    d = parse_derivation("""
logic: JT
premise h: t : p
1. t : p ; premise h
2. t : p -> p ; ax jt
3. p ; mp 1 2
""")
    out = project_derivation(d)
    assert out.premises[0].formula == P('[] p')
    assert out.final == P('p')
    assert check_derivation(out).ok


def test_project_derivation_refuses_modal_input():
    d = parse_derivation("logic: K\n1. p -> p ; prop\n")
    with pytest.raises(TransformError):
        project_derivation(d)


# -- one table per transform ------------------------------------------------------

def _naive_project(f):
    """project as a plain tree recursion, the reference for the shared
    one."""
    match f:
        case Just(_, _, a):
            return Box(_naive_project(a))
        case Exists(x, Just(Var(n), _, a)) if n == x and x not in free_vars(a):
            return Box(_naive_project(a))
        case Box() | Knows() | Forall() | Exists() | FMeta():
            raise TransformError("projection undefined on %s"
                                 % type(f).__name__)
    return f.rebuild([_naive_project(k) for k in f.children()])


def _naive_collapse(f):
    """collapse_agents as a plain tree recursion."""
    match f:
        case Just(t, _, a):
            return Just(t, None, _naive_collapse(a))
        case Box() | Knows() | Mu() | FMeta():
            raise TransformError("agent collapse undefined on %s"
                                 % type(f).__name__)
    return f.rebuild([_naive_collapse(k) for k in f.children()])


_TERMS = st.sampled_from(('x', 'y')).map(Var) | st.just(Const('c')) \
    | st.sampled_from(('x', 'y')).map(lambda v: App(Const('c'), Var(v)))


# the shapes that project or collapse_agents refuses
_REFUSED = st.sampled_from((
    Box, lambda a: Knows(2, a), lambda a: Forall('x', a),
    lambda a: Exists('y', a),
    # m is no atom name, so it occurs only positively
    lambda a: Mu('m', Or(Atom('m'), a))))


def _transform_layer(ch):
    """Every shape one of the two maps takes, and every shape one of them
    refuses: those of _REFUSED and metavariables (at the leaves).  The
    refused shapes share one branch, so most draws map without an
    error."""
    return (_bool_layer(ch)
            | st.builds(Just, _TERMS, st.sampled_from((None, 'a', 'b')), ch)
            | st.builds(lambda x, g, a: Exists(x, Just(Var(x), g, a)),
                        st.sampled_from(('x', 'y')),
                        st.sampled_from((None, 'a')), ch)
            | st.builds(lambda wrap, a: wrap(a), _REFUSED, ch))


_TRANSFORM_INPUTS = st.lists(
    st.recursive(
        # some leaves are one object in several places
        atoms | st.sampled_from((Atom('p'), Atom('q'), FMeta('A'))),
        _transform_layer, max_leaves=8),
    min_size=1, max_size=4).map(
        # the same objects again, under a new root
        lambda fs: fs + [Imp(a, b) for a, b in zip(fs, reversed(fs))])


def _outcome(fn, f, **kw):
    try:
        return fn(f, **kw)
    except TransformError as e:
        return 'error: %s' % e


@settings(max_examples=300, deadline=None)
@given(_TRANSFORM_INPUTS)
def test_shared_maps_match_the_tree_recursion(fs):
    for fn, naive in ((project, _naive_project),
                      (collapse_agents, _naive_collapse)):
        table = {}
        shared = [_outcome(fn, f, table=table) for f in fs]
        fresh = [_outcome(fn, f, table={}) for f in fs]
        assert shared == fresh == [_outcome(naive, f) for f in fs]
        # each node object is mapped once, so the images hold no more node
        # objects than their inputs, where a tree recursion makes one per
        # occurrence.  Equal images of different objects stay different
        # objects: building them costs less than a table that finds them
        mapped = [(f, g) for f, g in zip(fs, shared) if not isinstance(g, str)]
        for pairs in [mapped] + [[p] for p in mapped]:
            assert len(node_objects(g for _, g in pairs)) \
                <= len(node_objects(f for f, _ in pairs))


def _negations(n, f):
    for _ in range(n):
        f = Neg(f)
    return f


@pytest.mark.parametrize('fn, leaf, image', [
    (project, Just(Var('x'), None, Atom('p')), Box(Atom('p'))),
    (collapse_agents, Just(Var('x'), 'a', Atom('p')),
     Just(Var('x'), None, Atom('p'))),
], ids=['project', 'collapse'])
def test_maps_take_one_frame_per_level(fn, leaf, image):
    # a map and its list comprehension, two frames per level, stopped at
    # 498 negations
    g = fn(_negations(900, leaf))
    for _ in range(900):
        assert type(g) is Neg
        g = g.a
    assert g == image


# -- existential translation -------------------------------------------------------

def test_exists_translate_numbers_fresh_variables():
    got = exists_translate(P('[] p -> [] [] q'))
    assert print_formula(got) == \
        '(ex x#1 . x#1 : p) -> ex x#2 . x#2 : ex x#3 . x#3 : q'


def test_exists_translate_domain():
    with pytest.raises(TransformError):
        exists_translate(Knows(1, P('p')))
    with pytest.raises(TransformError):
        exists_translate(P('x : p'))


def test_exists_translate_numbers_each_occurrence():
    # one object under both conjuncts still gets two variables
    f = P('[]p & []p')
    assert f.a is f.b
    assert print_formula(exists_translate(f)) == \
        '(ex x#1 . x#1 : p) & ex x#2 . x#2 : p'


@settings(max_examples=500, deadline=None)
@given(modal_formulas(max_leaves=6))
def test_projection_inverts_translation(f):
    assert project(exists_translate(f)) == f


# -- agent collapse ----------------------------------------------------------------

def test_collapse_agents_formula():
    qlp_n = None
    from justfix.registry import get_logic
    qlp_n = get_logic('QLP-_n').profile
    f = parse_formula('ex y . y :@s (p & ~ex x . x :@t p)', qlp_n)
    got = collapse_agents(f)
    assert print_formula(got) == 'ex y . y : (p & ~ex x . x : p)'
    assert not free_vars(got) - free_vars(f)


def test_collapse_derivation_targets_single_agent_logic():
    d = entry('qlp-blindspot.drv')
    out = collapse_derivation(d)
    assert out.logic_id == 'QLP-'
    assert out.agents is None
    for e in out.spec.entries:
        assert ':@' not in print_formula(e)
    assert check_derivation(out).ok


def test_collapse_keeps_fixed_point_suffix():
    # the _n marker sits before the suffix: QLP-_n(FP) collapses to QLP-(FP)
    d = replace(entry('qlp-blindspot.drv'), logic_id='QLP-_n(FP)')
    out = collapse_derivation(d)
    assert out.logic_id == 'QLP-(FP)'
    assert out.agents is None
    assert check_derivation(out).ok


def test_collapse_refuses_single_agent_input():
    d = parse_derivation("logic: LP\n1. p -> p ; prop\n")
    with pytest.raises(TransformError) as e:
        collapse_derivation(d)
    assert 'already single-agent' in str(e.value)
