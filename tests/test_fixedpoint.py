"""Operator declarations and their defining axioms."""

import pytest

from justfix.fixedpoint import (FixedPointError, fp_axiom, fp_axiom_instance,
                                gl_obligation, make_operator)
from justfix.syntax import (And, App, Atom, Box, Const, FixApp, Iff, Imp, Just,
                            Mu, Neg, Or, Var, nu_formula, parse_formula,
                            print_formula, subst_term_for_var)


def _knower():
    return make_operator('d', 'd', ('E',), parse_formula('E & ~ [] d'),
                         'modalized')


def _jl_knower():
    return make_operator('d', 'd', ('E',), parse_formula('E & ~ x : d'),
                         'justified')


# -- declaration validation ----------------------------------------------------

def test_make_operator_freezes_fields():
    op = _knower()
    assert op.name == 'd' and op.var == 'd'
    assert op.params == ('E',) and op.mode == 'modalized'


def test_make_operator_rejects_unknown_mode():
    with pytest.raises(FixedPointError):
        make_operator('d', 'd', (), Box(Atom('d')), 'boxed')


def test_make_operator_rejects_duplicate_params():
    with pytest.raises(FixedPointError):
        make_operator('d', 'd', ('E', 'E'), parse_formula('E & [] d'),
                      'modalized')


def test_make_operator_rejects_var_as_param():
    with pytest.raises(FixedPointError):
        make_operator('d', 'd', ('d',), Box(Atom('d')), 'modalized')


def test_make_operator_rejects_fixpoint_nodes_in_body():
    with pytest.raises(FixedPointError):
        make_operator('d', 'd', (), Box(Mu('p', Atom('p'))), 'modalized')
    with pytest.raises(FixedPointError):
        make_operator('d', 'd', ('E',),
                      And(Atom('E'), FixApp('d', (Atom('E'),))), 'modalized')


def test_make_operator_enforces_occurrence_mode():
    # a bare occurrence of the recursion variable is not modalized
    with pytest.raises(FixedPointError):
        make_operator('d', 'd', ('E',), parse_formula('E & ~ d'), 'modalized')
    # and a boxed occurrence is not justified
    with pytest.raises(FixedPointError):
        make_operator('d', 'd', ('E',), parse_formula('E & ~ [] d'),
                      'justified')


def test_make_operator_rejects_loose_atoms():
    with pytest.raises(FixedPointError) as e:
        make_operator('d', 'd', (), parse_formula('E & ~ [] d'), 'modalized')
    assert 'E' in str(e.value)


def test_vacuous_recursion_is_fine():
    # var need not occur at all; every mode holds vacuously
    op = make_operator('d', 'd', ('E',), Atom('E'), 'modalized')
    ax = fp_axiom(op, [Atom('q')])
    assert ax == Iff(FixApp('d', (Atom('q'),)), Atom('q'))


# -- the defining axiom --------------------------------------------------------

def test_fp_axiom_shape():
    ax = fp_axiom(_knower(), [Atom('E1')])
    assert print_formula(ax) == 'fix(d; E1) <-> E1 & ~[]fix(d; E1)'


def test_fp_axiom_arity():
    with pytest.raises(FixedPointError):
        fp_axiom(_knower(), [])
    with pytest.raises(FixedPointError):
        fp_axiom(_knower(), [Atom('E1'), Atom('E2')])


def test_captured_argument_is_a_fixed_point_error():
    # x : q put for E under ex x would be captured
    op = make_operator('d', 'p', ('E',), parse_formula('ex x . x : (p & E)'),
                       'exists_justified')
    arg = parse_formula('x : q')
    with pytest.raises(FixedPointError, match='captured by quantifier on x'):
        fp_axiom(op, [arg])
    head = FixApp('d', (arg,))
    stated = parse_formula('ex x . x : (fix(d; x : q) & x : q)')
    assert fp_axiom_instance(op, Iff(head, stated)) is None


def test_fp_axiom_compound_arguments():
    arg = Or(Atom('E1'), Atom('E2'))
    ax = fp_axiom(_knower(), [arg])
    head = FixApp('d', (arg,))
    assert ax == Iff(head, And(arg, Neg(Box(head))))


def test_fp_axiom_instance_strict():
    op = _knower()
    ax = fp_axiom(op, [Atom('E1')])
    assert fp_axiom_instance(op, ax) == {}


def test_fp_axiom_instance_reads_args_from_head():
    # arguments come off the instance, not the declaration
    op = _knower()
    ax = fp_axiom(op, [And(Atom('p'), Atom('q'))])
    assert fp_axiom_instance(op, ax) == {}


def test_fp_axiom_instance_rejects_wrong_shapes():
    op = _knower()
    ax = fp_axiom(op, [Atom('E1')])
    assert fp_axiom_instance(op, Imp(ax.a, ax.b)) is None
    assert fp_axiom_instance(op, Iff(Atom('p'), ax.b)) is None
    # right head, wrong unfolding
    assert fp_axiom_instance(op, Iff(ax.a, Atom('E1'))) is None


def test_fp_axiom_instance_sigma_image():
    op = _jl_knower()
    ax = fp_axiom(op, [Atom('E1')])
    rich = App(Const('c'), Var('x'))
    img = Iff(ax.a, subst_term_for_var(ax.b, 'x', rich))
    sub = fp_axiom_instance(op, img)
    assert sub == {'x': rich}
    # head arguments and unfolding must agree
    mismatched = Iff(FixApp('d', (Atom('E2'),)), img.b)
    assert fp_axiom_instance(op, mismatched) is None


def test_fp_axiom_instance_identity_on_jl_body():
    op = _jl_knower()
    ax = fp_axiom(op, [Atom('E1')])
    assert fp_axiom_instance(op, ax) == {'x': Var('x')}


# -- mu helpers ----------------------------------------------------------------

def test_nu_expand_is_dual_mu():
    got = nu_formula('p', Box(Atom('p')))
    assert print_formula(got) == '~mu p . ~[]~p'


# -- explicit definability obligations ------------------------------------------

def test_gl_obligation_shape():
    op = _knower()
    cand = Neg(Box(Atom('E1')))
    ob = gl_obligation(op, cand, [Atom('E1')])
    assert ob == Iff(cand, And(Atom('E1'), Neg(Box(cand))))


def test_gl_obligation_arity():
    with pytest.raises(FixedPointError):
        gl_obligation(_knower(), Atom('p'), [])


def test_gl_obligation_needs_boxed_recursion():
    with pytest.raises(FixedPointError):
        gl_obligation(_jl_knower(), Atom('p'), [Atom('E')])
