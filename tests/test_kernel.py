"""Derivation parsing, checking, and the inline transform hooks."""

import collections
import os
import subprocess
import sys

import pytest

from justfix import kernel, registry, transforms
from justfix.kernel import (RULES, DerivationError, Step, check_derivation,
                            cone_derivation, elaborate, format_report,
                            load_derivation, parse_derivation,
                            parse_spec_file, print_derivation,
                            _parse_justification, _print_justification)
from justfix.registry import (TOTAL, UnknownLogic, get_logic, known_logics,
                              match_axiom, taut_consequence)
from justfix.syntax import (FULL, Atom, Formula, Knows, Neg, Term,
                            parse_formula, print_formula, replace)

from conftest import CORPUS, corpus_paths, node_objects


def check_text(text):
    return check_derivation(parse_derivation(text))


def first_reason(rep):
    assert not rep.ok
    return rep.first_failure[1]


# -- corpus round trips --------------------------------------------------------

@pytest.mark.parametrize('path', corpus_paths(),
                         ids=lambda p: os.path.basename(p)[:-4])
def test_corpus_checks_and_round_trips(path):
    d = load_derivation(path)
    rep = check_derivation(d)
    assert rep.ok, format_report(rep)
    back = parse_derivation(print_derivation(d), base_dir=str(CORPUS))
    assert back.steps == d.steps
    assert back.premises == d.premises
    assert back.ops == d.ops
    assert check_derivation(back).ok


# -- core rules ----------------------------------------------------------------

def test_mp_convention():
    rep = check_text("""
logic: K
1. p -> p ; prop
2. (p -> p) -> (q -> (p -> p)) ; prop
3. q -> (p -> p) ; mp 1 2
""")
    assert rep.ok and print_formula(rep.final) == 'q -> p -> p'


def test_mp_rejects_swapped_references():
    rep = check_text("""
logic: K
1. p -> p ; prop
2. (p -> p) -> (q -> (p -> p)) ; prop
3. q -> (p -> p) ; mp 2 1
""")
    assert rep.first_failure[0] == 3
    assert 'step 1 is not' in first_reason(rep)


def test_prop_requires_tautological_consequence():
    rep = check_text("""
logic: K
1. p | q ; prop
""")
    assert 'tautological consequence' in first_reason(rep)


def test_ax_named_and_anonymous():
    assert check_text("logic: T\n1. [] p -> p ; ax T\n").ok
    assert check_text("logic: T\n1. [] p -> p ; ax\n").ok
    rep = check_text("logic: K\n1. [] p -> p ; ax\n")
    assert 'matches no axiom schema' in first_reason(rep)
    rep = check_text("logic: K\n1. [] p -> p ; ax T\n")
    assert 'not registered' in first_reason(rep)
    rep = check_text("logic: T\n1. [] p -> q ; ax T\n")
    assert 'not an instance' in first_reason(rep)


def test_premise_rule_and_dependency_tracking():
    rep = check_text("""
logic: K
premise h: p
premise g: q
1. p ; premise h
2. p -> (q -> p & q) ; prop
3. q -> p & q ; mp 1 2
4. q ; premise g
5. p & q ; mp 4 3
""")
    assert rep.ok
    assert rep.deps[3] == frozenset({'h'})
    assert rep.deps[5] == frozenset({'h', 'g'})
    assert rep.premises_used == frozenset({'h', 'g'})


def test_premise_must_be_declared_and_match():
    rep = check_text("logic: K\n1. p ; premise h\n")
    assert 'not declared' in first_reason(rep)
    rep = check_text("logic: K\npremise h: q\n1. p ; premise h\n")
    assert 'differs from premise' in first_reason(rep)


# -- necessitation-like rules refuse open antecedents ---------------------------

def test_nec_is_premise_free():
    rep = check_text("""
logic: K
premise h: p
1. p ; premise h
2. [] p ; nec 1
""")
    assert 'depends on premises' in first_reason(rep)
    assert check_text("logic: K\n1. p -> p ; prop\n"
                      "2. [] (p -> p) ; nec 1\n").ok


def test_gen_shape_and_variable():
    assert check_text("logic: QLP-\n1. p -> p ; prop\n"
                      "2. all x . (p -> p) ; gen 1 x\n").ok
    rep = check_text("logic: QLP-\n1. p -> p ; prop\n"
                     "2. all x . (p -> q) ; gen 1 x\n")
    assert 'conclusion is not all x' in first_reason(rep)


def test_qnec_shape_and_freshness():
    assert check_text("logic: QLP\n1. p -> p ; prop\n"
                      "2. ex x . x : (p -> p) ; qnec 1 x\n").ok
    rep = check_text("logic: QLP\n1. x : p -> x : p ; prop\n"
                     "2. ex x . x : (x : p -> x : p) ; qnec 1 x\n")
    assert 'free in step 1' in first_reason(rep)
    rep = check_text("logic: QLP\n1. p -> p ; prop\n"
                     "2. ex x . y : (p -> p) ; qnec 1 x\n")
    assert 'conclusion is not ex x' in first_reason(rep)


def test_rule_availability_is_enforced():
    rep = check_text("logic: QLP-\n1. p -> p ; prop\n"
                     "2. ex x . x : (p -> p) ; qnec 1 x\n")
    assert "rule 'qnec' not available" in first_reason(rep)
    rep = check_text("logic: QLP-\n1. g : (x : p -> p) ; ian\n")
    assert "rule 'ian' not available" in first_reason(rep)


# -- specification-driven rules --------------------------------------------------

def test_ian_prefix_chains_under_tcs():
    assert check_text("logic: LP\n1. c : (x : p -> p) ; ian\n").ok
    assert check_text("logic: LP\n"
                      "1. d : (c : (x : p -> p)) ; ian\n").ok


def test_ian_refused_under_empty_spec():
    rep = check_text("logic: LP\nspec: empty\n"
                     "1. c : (x : p -> p) ; ian\n")
    assert 'not licensed by the specification' in first_reason(rep)


def test_an_single_prefix_only():
    assert check_text("logic: LP\n1. c : (x : p -> p) ; an\n").ok
    rep = check_text("logic: LP\n1. d : (c : (x : p -> p)) ; an\n")
    assert 'not an axiom instance' in first_reason(rep)


def test_an_term_kind_follows_logic():
    rep = check_text("logic: LP\n1. x : (x : p -> p) ; an\n")
    assert 'const justification term' in first_reason(rep)
    assert check_text("logic: QLP-\n1. g : (x : p -> p) ; an\n").ok
    rep = check_text("logic: QLP-\n1. x : (x : p -> p) ; an\n")
    assert 'prim justification term' in first_reason(rep)


# -- provability-law bookkeeping in GLS -----------------------------------------

def test_gls_blocks_nec_after_reflection():
    rep = check_text("""
logic: GLS
1. [] p -> p ; ax T
2. [] ([] p -> p) ; nec 1
""")
    assert 'provability-law' in first_reason(rep)


def test_gls_taint_propagates_through_prop():
    rep = check_text("""
logic: GLS
1. [] p -> p ; ax T
2. ([] p -> p) | q ; prop 1
3. [] (([] p -> p) | q) ; nec 2
""")
    assert rep.first_failure[0] == 3
    assert 'provability-law' in first_reason(rep)


def test_gls_allows_nec_on_laws():
    assert check_text("""
logic: GLS
1. [] (p -> p) -> ([] p -> [] p) ; ax K
2. [] ([] (p -> p) -> ([] p -> [] p)) ; nec 1
""").ok


# -- timed rules ----------------------------------------------------------------

def test_e_rule():
    rep = check_text("logic: tK\n1. p -> p ; prop\n2. K@3 (p -> p) ; e 1 3\n")
    assert rep.ok and rep.final == Knows(3, parse_formula('p -> p'))
    rep = check_text("logic: tK\n1. p -> p ; prop\n2. K@3 (p -> q) ; e 1 3\n")
    assert 'conclusion is not K@3' in first_reason(rep)


def test_de_rule_times_must_increase():
    good = ("logic: tT\n1. p -> p ; prop\n"
            "2. K@1 (p -> p) -> K@3 K@1 (p -> p) ; de 1 1 3\n")
    assert check_text(good).ok
    rep = check_text(good.replace('de 1 1 3', 'de 1 3 1')
                     .replace('K@1 (p -> p) -> K@3 K@1 (p -> p)',
                              'K@3 (p -> p) -> K@1 K@3 (p -> p)'))
    assert 'times must increase' in first_reason(rep)


def test_reg_timed_reads_times_off_conclusion():
    rep = check_text("logic: tK\n1. (p & q) -> p ; prop\n"
                     "2. K@1 (p & q) -> K@2 p ; reg 1\n")
    assert rep.ok
    rep = check_text("logic: tK\n1. (p & q) -> p ; prop\n"
                     "2. K@2 (p & q) -> K@1 p ; reg 1\n")
    assert 'times must increase' in first_reason(rep)
    rep = check_text("logic: tK\n1. (p & q) -> p ; prop\n"
                     "2. K@1 (p & q) -> K@2 q ; reg 1\n")
    assert 'bodies differ' in first_reason(rep)


def test_reg_modal_shape():
    assert check_text("logic: GL\n1. (p & q) -> p ; prop\n"
                      "2. [] (p & q) -> [] p ; reg 1\n").ok


def test_admk_flags_and_premise_shape():
    rep = check_text("""
logic: tS4
premise k: K@1 p
1. K@1 p ; premise k
2. K@5 K@1 p ; admk 1 5
""")
    assert rep.ok
    assert 'admissible-knowledge rule used' in rep.flags
    # the cited facts must be knowledge from strictly earlier times
    rep = check_text("""
logic: tS4
premise h: p
1. p ; premise h
2. K@5 p ; admk 1 5
""")
    assert 'not knowledge earlier' in first_reason(rep)
    rep = check_text("""
logic: tS4
premise k: K@7 p
1. K@7 p ; premise k
2. K@5 K@7 p ; admk 1 5
""")
    assert 'not knowledge earlier' in first_reason(rep)


_TWO_BAD_PREMISES = """logic: tS4
premise a: p
premise b: q
1. p ; premise a
2. q ; premise b
3. p & q ; prop 1,2
4. K@5 (p & q) ; admk 3 5
"""


@pytest.mark.parametrize('seed', ['0', '1', '2', '3', '4', '5'])
def test_admk_names_the_first_declared_bad_premise(seed, tmp_path):
    # the premises of the cited steps are a set; the reason must not
    # depend on the hash seed that orders it
    path = tmp_path / 'admk.drv'
    path.write_text(_TWO_BAD_PREMISES)
    src = os.path.dirname(os.path.dirname(kernel.__file__))
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
    out = subprocess.run([sys.executable, '-m', 'justfix.cli', 'check',
                          str(path)], env=env, capture_output=True,
                         text=True)
    assert out.returncode == 1
    assert out.stdout.splitlines()[-1] == (
        'FAIL step 4: premise a is not knowledge earlier than K@5')


# -- fixed-point rules ----------------------------------------------------------

def test_fp_rule_requires_declared_operator():
    rep = check_text("logic: K(FP)\n1. fix(d) <-> ~[]fix(d) ; fp d\n")
    assert "no operator 'd'" in first_reason(rep)


def test_fp_rule_checks_stated_arguments():
    text = """
logic: K(FP)
fix d p (E) := E & ~[]p
1. fix(d; E1) <-> E1 & ~[]fix(d; E1) ; fp d; E1
"""
    assert check_text(text).ok
    rep = check_text(text.replace('; fp d; E1', '; fp d; E2'))
    assert 'stated arguments' in first_reason(rep)


def test_mu_closure_and_induction():
    assert check_text(
        "logic: K(mu)\n"
        "1. (q | mu p . (q | p)) <-> mu p . (q | p) ; mu-cl\n").ok
    rep = check_text("logic: K(mu)\n1. q <-> mu p . (q | p) ; mu-cl\n")
    assert 'not a closure instance' in first_reason(rep)
    assert check_text("logic: K(mu)\n1. (q | q) -> q ; prop\n"
                      "2. (mu p . (q | p)) -> q ; mu-ind 1\n").ok
    rep = check_text("logic: K(mu)\n1. (q | q) -> q ; prop\n"
                     "2. (mu p . (q | r)) -> q ; mu-ind 1\n")
    assert 'step 1 is not' in first_reason(rep)


# -- profiles and agents ---------------------------------------------------------

def test_profile_violations_fail_the_step():
    # the parser already refuses this, so drive the checker directly
    from justfix.kernel import Derivation, Step
    from justfix.syntax import FULL
    f = parse_formula('x : p -> x : p', FULL)
    d = Derivation('K', TOTAL, 'tcs', None, (), (),
                   (Step(1, f, 'prop', (), ()),))
    rep = check_derivation(d)
    assert 'not in language' in first_reason(rep)


def _built(logic, steps, premises=()):
    """A derivation built in code, as parse_derivation would refuse it."""
    profile = get_logic(logic).profile
    return kernel.Derivation(
        logic, TOTAL, 'tcs', None, (),
        tuple(kernel.Premise(n, parse_formula(f, profile))
              for n, f in premises),
        tuple(Step(i, parse_formula(f, profile), rule, refs, args)
              for i, f, rule, refs, args in steps))


@pytest.mark.parametrize('logic, steps, premises, bad, reason', [
    # a cycle: at the parent of this check it proved p under T
    ('T', [(1, '[]p', 'nec', (3,), ()), (2, '[]p -> p', 'ax', (), ('T',)),
           (3, 'p', 'mp', (1, 2), ())], (), 1, 'cites an unavailable step'),
    ('K', [(1, 'p -> p', 'prop', (), ()),
           (2, '[](p -> p)', 'nec', (2,), ())], (), 2,
     'cites an unavailable step'),
    ('K', [(1, 'p -> p', 'prop', (), ()),
           (2, '[](p -> p)', 'nec', (0,), ())], (), 2,
     'cites an unavailable step'),
    ('K', [(1, 'p', 'premise', (), ('h',)), (2, 'p', 'prop', (1, 3), ()),
           (3, 'p -> p', 'prop', (), ())], (('h', 'p'),), 2,
     'cites an unavailable step'),
    ('K', [(1, 'p -> p', 'prop', (), ()), (2, 'q', 'mp', (1, 3), ()),
           (3, '(p -> p) -> q', 'prop', (), ())], (), 2,
     'cites an unavailable step'),
    ('tS4', [(1, 'K@5 K@1 p', 'admk', (2,), (5,)),
             (2, 'K@1 p', 'premise', (), ('k',))], (('k', 'K@1 p'),), 1,
     'cites an unavailable step'),
    ('K', [(1, 'p -> p', 'prop', (), ()), (3, 'q -> q', 'prop', (), ()),
           (3, 'p', 'prop', (1,), ())], (), 2, 'out of sequence'),
    # refs or args that break the rule's grammar fail with its usage: at
    # the parent of this check, nine of these raised IndexError, fp's
    # raised ValueError and prop's was accepted
    ('K', [(1, 'p', 'premise', (), ('h',)), (2, 'p', 'mp', (1,), ())],
     (('h', 'p'),), 2, 'mp takes two step references'),
    ('K', [(1, 'p -> p', 'prop', (), ()), (2, '[](p -> p)', 'nec', (), ())],
     (), 2, 'nec takes one step reference'),
    ('K', [(1, 'p -> p', 'ax', (), ())], (), 1,
     'ax takes at most one schema id'),
    ('GLS', [(1, '[]p -> p', 'ax', (), ())], (), 1,
     'ax takes at most one schema id'),
    ('K', [(1, 'p -> p', 'premise', (), ())], (('h', 'p -> p'),), 1,
     'premise takes a name'),
    ('K', [(1, 'p -> p', 'prop', (), ('x',))], (), 1,
     'prop takes step references'),
    ('K(FP)', [(1, 'p -> p', 'fp', (), ('d',))], (), 1,
     'fp takes an operator name'),
    ('QLP', [(1, 'p -> p', 'prop', (), ()),
             (2, 'all x . (p -> p)', 'gen', (1,), ())], (), 2,
     'gen takes a step reference and a variable'),
    ('tS4', [(1, 'p -> p', 'prop', (), ()),
             (2, 'K@1 (p -> p)', 'e', (1,), ())], (), 2,
     'e takes a step reference and a time'),
    ('J', [(1, 'p -> p', 'prop', (), ()), (2, 'p -> p', 'inline', (1,), ())],
     (), 2, 'inline requires a transform name'),
    ('J', [(1, 'p -> p', 'prop', (), ()),
           (2, 'p -> p', 'inline', (), ('lift',))], (), 2,
     'inline lift takes one step reference'),
], ids=['cycle', 'self', 'zero', 'forward-prop', 'forward-mp',
        'forward-admk', 'out-of-sequence', 'mp-one-ref', 'nec-no-ref',
        'ax-no-args', 'gls-ax-no-args', 'premise-no-name', 'prop-with-arg',
        'fp-no-arguments', 'gen-no-var', 'e-no-time', 'inline-no-form',
        'lift-no-ref'])
def test_malformed_built_steps_fail_before_any_rule(logic, steps, premises,
                                                    bad, reason):
    rep = check_derivation(_built(logic, steps, premises))
    assert not rep.ok
    v = rep.verdicts[bad - 1]
    assert (v.ok, v.reason) == (False, reason)
    # the malformed step has no premises, whatever it cites
    assert rep.deps[bad] == frozenset()
    assert sorted(rep.deps) == list(range(1, len(steps) + 1))


def test_agent_labels_checked_against_header():
    rep = check_text("logic: QLP-_n\nagents: s\n"
                     "1. x :@t p -> x :@t p ; prop\n")
    assert "undeclared agent 't'" in first_reason(rep)
    # unlabelled evidence is already a grammar violation in multi-agent talk
    from justfix.syntax import ProfileError
    with pytest.raises(ProfileError):
        check_text("logic: QLP-_n\nagents: s\n"
                   "1. x : p -> x : p ; prop\n")
    assert check_text("logic: QLP-_n\nagents: s\n"
                      "1. x :@s p -> x :@s p ; prop\n").ok


def test_agent_label_refused_in_single_agent_logic():
    with pytest.raises(Exception):
        # :@ is not even in the single-agent grammar
        check_text("logic: LP\n1. x :@s p -> x :@s p ; prop\n")


def test_multi_agent_logic_requires_agents_header():
    with pytest.raises(DerivationError):
        check_text("logic: QLP-_n\n1. p -> p ; prop\n")


@pytest.mark.parametrize('logic', ['J', 'LP', 'QLP', 'QLP-', 'K', 'K(FP)'])
@pytest.mark.parametrize('agents', ['s', '2', 'a, b'])
def test_single_agent_logic_refuses_agents_header(logic, agents):
    # before, the header was accepted, and then no step with a
    # justification checked: each failed on a missing or a stray label
    for text in ("logic: %s\nagents: %s\n" % (logic, agents),
                 "agents: %s\nlogic: %s\n" % (agents, logic)):
        with pytest.raises(DerivationError) as e:
            parse_derivation(text + "1. p -> p ; prop\n")
        assert str(e.value) == ("logic %s is single-agent and takes no "
                                "agents header" % get_logic(logic).name)
    # an empty header declares no agent, and is still accepted
    assert parse_derivation("logic: %s\nagents:\n1. p -> p ; prop\n"
                            % logic).agents == ()


def test_unlabeled_step_of_a_built_multi_agent_derivation():
    # no file reaches this reason since the refusal above: the CLI reached
    # it by retargeting a single-agent file with an agents header
    from justfix.kernel import Derivation
    f = parse_formula('x : p -> x : p', FULL)
    d = Derivation('QLP-_n', TOTAL, 'tcs', ('s',), (), (),
                   (Step(1, f, 'prop', (), ()),))
    assert first_reason(check_derivation(d)) == 'missing agent label in qlp'


def test_agents_shorthand_count():
    d = parse_derivation("logic: QLP-_n\nagents: 3\n"
                         "1. x :@a2 p -> x :@a2 p ; prop\n")
    assert d.agents == ('a1', 'a2', 'a3')
    assert check_derivation(d).ok


# -- inline transform steps -------------------------------------------------------

def test_inline_lift_requires_premise_free_cone():
    rep = check_text("""
logic: JT(FP)
spec: tcs
premise h: p
1. p ; premise h
2. c#1 : p ; inline lift 1
""")
    assert 'depends on premises' in first_reason(rep)


def test_inline_lift_checks_stated_formula():
    rep = check_text("""
logic: LP
1. x : p -> x : p ; prop
2. c : q ; inline lift 1
""")
    assert 'lift of step 1 proves' in first_reason(rep)


def test_inline_subst():
    assert check_text("""
logic: LP
1. x : p -> x : p ; prop
2. c : p -> c : p ; inline subst 1 x := c
""").ok
    rep = check_text("""
logic: LP
1. x : p -> x : p ; prop
2. c : p -> d : p ; inline subst 1 x := c
""")
    assert 'substitution image' in first_reason(rep)


def test_inline_jd_requires_total_spec():
    rep = check_text("""
logic: JD
spec: empty
1. s : ~p -> ~ t : p ; inline jd
""")
    assert 'total specification' in first_reason(rep)
    assert check_text("""
logic: JD
spec: tcs
1. s : ~p -> ~ t : p ; inline jd
""").ok


def test_inline_internalize_upgrades_empty_spec():
    from justfix import transforms
    base = parse_derivation("logic: QLP\nspec: tcs\n1. x : p -> p ; ax jt\n")
    want = transforms.internalize_qlp(base).derivation.final
    rep = check_text("logic: QLP\nspec: empty\n1. x : p -> p ; ax jt\n"
                     "2. %s ; inline internalize 1\n" % print_formula(want))
    assert rep.ok
    assert 'internalized under the total specification' in rep.flags


# -- structural helpers -----------------------------------------------------------

def _branchy():
    return parse_derivation("""
logic: K
premise h: p
1. p ; premise h
2. q -> q ; prop
3. [] (q -> q) ; nec 2
4. p & [] (q -> q) ; prop 1 3
""")


def test_cone_derivation_prunes_unrelated_steps():
    d = _branchy()
    cone = cone_derivation(d, 3)
    assert [s.index for s in cone.steps] == [1, 2]
    assert cone.final == d.step(3).formula
    assert cone.premises == ()
    assert check_derivation(cone).ok


def test_cone_derivation_keeps_used_premises():
    d = _branchy()
    cone = cone_derivation(d, 4)
    assert len(cone.steps) == 4
    assert [p.name for p in cone.premises] == ['h']
    assert check_derivation(cone).ok


def test_elaborate_removes_inline_steps():
    d = load_derivation(os.path.join(CORPUS, 'jl-knower.drv'))
    flat = elaborate(d)
    assert all(s.rule != 'inline' for s in flat.steps)
    assert flat.final == d.final
    assert check_derivation(flat).ok
    plain = load_derivation(os.path.join(CORPUS, 'mu-trivial.drv'))
    assert elaborate(plain) is plain


@pytest.mark.parametrize('path', corpus_paths(),
                         ids=lambda p: os.path.basename(p)[:-4])
def test_elaborated_corpus_derivation_checks(path):
    # qlp-knower internalizes a cone under the empty specification, which
    # licenses none of the an steps its expansion holds
    d = load_derivation(path)
    flat = elaborate(d)
    assert flat.final == d.final
    rep = check_derivation(flat)
    assert rep.ok, format_report(rep)
    printed = parse_derivation(print_derivation(flat), base_dir=str(CORPUS))
    assert check_derivation(printed).ok


def test_elaborate_states_the_total_spec_an_internalization_reads():
    d = load_derivation(os.path.join(CORPUS, 'qlp-knower.drv'))
    assert d.spec.kind == 'empty'
    flat = elaborate(d)
    assert (flat.spec, flat.spec_src) == (TOTAL, 'tcs')
    assert 'spec:' not in print_derivation(flat)
    # without an inline internalize step the specification stays
    subst = parse_derivation("logic: QLP\nspec: empty\n\n"
                             "1. x : p -> p ; ax jt\n"
                             "2. y : p -> p ; inline subst 1 x := y\n")
    assert check_derivation(subst).ok
    assert (elaborate(subst).spec, elaborate(subst).spec_src) == \
        (subst.spec, 'empty')


# -- parse errors ------------------------------------------------------------------

@pytest.mark.parametrize('text,fragment', [
    ("1. p ; prop\n", 'before logic header'),
    ("logic: K\n2. p ; prop\n", 'out of sequence'),
    ("logic: K\n1. p\n", 'lacks a justification'),
    ("logic: K\n1. p ; mp 1 2\n", 'unavailable step'),
    ("logic: K\n1. p ; banana\n", 'unknown rule'),
    ("logic: K\n", 'no steps'),
    ("spec: file nowhere.spec\nlogic: LP\n1. p ; prop\n",
     'spec file before logic'),
    ("logic: K\nspec: banana\n1. p -> p ; prop\n", 'spec must be'),
    ("logic: K\nfix d p () := ~[]p\n1. p -> p ; prop\n",
     'no fixed-point extension'),
    ("logic: K(FP)\nfix d := ~[]p\n1. p -> p ; prop\n",
     'bad fix declaration'),
    ("logic: K\npremise h\n1. p -> p ; prop\n", 'premise needs'),
    ("banana\n", 'unrecognized line'),
    ("logic: K\n1. p -> p ; prop ; anything\n", "prop takes no ';' part"),
    ("logic: K\n1. p -> p ; prop\n2. [](p -> p) ; nec 1 ; so is this\n",
     "nec takes no ';' part"),
    # the line reader's dispatch: None marks a text that parses
    ("logic: K(FP)\nfix\td p () := []p\n1. p -> p ; prop\n",
     'unrecognized line'),
    ("logic: K\npremise\tk: p\n1. p ; premise k\n", 'unrecognized line'),
    ("logic:K\n1. p -> p ; prop\n", None),
    ("logic: K\ndomain r1\n1. p -> p ; prop\n", 'unrecognized line'),
    ("spec: file x.spec\nlogic: LP\n1. p -> p ; prop\n",
     'spec file before logic'),
])
def test_parse_errors(text, fragment, tmp_path):
    (tmp_path / 'x.spec').write_text('p -> p\n')
    if fragment is None:
        parse_derivation(text, str(tmp_path))
        return
    with pytest.raises(DerivationError) as e:
        parse_derivation(text, str(tmp_path))
    assert fragment in str(e.value)


def test_spec_file_skips_comments_and_blank_lines(tmp_path):
    (tmp_path / 'plain.spec').write_text('p -> p\nc : (q -> q)\n')
    (tmp_path / 'noted.spec').write_text(
        '# two axioms\n\np -> p  # the first\n   \nc : (q -> q)\n# end\n')
    profile = get_logic('LP').profile
    plain = parse_spec_file(str(tmp_path / 'plain.spec'), profile)
    assert len(plain.entries) == 2
    assert parse_spec_file(str(tmp_path / 'noted.spec'), profile) == plain


def test_unknown_logic_header():
    from justfix.registry import UnknownLogic
    with pytest.raises(UnknownLogic):
        parse_derivation("logic: banana\n1. p ; prop\n")


# -- reports -----------------------------------------------------------------------

def test_format_report_ok_line():
    rep = check_text("logic: K\n1. p -> p ; prop\n")
    assert format_report(rep) == 'OK: final = p -> p'


def test_format_report_lists_premises():
    rep = check_text("logic: K\npremise h: p\n1. p ; premise h\n")
    assert format_report(rep) == 'OK: final = p [premises: h]'


def test_format_report_failure_and_verbose():
    rep = check_text("logic: K\n1. p ; prop\n")
    out = format_report(rep)
    assert out.startswith('FAIL step 1:')
    verbose = format_report(rep, verbose=True)
    assert 'step 1: FAIL' in verbose


def test_format_report_carries_flags():
    rep = check_text("""
logic: tS4
premise k: K@1 p
1. K@1 p ; premise k
2. K@5 K@1 p ; admk 1 5
""")
    assert 'note: admissible-knowledge rule used' in format_report(rep)


# -- the inline-image memo ---------------------------------------------------------

def _lift_chain(depth, bad=0):
    """A prop step under `depth` nested `inline lift` steps, each stating
    the lift of the step below it; level `bad` states the lift of a
    different tautology.  Lifting a chain doubles its constants per level."""
    good, other = 'p -> q | p', 'p -> p | q'
    lines = ['logic: J', '', '1. %s ; prop' % good]
    for level in range(1, depth + 1):
        good = '(c#%d) : (%s)' % (2 ** (level - 1), good)
        other = '(c#%d) : (%s)' % (2 ** (level - 1), other)
        lines.append('%d. %s ; inline lift %d'
                     % (level + 1, other if level == bad else good, level))
    return parse_derivation('\n'.join(lines) + '\n')


def test_nested_inline_builds_each_image_once(monkeypatch):
    calls = {'check': 0, 'lift': 0}

    def counted(name, fn):
        def wrapper(d):
            calls[name] += 1
            return fn(d)
        return wrapper

    check = counted('check', kernel.check_derivation)
    monkeypatch.setattr(kernel, 'check_derivation', check)
    monkeypatch.setattr(transforms, 'check_derivation', check)
    monkeypatch.setattr(transforms, 'lift', counted('lift', transforms.lift))
    depth = 6
    assert kernel.check_derivation(_lift_chain(depth)).ok
    # re-deriving every level three times took 3 ** depth = 729 checks
    assert calls['check'] <= 2 * depth + 1
    assert calls['lift'] <= 3 * depth + 2


_MUTANT_REPORT = """\
step 1: ok
step 2: ok
step 3: FAIL  lift of step 2 proves c#2 : c#1 : (p -> q | p)
step 4: FAIL  inline lift failed: lift needs an accepted input derivation \
(step 3: lift of step 2 proves c#2 : c#1 : (p -> q | p))
step 5: FAIL  inline lift failed: lift needs an accepted input derivation \
(step 3: lift of step 2 proves c#2 : c#1 : (p -> q | p))
step 6: FAIL  inline lift failed: lift needs an accepted input derivation \
(step 3: lift of step 2 proves c#2 : c#1 : (p -> q | p))
FAIL step 3: lift of step 2 proves c#2 : c#1 : (p -> q | p)"""


def test_nested_inline_mutant_report_is_unchanged():
    rep = check_derivation(_lift_chain(5, bad=2))
    assert format_report(rep, verbose=True) == _MUTANT_REPORT


def test_inline_steps_over_one_cone_are_each_compared():
    rep = check_text("""
logic: J
1. p -> q | p ; prop
2. c#1 : (p -> q | p) ; inline lift 1
3. c#1 : (p -> p | q) ; inline lift 1
""")
    assert [v.ok for v in rep.verdicts] == [True, True, False]
    assert rep.verdicts[2].reason == 'lift of step 1 proves c#1 : (p -> q | p)'
    rep = check_text("""
logic: LP
1. x : p -> x : p ; prop
2. c : p -> c : p ; inline subst 1 x := c
3. d : p -> d : p ; inline subst 1 x := d
4. c : p -> c : p ; inline subst 1 x := d
""")
    assert [v.ok for v in rep.verdicts] == [True, True, True, False]
    assert rep.verdicts[3].reason == 'substitution image of step 1 is d : p -> d : p'


def test_image_memo_lives_for_one_call():
    d = _lift_chain(3)
    assert check_derivation(d).ok
    assert registry._DECISIONS is None
    assert elaborate(d).final == d.final
    assert registry._DECISIONS is None
    with pytest.raises(DerivationError):
        check_text("logic: QLP-_n\n1. p -> p ; prop\n")
    assert registry._DECISIONS is None


# -- one check per derivation and scope --------------------------------------------

def test_transform_lift_builds_each_image_once(monkeypatch, tmp_path, capsys):
    from justfix import cli
    for depth in (5, 7):
        path = tmp_path / ('chain%d.drv' % depth)
        path.write_text(print_derivation(_lift_chain(depth)))
        calls = []
        monkeypatch.setattr(transforms, 'lift', lambda d, fn=transforms.lift:
                            calls.append(d) or fn(d))
        assert cli.main(['transform', 'lift', str(path)]) == 0
        monkeypatch.undo()
        # the input's own check and its expansion opened a scope each and
        # built every image twice: 2 * depth + 1 lifts
        assert len(calls) <= depth + 1
    assert capsys.readouterr().out.startswith('# term: ')


def test_verdict_memo_checks_each_derivation_once(monkeypatch):
    checked = []

    def counted(c, *args, fn=kernel._check_step):
        checked.append(c.d)
        return fn(c, *args)

    monkeypatch.setattr(kernel, '_check_step', counted)
    d = _lift_chain(3)

    def steps_checked():
        n = sum(x is d for x in checked)
        checked.clear()
        return n

    with kernel.memo_scope():
        rep = check_derivation(d)
        assert rep.ok and steps_checked() == 4
        # a repeat resumes past every step: an equal report, no step check
        assert check_derivation(d) == rep and steps_checked() == 0
        assert transforms.lift(d).derivation.final.a == d.final
        assert steps_checked() == 0
    assert check_derivation(d).ok
    assert steps_checked() == 4       # a new scope checks anew


def test_mutated_copy_is_not_served_from_the_memo():
    d = _lift_chain(3)
    wrong = _lift_chain(3, bad=3).final
    with kernel.memo_scope():
        assert check_derivation(d).ok
        mutant = replace(
            d, steps=d.steps[:-1] + (replace(d.steps[-1], formula=wrong),))
        rep = check_derivation(mutant)
        assert [v.ok for v in rep.verdicts] == [True, True, True, False]
        assert not check_derivation(replace(d, logic_id='K')).ok
        assert check_derivation(d).ok
    assert registry._DECISIONS is None


def test_memo_scope_closes_when_its_body_raises():
    with pytest.raises(ZeroDivisionError):
        with kernel.memo_scope():
            assert check_derivation(_lift_chain(2)).ok
            with kernel.memo_scope():
                1 / 0
    assert registry._DECISIONS is None


def test_profile_error_wins_over_agent_error():
    from justfix.kernel import Derivation, Step
    from justfix.syntax import FULL
    for text in ('x :@t p -> []p', '[]p -> x :@t p'):
        f = parse_formula(text, FULL)
        d = Derivation('QLP-_n', TOTAL, 'tcs', ('s',), (), (),
                       (Step(1, f, 'prop', (), ()),))
        assert first_reason(check_derivation(d)) == \
            'Box not in language qlp'
    assert first_reason(check_text("logic: QLP-_n\nagents: s\n"
                                   "1. x :@t p -> x :@u p ; prop\n")) == \
        "undeclared agent 't'"


# -- the decision memo and the scope's BDD ---------------------------------------

def _count_axiom_matches(monkeypatch):
    """Count the match_axiom evaluations, which run only when the decision
    memo has no answer."""
    calls = {'axiom': 0}

    def counted(*args, fn=registry._first_match):
        calls['axiom'] += 1
        return fn(*args)

    monkeypatch.setattr(registry, '_first_match', counted)
    return calls


def test_nested_inline_decides_each_query_once(monkeypatch, bdd_work):
    calls = _count_axiom_matches(monkeypatch)
    d = _lift_chain(6)
    with kernel.memo_scope():
        assert check_derivation(d).ok
        misses, nodes = bdd_work.misses, bdd_work.nodes
        assert transforms.lift(d).derivation.final.a == d.final
        # the re-checks of the images ask again about the same formula
        # objects, which the scope's BDD has built: lookups only
        assert (bdd_work.misses, bdd_work.nodes) == (misses, nodes)
    # with no decision memo, the re-checks took 127 match_axiom evaluations
    assert calls['axiom'] <= 1


def test_content_equal_copy_is_decided_anew(monkeypatch, bdd_work):
    logic = get_logic('K')
    f, copy = (parse_formula('[](p -> q) -> ([]p -> []q)', logic.profile)
               for _ in range(2))
    p, q, r = (parse_formula(a, logic.profile) for a in 'pqr')
    assert f == copy and f is not copy
    calls = _count_axiom_matches(monkeypatch)
    for g in (f, f, copy):
        assert match_axiom(logic, g) == match_axiom(logic, f)
        assert not taut_consequence(g, [])
    # outside a scope, every call computes: a BDD per query, on which each
    # of the 5 formula objects of the query is built
    assert calls == {'axiom': 6}
    assert (len(bdd_work.tables), bdd_work.misses) == (3, 15)
    calls.update(axiom=0)
    with kernel.memo_scope():
        work = []
        for g in (f, f, copy, copy):
            misses, nodes = bdd_work.misses, bdd_work.nodes
            assert match_axiom(logic, g)[0] == 'K'
            assert not taut_consequence(g, [])
            work.append((bdd_work.misses - misses, bdd_work.nodes - nodes))
        assert calls == {'axiom': 2}
        # a repeat of f is lookups only; the copy's objects are built, but
        # the unique table gives them f's nodes
        assert work[1] == work[3] == (0, 0)
        assert work[0][0] == work[2][0] == 5 and work[2][1] == 0
        # the same goal object under another premise is another query,
        # which builds only the objects the scope has not seen: p, q and r
        misses = bdd_work.misses
        assert taut_consequence(q, [q]) and not taut_consequence(q, [r])
        assert taut_consequence(f, [f]) and not taut_consequence(f, [p])
        assert bdd_work.misses - misses == 3
        # and the same formula object under another logic
        t = parse_formula('[]p -> p', logic.profile)
        assert match_axiom(get_logic('T'), t)[0] == 'T'
        assert match_axiom(logic, t) is None


def test_get_logic_gives_one_spec_per_id_in_a_scope():
    assert get_logic('S4') is not get_logic('S4')
    with kernel.memo_scope():
        spec = get_logic('S4')
        assert get_logic('S4') is spec and spec.name == 'S4'
        assert get_logic('S4(FP)') is not spec
        for _ in range(2):
            with pytest.raises(UnknownLogic):
                get_logic('banana')


def _mutant(d, k, **changes):
    return replace(d, steps=tuple(
        replace(s, **changes) if s.index == k else s
        for s in d.steps))


@pytest.mark.parametrize('case', ['prop', 'ax', 'ax-as-prop'])
def test_mutated_step_fails_after_its_original_in_one_scope(case):
    d = load_derivation(os.path.join(CORPUS, 'ts4-bot.drv'))
    if case == 'prop':
        k = next(s.index for s in d.steps if s.rule == 'prop' and not s.refs)
        mutant = _mutant(d, k, formula=Neg(d.step(k).formula))
    else:
        # an ax step with no schema named, so match_axiom decides it
        k = next(s.index for s in d.steps
                 if s.rule == 'ax' and s.args[0] is None)
        mutant = (_mutant(d, k, formula=Neg(d.step(k).formula))
                  if case == 'ax' else _mutant(d, k, rule='prop', args=()))
    with kernel.memo_scope():
        assert check_derivation(d).ok
        report = format_report(check_derivation(mutant))
    assert report.startswith('FAIL step %d: ' % k)
    assert report == format_report(check_derivation(mutant))


def _decisions(d):
    logic = get_logic(d.logic_id)
    return [(match_axiom(logic, s.formula),
             taut_consequence(s.formula, [d.step(r).formula for r in s.refs]))
            for s in d.steps]


def test_decisions_agree_inside_and_outside_a_scope(corpus_derivations):
    for name, d in corpus_derivations.items():
        outside = _decisions(d)
        with kernel.memo_scope():
            assert _decisions(d) == outside, name      # fills the memo
            assert _decisions(d) == outside, name      # answered from it


# -- one profile pass per formula node -------------------------------------------

def test_ts4_bot_walks_each_formula_node_once(monkeypatch, counted_kinds):
    from justfix import corpus, syntax
    walks = []
    monkeypatch.setattr(syntax, '_raise_first_error',
                        lambda *args: walks.append(args))
    entry = next(e for e in corpus.MANIFEST if e.id == 'ts4-bot')
    assert entry.post == (('deduce',),)
    with kernel.memo_scope():
        d = load_derivation(os.path.join(CORPUS, entry.path))
        loaded = len(counted_kinds.computed)
        assert check_derivation(d).ok
        assert corpus._deduce_roundtrip(d) is None
    ids = [id(node) for node in counted_kinds.computed]
    # one walk per profile check visited 15,869 nodes in 97 checks: each
    # step at load, at its check and in the axiom matcher, and again in the
    # deduction images.  Parsing each formula apart built 3,108 nodes, each
    # computed once; one table per file builds the 140 distinct ones.  The
    # facts are set when a node is built, so every node built counts, once:
    # the images add 8 nodes of their own (148 also when only the nodes a
    # profile check met counted, 151 while e built the node it compares
    # with, and 149 while the round trip built the one it compares the
    # deduction's final step with)
    assert len(ids) == len(set(ids))
    assert (loaded, len(ids)) == (140, 148)
    assert walks == []


def test_corpus_pass_walks_only_where_labels_are_checked(monkeypatch):
    from justfix import corpus, syntax
    walks = collections.Counter()
    current = []

    def counted(*args, fn=syntax._raise_first_error):
        walks[current[-1]] += 1
        return fn(*args)

    monkeypatch.setattr(syntax, '_raise_first_error', counted)
    for e in corpus.MANIFEST:
        current.append(e.id)
        assert corpus.run_entry(e).ok
    # the kinds mask decides every check but the refused retarget of
    # qlp-knower and the agent checks of the one entry that declares
    # agents, which walk each formula with a justification to compare its
    # labels with them
    assert walks == {'qlp-knower': 2, 'qlp-blindspot': 12}


def _loaded_roots(d):
    """The formulas and terms a loaded derivation holds."""
    roots = [p.formula for p in d.premises] + [op.body for op in d.ops]
    for s in d.steps:
        roots.append(s.formula)
        for a in s.args:
            roots += a if isinstance(a, tuple) else [a]
    if d.spec.kind == 'explicit':
        roots += d.spec.entries
    return [r for r in roots if isinstance(r, (Formula, Term))]


@pytest.mark.parametrize('path', corpus_paths(),
                         ids=lambda p: os.path.basename(p)[:-4])
def test_loading_builds_each_distinct_node_once(path):
    nodes = node_objects(_loaded_roots(load_derivation(path)))
    assert len(nodes) == len(set(nodes))


# -- the rule table ------------------------------------------------------------

def _logic_ids():
    """Every logic id: each known logic (Sacchetti-2 for the template) with
    each suffix it takes."""
    ids = []
    for base in known_logics():
        base = 'Sacchetti-2' if base == 'Sacchetti-n' else base
        for suffix in ('', '(FP)', '(mu)', '(mu)(FP)'):
            try:
                get_logic(base + suffix)
            except UnknownLogic:
                continue
            ids.append(base + suffix)
    return ids


def test_every_rule_of_every_logic_has_a_row():
    ids = _logic_ids()
    assert len(ids) > len(known_logics()) + 10
    reached = set()
    for logic_id in ids:
        rules = get_logic(logic_id).rules
        assert rules <= set(RULES), logic_id
        reached |= rules
    assert reached == set(RULES)
    assert all(name == row.name for name, row in RULES.items())


# one justification per row and per inline form, in printed form
_SAMPLES = ('ax', 'ax jt', 'premise h', 'mp 1 2', 'prop', 'prop 1 2 3',
            'nec 1', 'reg 1', 'gen 1 x', 'qnec 1 x', 'ian', 'an', 'e 1 3',
            'de 1 2 3', 'admk 1 5', 'admk 1,2 5', 'fp d', 'fp d; p, q -> r',
            'mu-cl', 'mu-ind 1', 'inline lift 1', 'inline internalize 1',
            'inline subst 1 x := c * !y', 'inline jd')


def test_samples_cover_every_row_and_inline_form():
    assert {t.split()[0] for t in _SAMPLES} == set(RULES)
    assert {t.split()[1] for t in _SAMPLES if t.startswith('inline ')} == \
        set(RULES['inline'].forms)


@pytest.mark.parametrize('text', _SAMPLES)
def test_justification_round_trips(text):
    step = Step(9, Atom('p'), *_parse_justification(text, FULL))
    printed = _print_justification(step)
    assert printed == text
    assert Step(9, Atom('p'), *_parse_justification(printed, FULL)) == step
