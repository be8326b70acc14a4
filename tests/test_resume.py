"""Resumed folds: a check or an internalization that begins with the steps
of one made before in the same memo scope starts where they end
(kernel.resume).  Every report it gives must be the report a fresh scope
gives, and what it saves is gated by counters."""

import os

import pytest

from justfix import kernel, transforms
from justfix.kernel import (Step, check_derivation, cone_derivation,
                            load_derivation, memo_scope, parse_derivation)
from justfix.registry import EMPTY, TOTAL
from justfix.syntax import parse_formula, replace

from conftest import CORPUS, corpus_paths


@pytest.fixture
def step_checks(monkeypatch):
    """The derivation of each _check_step call so far, in order."""
    checked = []

    def counted(c, *args, fn=kernel._check_step):
        checked.append(c.d)
        return fn(c, *args)

    monkeypatch.setattr(kernel, '_check_step', counted)
    return checked


def check_after(first, second, step_checks):
    """The report on second from a scope that checked first before it,
    and how many steps of second itself that check checked."""
    with memo_scope():
        check_derivation(first)
        step_checks.clear()
        got = check_derivation(second)
    return got, sum(d is second for d in step_checks)


def fresh(d):
    """The report on d from a scope of its own, in which nothing was
    checked before, so no step of d resumes."""
    assert kernel.registry._DECISIONS is None
    return check_derivation(d)


def assert_same_report(got, want):
    assert got.verdicts == want.verdicts
    assert got.flags == want.flags
    assert got.deps == want.deps
    assert got.premises_used == want.premises_used
    assert got == want


def _prefixes_and_cones(d):
    n = len(d.steps)
    return ([replace(d, steps=d.steps[:k]) for k in range(1, n + 1)]
            + [cone_derivation(d, k) for k in range(1, n + 1)])


# -- shared and fresh scopes give the same reports -----------------------------

@pytest.mark.parametrize('path', corpus_paths(),
                         ids=lambda p: os.path.basename(p)[:-4])
def test_corpus_reports_match_a_fresh_scope(path, step_checks):
    d = load_derivation(path)
    parts = _prefixes_and_cones(d) + [d, kernel.elaborate(d)]
    with memo_scope():
        shared = [check_derivation(p) for p in parts]
    resumed = len(step_checks)
    step_checks.clear()
    for p, rep in zip(parts, shared):
        assert_same_report(rep, fresh(p))
    # each prefix resumes from the one before it
    assert resumed < len(step_checks)


def _transform_outputs():
    """(transform, corpus file, argument) for every deduction a corpus
    derivation takes, every lift of a justification derivation without
    induction steps, and every quantified internalization of a quantified
    derivation over the empty specification, read under the total one."""
    cases = []
    for path in corpus_paths():
        d = load_derivation(path)
        family = kernel.get_logic(d.logic_id).family
        cases += [('deduction', path, p.name) for p in d.premises]
        if family == 'jl' and all(s.rule != 'mu-ind' for s in d.steps):
            cases.append(('lift', path, None))
        if family == 'qlp' and d.spec.kind == 'empty':
            cases.append(('internalize_qlp', path, None))
    return cases


def _case_id(case):
    kind, path, arg = case
    return '-'.join([kind, os.path.basename(path)[:-4]] + [arg] * bool(arg))


@pytest.mark.parametrize('case', _transform_outputs(), ids=_case_id)
def test_transform_output_reports_match_a_fresh_scope(case):
    kind, path, arg = case
    d = load_derivation(path)

    def run():
        if kind == 'deduction':
            return transforms.deduction(d, arg)
        return getattr(transforms, kind)(
            replace(d, spec=TOTAL, spec_src='tcs')).derivation

    with memo_scope():
        out = run()
        # the transform's re-check of out, made in the scope it built out in
        parts = [out] + _prefixes_and_cones(out)
        shared = [check_derivation(p) for p in parts]
    # outside a scope no fold resumes, so each is built and checked whole
    assert run() == out
    for p, rep in zip(parts, shared):
        assert_same_report(rep, fresh(p))


# -- a fold resumes only as far as the steps match ------------------------------

_BASE = """logic: J
spec: tcs

1. p -> p | q ; prop
2. c : (p -> p | q) ; ian
3. c#1 : (p -> p | q) ; inline lift 1
4. (p -> p | q) -> (q -> q) ; prop
5. q -> q ; mp 1 4
6. c#2 : c#1 : (p -> p | q) ; inline lift 3
"""


def _with_step(d, k, text):
    """d with its step k restated as text (`<formula> ; <rule> [args]`),
    the steps before it the same objects."""
    formula, just = text.split(' ; ')
    profile = kernel.get_logic(d.logic_id).profile
    rule, refs, args = kernel._parse_justification(just, profile)
    return _with(d, Step(k, parse_formula(formula, profile), rule, refs,
                         args))


def _with(d, step):
    steps = list(d.steps)
    steps[step.index - 1] = step
    return replace(d, steps=tuple(steps))


@pytest.mark.parametrize('k, change', [
    (1, 'q -> q | p ; prop'),
    (2, 'c : (p -> q) ; ian'),
    (3, 'c#2 : (p -> p | q) ; inline lift 1'),
    (4, '(p -> p | q) -> (q -> p) ; prop'),
    (4, 'p -> p ; prop'),
    # the same formula object under another rule, or other arguments
    (1, lambda s: replace(s, rule='an')),
    (3, lambda s: replace(s, args=('internalize',))),
], ids=['cited-by-inline', 'ian', 'inline', 'prop-and-mp', 'mp', 'rule',
        'args'])
def test_a_changed_step_gets_its_own_verdict(k, change, step_checks):
    good = parse_derivation(_BASE)
    if isinstance(change, str):
        bad = _with_step(good, k, change)
    else:
        bad = _with(good, change(good.step(k)))
    for first, second in ((good, bad), (bad, good)):
        got, checked = check_after(first, second, step_checks)
        # the steps before k resume; k and every step after it are checked
        assert checked == len(second.steps) - k + 1
        assert_same_report(got, fresh(second))
    assert not fresh(bad).ok and fresh(good).ok


def test_a_fold_resumes_only_the_steps_it_finished():
    # lift stops at the induction step, so its fold stops before it
    d = load_derivation(os.path.join(CORPUS, 'mu-trivial.drv'))
    with pytest.raises(transforms.TransformError) as alone:
        transforms.lift(d)
    with memo_scope():
        for _ in range(2):
            with pytest.raises(transforms.TransformError) as shared:
                transforms.lift(d)
            assert str(shared.value) == str(alone.value)


def test_a_resumed_gls_check_keeps_what_reflection_proved(step_checks):
    # step 1 is the reflection axiom, so GLS may not necessitate it
    d = parse_derivation("logic: GLS\n\n1. []p -> p ; ax\n"
                         "2. []([]p -> p) ; nec 1\n")
    got, checked = check_after(replace(d, steps=d.steps[:1]), d, step_checks)
    assert checked == 1
    assert_same_report(got, fresh(d))
    assert 'uses reflection' in fresh(d).first_failure[1]


_HEADERS = [
    # (what changes, text, the changed copy)
    ('logic', "logic: T\n\n1. []p -> p ; ax\n2. p -> p ; prop\n",
     lambda d: replace(d, logic_id='K')),
    ('spec', "logic: J\n\n1. c : (p -> p | q) ; ian\n",
     lambda d: replace(d, spec=EMPTY, spec_src='empty')),
    ('premises', "logic: K\npremise h: p\n\n1. p ; premise h\n",
     lambda d: replace(d, premises=(kernel.Premise(
         'h', parse_formula('q', kernel.get_logic('K').profile)),))),
    ('agents', "logic: QLP_n\nagents: a1 a2\n\n1. x :@a2 p -> p ; ax jt\n",
     lambda d: replace(d, agents=('a1',))),
    ('ops', "logic: K(FP)\nfix d p () := ~[]p\n\n"
     "1. fix(d) <-> ~[]fix(d) ; fp d\n",
     lambda d: replace(d, ops=(kernel.parse_fix_decl(
         'fix d p () := ~[]~p', kernel.get_logic('K(FP)')),))),
]


@pytest.mark.parametrize('what, text, change', _HEADERS,
                         ids=[h[0] for h in _HEADERS])
def test_nothing_resumes_across_headers(what, text, change, step_checks):
    d = parse_derivation(text)
    other = change(d)
    assert other.steps is d.steps
    for first, second in ((d, other), (other, d)):
        got, checked = check_after(first, second, step_checks)
        assert checked == len(second.steps)
        assert_same_report(got, fresh(second))
    # the change changes a verdict, so a resumed check would show
    assert fresh(d).ok and not fresh(other).ok


def test_an_image_is_not_shared_across_specifications():
    d = parse_derivation("logic: J\n\n1. p -> p | q ; prop\n"
                         "2. c#1 : (p -> p | q) ; inline lift 1\n")
    # spec_src only names the specification in print
    other = replace(d, spec=EMPTY)
    for first, second in ((d, other), (other, d)):
        got, _ = check_after(first, second, [])
        assert_same_report(got, fresh(second))
    assert fresh(d).ok and not fresh(other).ok


def _elaborated(d):
    try:
        return kernel.elaborate(d)
    except transforms.TransformError as e:
        return str(e)


def test_an_image_is_keyed_by_the_premises_its_cone_names():
    # the check refuses step 2, which depends on a premise, but elaborate
    # builds its image: x#1 : p over the premise x#1 : p
    d = parse_derivation("logic: J\npremise h: p\n\n1. p ; premise h\n"
                         "2. x#1 : p ; inline lift 1\n")
    other = replace(d, premises=(kernel.Premise('h', parse_formula(
        'q', kernel.get_logic('J').profile)),))
    for first, second in ((d, other), (other, d)):
        with memo_scope():
            _elaborated(first)
            got = _elaborated(second)
        assert got == _elaborated(second)
    assert isinstance(_elaborated(other), str)


def test_an_internalization_resumes_only_under_the_same_premises():
    # a premise declared first takes the proof variable x#1
    d = parse_derivation("logic: J\npremise h: p\n\n1. p ; premise h\n"
                         "2. p | q ; prop 1\n")
    other = replace(d, premises=(kernel.Premise('k', parse_formula(
        'r', kernel.get_logic('J').profile)),) + d.premises)
    for first, second in ((d, other), (other, d)):
        with memo_scope():
            transforms.lift(first)
            got = transforms.lift(second)
        assert got == transforms.lift(second)


def _built(*steps):
    profile = kernel.get_logic('K').profile
    return kernel.Derivation('K', TOTAL, 'tcs', None, (), (),
                             tuple(Step(i, parse_formula(f, profile), r, refs)
                                   for i, f, r, refs in steps))


@pytest.mark.parametrize('d, k', [
    # step 2 cites step 3, which differs between the two copies
    (_built((1, 'p -> p', 'prop', ()), (2, '[]q', 'nec', (3,)),
            (3, 'q', 'prop', ())), 2),
    # step 2 stands at position 2 but is numbered 3
    (_built((1, 'p -> p', 'prop', ()), (3, 'q -> q', 'prop', ()),
            (2, 'p', 'prop', (1,))), 2),
    # step 2 cites itself
    (_built((1, 'p -> p', 'prop', ()), (2, '[](p -> p)', 'nec', (2,)),
            (3, 'q -> q', 'prop', ())), 2),
], ids=['forward-ref', 'out-of-sequence', 'self-ref'])
def test_built_steps_out_of_order_are_checked_from_there(d, k, step_checks):
    profile = kernel.get_logic('K').profile
    last = d.steps[-1]
    other = replace(d, steps=d.steps[:-1] + (
        replace(last, formula=parse_formula('r', profile)),))
    for first, second in ((d, other), (other, d)):
        got, checked = check_after(first, second, step_checks)
        assert checked == len(second.steps) - k + 1
        assert_same_report(got, fresh(second))


def test_a_repeat_check_of_the_same_object_checks_no_step(step_checks):
    # the same object is the same input under the same header, so even a
    # step that cites a later one resumes
    d = _built((1, 'p -> p', 'prop', ()), (2, '[](q -> q)', 'nec', (3,)),
               (3, 'q -> q', 'prop', ()))
    with memo_scope():
        first = check_derivation(d)
        step_checks.clear()
        again = check_derivation(d)
    assert not step_checks
    assert again == first
    assert_same_report(again, fresh(d))


def test_no_fold_is_registered_outside_a_scope():
    assert kernel.resume('check', parse_derivation(_BASE), ([],)) == (0, None)


# -- what resuming saves ----------------------------------------------------------

# the terms nested inline lift and internalize steps state over a
# premise-free prop step, level by level
_LIFT_TERMS = ('c#1', 'c#2', 'c#4', 'c#8', 'c#16', 'c#32')
_INTERNALIZE_TERMS = ('f#1', '!f#1', 'f#2 * !f#1',
                      'f#6 * !f#2 * (f#5 * !f#1)')


def inline_chain(header, form, terms):
    """Step 1 a tautology, step k + 1 the inline form of step k."""
    body = 'p -> p | q'
    lines = [header, '', '1. %s ; prop' % body]
    for k, t in enumerate(terms, 1):
        body = '(%s) : (%s)' % (t, body)
        lines.append('%d. %s ; inline %s %d' % (k + 1, body, form, k))
    return '\n'.join(lines) + '\n'


@pytest.mark.parametrize('header, form, terms, most_checks, most_adds', [
    # checking each image whole took 91 step checks and 63 steps built
    ('logic: J\nspec: tcs', 'lift', _LIFT_TERMS, 39, 32),
    # 107 step checks and 86 steps built
    ('logic: QLP-\nspec: empty', 'internalize', _INTERNALIZE_TERMS, 57, 48),
], ids=['lift-d6', 'internalize-d4'])
def test_nested_inline_chain_work(header, form, terms, most_checks,
                                  most_adds, step_checks, monkeypatch):
    adds = [0]

    def add(self, *args, fn=transforms._Build.add, **kwargs):
        adds[0] += 1
        return fn(self, *args, **kwargs)

    monkeypatch.setattr(transforms._Build, 'add', add)
    rep = check_derivation(parse_derivation(inline_chain(header, form,
                                                         terms)))
    assert rep.ok
    # each image is built and checked anew only past the image of the
    # level below, which it begins with
    assert len(step_checks) <= most_checks
    assert adds[0] <= most_adds
