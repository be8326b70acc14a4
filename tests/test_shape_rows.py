"""The rows of the shape rules against the checks they replaced.

nec, reg (with its timed branch), gen, qnec, e and de were hand-written
functions that compared node fields; their RULES rows now hold patterns
and named side conditions, which kernel._shaped runs.  The functions are
kept below verbatim as the reference.  With each rule's row swapped for
its function, check_derivation must give every step the same verdict:
the same ok, the same reason and the same notes.  The inputs are every
corpus step; one-step mutants of each step of these rules, in the corpus
and in a few derivations written here; and hypothesis-drawn steps of
each rule: wrong node kinds, swapped and equal times, labelled agents, a
free variable and GLS steps that cite reflection.  Where two tests of a
row fail, the first one's reason wins, as the reference's order of
checks had it.
"""

import contextlib
import os

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from justfix.kernel import (RULES, Derivation, Step, check_derivation,
                            load_derivation, memo_scope, parse_derivation)
from justfix.registry import TOTAL
from justfix.syntax import (Atom, Box, Exists, Forall, Imp, Just, Knows, Neg,
                            Var, free_vars, replace)

from conftest import corpus_paths


# -- the replaced checks, verbatim --------------------------------------------

def _nec(c, s, ref):
    if c.gl is not None and not c.gl.get(s.refs[0], False):
        return ("necessitation in GLS requires a provability-law step, "
                "step %d uses reflection" % s.refs[0])
    f = s.formula
    if type(f) is not Box or (f.a,) != (ref[0],):
        return "conclusion is not [] of step %d" % s.refs[0]


def _gen(c, s, ref):
    x, f = s.args[0], s.formula
    if type(f) is not Forall or (f.var, f.a) != (x, ref[0]):
        return "conclusion is not all %s of step %d" % (x, s.refs[0])


def _qnec(c, s, ref):
    x, f = s.args[0], s.formula
    if x in free_vars(ref[0]):
        return "%s is free in step %d" % (x, s.refs[0])
    j = f.a if type(f) is Exists and f.var == x else None
    if type(j) is not Just or type(j.t) is not Var or j.t.name != x \
            or (j.a,) != (ref[0],):
        return "conclusion is not ex %s . %s : A" % (x, x)


def _e(c, s, ref):
    t = s.args[0]
    if t < 0:
        return "negative time"
    f = s.formula
    if type(f) is not Knows or (f.time, f.a) != (t, ref[0]):
        return "conclusion is not K@%d of step %d" % (t, s.refs[0])


def _de(c, s, ref):
    t1, t2 = s.args
    if not t1 < t2:
        return "times must increase"
    f = s.formula
    if not (type(f) is Imp and type(f.a) is Knows and type(f.b) is Knows
            and (f.a.time, f.a.a) == (t1, ref[0])
            and (f.b.time, f.b.a) == (t2, f.a)):
        return "conclusion shape mismatch"


def _reg(c, s, ref):
    f = s.formula
    if not isinstance(ref[0], Imp):
        return "step %d is not an implication" % s.refs[0]
    a, b = ref[0].a, ref[0].b
    if c.logic.family == 'tmel':
        if not (isinstance(f, Imp) and isinstance(f.a, Knows)
                and isinstance(f.b, Knows)):
            return "conclusion must relate two knowledge times"
        if f.a.a != a or f.b.a != b:
            return "conclusion bodies differ from step %d" % s.refs[0]
        if not f.a.time < f.b.time:
            return "times must increase"
        return None
    if c.gl is not None and not c.gl.get(s.refs[0], False):
        return ("regularity in GLS requires a provability-law step, "
                "step %d uses reflection" % s.refs[0])
    if not (type(f) is Imp and type(f.a) is Box and type(f.b) is Box
            and (f.a.a, f.b.a) == (a, b)):
        return "conclusion is not []A -> []B for step %d" % s.refs[0]


_REFERENCE = {'nec': _nec, 'reg': _reg, 'gen': _gen, 'qnec': _qnec,
              'e': _e, 'de': _de}


# -- the comparison -----------------------------------------------------------

@contextlib.contextmanager
def _reference_checks():
    """RULES with each shape rule's row checked by its replaced function."""
    rows = {name: RULES[name] for name in _REFERENCE}
    try:
        for name, fn in _REFERENCE.items():
            RULES[name] = replace(rows[name], check=fn)
        yield
    finally:
        RULES.update(rows)


def _verdicts(ds: list) -> list:
    """(ok, reason, notes) of every step of each of ds, checked in one
    scope, so that each resumes the steps it shares with one before."""
    with memo_scope():
        return [[(v.ok, v.reason, v.flags)
                 for v in check_derivation(d).verdicts] for d in ds]


def _agree(ds: list) -> list:
    """The verdicts of ds, after asserting that the rows give the same as
    the replaced checks."""
    rows = _verdicts(ds)
    with _reference_checks():
        reference = _verdicts(ds)
    for d, mine, theirs in zip(ds, rows, reference):
        assert mine == theirs, d
    return rows


def test_the_reference_replaces_exactly_the_shape_rows():
    assert {name for name, row in RULES.items()
            if type(row.check) is dict} == set(_REFERENCE)
    with _reference_checks():
        assert all(RULES[name].check is fn
                   for name, fn in _REFERENCE.items())
    # and the rows are back
    assert all(type(RULES[name].check) is dict for name in _REFERENCE)


# -- the corpus and one-step mutants ------------------------------------------

_CORPUS = {os.path.basename(p)[:-4]: load_derivation(p)
           for p in corpus_paths()}


def test_every_corpus_step_agrees():
    rows = _agree(list(_CORPUS.values()))
    assert all(ok for verdicts in rows for ok, _, _ in verdicts)
    used = {s.rule for d in _CORPUS.values() for s in d.steps}
    # no corpus file has a de step; the mutants and the drawn steps do
    assert used & set(_REFERENCE) == set(_REFERENCE) - {'de'}


def _near(f, depth: int) -> list:
    """Formulas one change away from f, at f or at a node at most depth
    levels below it: a node negated or replaced by an atom, a time moved,
    a bound variable renamed, a term or an agent label changed, or the
    two sides of an implication swapped."""
    kind = type(f)
    out = [Neg(f), Atom('zz')]
    if kind is Knows:
        out += [Knows(f.time + 1, f.a), Knows(f.time - 1, f.a)]
    elif kind in (Forall, Exists):
        out.append(kind('zz', f.a))
    elif kind is Just:
        out += [Just(Var('zz'), f.agent, f.a), Just(f.t, 'zz', f.a)]
    elif kind is Imp:
        out.append(Imp(f.b, f.a))
    if depth:
        kids = f.children()
        for k, kid in enumerate(kids):
            out += [f.rebuild(kids[:k] + (g,) + kids[k + 1:])
                    for g in _near(kid, depth - 1)]
    return out


def _step_mutants(d: Derivation, s: Step) -> list:
    """Derivations that end in one change to step s of d: its formula, an
    arg or the step it cites."""
    args = []
    for k, a in enumerate(s.args):
        new = [a - 1, a + 1, -1] if type(a) is int else ['zz', 'y']
        args += [s.args[:k] + (b,) + s.args[k + 1:] for b in new]
    if len(s.args) == 2:
        args.append(s.args[::-1])
    steps = [replace(s, formula=f) for f in _near(s.formula, 3)]
    steps += [replace(s, args=a) for a in args]
    steps += [replace(s, refs=(r,)) for r in range(1, s.index)
              if (r,) != s.refs]
    return [replace(d, steps=d.steps[:s.index - 1] + (t,)) for t in steps]


# steps the corpus has none of: a de step, nec and reg in GLS, where a
# step may cite reflection, and qnec over a labelled justification
_EXTRA = {
    'de': """logic: tS4
1. p -> p ; prop
2. K@1 (p -> p) -> K@3 K@1 (p -> p) ; de 1 1 3
""",
    'gls': """logic: GLS
1. [] p -> p ; ax T
2. [] (p -> p) -> ([] p -> [] p) ; ax K
3. [] ([] (p -> p) -> ([] p -> [] p)) ; nec 2
4. p & q -> p ; prop
5. [] (p & q) -> [] p ; reg 4
""",
    'qnec-agents': """logic: QLP_n
agents: a1 a2
1. p -> p ; prop
2. ex x . x :@a2 (p -> p) ; qnec 1 x
""",
}
_MUTATED = {**{name: d for name, d in _CORPUS.items()
               if any(s.rule in _REFERENCE for s in d.steps)},
            **{name: parse_derivation(text) for name, text in _EXTRA.items()}}


@pytest.mark.parametrize('name', _MUTATED)
def test_one_step_mutants_of_shape_steps_agree(name):
    d = _MUTATED[name]
    assert check_derivation(d).ok
    mutants = [m for s in d.steps if s.rule in _REFERENCE
               for m in _step_mutants(d, s)]
    rows = _agree(mutants)
    assert not all(verdicts[-1][0] for verdicts in rows)


# -- drawn steps --------------------------------------------------------------

_TIMES = st.integers(-1, 3)
_NAMES = st.sampled_from(['x', 'y'])


def _formulas(leaves, *wrap):
    """Formulas over leaves with Neg, Imp and each of wrap, a strategy of
    one formula that gives another."""
    return st.recursive(leaves, lambda inner: st.one_of(
        st.builds(Neg, inner), st.builds(Imp, inner, inner),
        *(w(inner) for w in wrap)), max_leaves=4)


_ATOMS = st.sampled_from([Atom('p'), Atom('q')])
_MODAL = _formulas(_ATOMS, lambda f: st.builds(Box, f))
_TIMED = _formulas(_ATOMS, lambda f: st.builds(Knows, _TIMES, f))


def _qlp(agents):
    return _formulas(_ATOMS, lambda f: st.builds(
        Just, st.builds(Var, _NAMES), agents, f),
        lambda f: st.builds(Forall, _NAMES, f),
        lambda f: st.builds(Exists, _NAMES, f))


def _two_steps(logic: str, first: Step, second: Step, agents=None):
    return Derivation(logic, TOTAL, 'tcs', agents, (), (), (first, second))


def _conclusion(draw, formulas, right):
    """The conclusion the rule would draw, one change away from it, or any
    formula, each over formulas."""
    kind = draw(st.sampled_from(['right', 'near', 'any']))
    if kind == 'any':
        return draw(formulas)
    if kind == 'near':
        return draw(st.sampled_from(_near(right, 3)))
    return right


@st.composite
def _modal_steps(draw):
    logic = draw(st.sampled_from(['K', 'GL', 'GLS']))
    a = draw(_MODAL)
    # in GLS, a T instance is a reflection step: nec and reg may not cite it
    first = draw(st.sampled_from([Step(1, a, 'prop'),
                                  Step(1, Imp(Box(a), a), 'ax', (), ('T',)),
                                  Step(1, Imp(Box(a), a), 'ax', (), (None,))]))
    a = first.formula
    rule = draw(st.sampled_from(['nec', 'reg']))
    right = Box(a) if rule == 'nec' else (
        Imp(Box(a.a), Box(a.b)) if type(a) is Imp else Imp(Box(a), Box(a)))
    c = _conclusion(draw, _MODAL, right)
    return _two_steps(logic, first, Step(2, c, rule, (1,)))


@st.composite
def _timed_steps(draw):
    logic = draw(st.sampled_from(['tK', 'tS4']))
    a = draw(_TIMED)
    t1, t2 = draw(_TIMES), draw(_TIMES)
    rule = draw(st.sampled_from(['e', 'de', 'reg']))
    if rule == 'e':
        right, args = Knows(t1, a), (t1,)
    elif rule == 'de':
        right, args = Imp(Knows(t1, a), Knows(t2, Knows(t1, a))), (t1, t2)
    else:
        a0, a1 = (a.a, a.b) if type(a) is Imp else (a, a)
        right, args = Imp(Knows(t1, a0), Knows(t2, a1)), ()
    c = _conclusion(draw, _TIMED, right)
    return _two_steps(logic, Step(1, a, 'prop'), Step(2, c, rule, (1,), args))


@st.composite
def _qlp_steps(draw):
    # QLP_n declares the agents a1 and a2, and its terms must carry one
    agents = draw(st.sampled_from([None, ('a1', 'a2')]))
    labels = st.just(None) if agents is None else st.sampled_from(agents)
    formulas = _qlp(labels)
    a = draw(formulas)
    x = draw(_NAMES)
    rule = draw(st.sampled_from(['gen', 'qnec']))
    right = Forall(x, a) if rule == 'gen' else Exists(
        x, Just(Var(x), draw(labels), a))
    c = _conclusion(draw, formulas, right)
    return _two_steps('QLP_n' if agents else 'QLP', Step(1, a, 'prop'),
                      Step(2, c, rule, (1,), (x,)), agents)


# where two tests of a row fail, the last step gets the first one's reason
_BOTH_FAIL = {
    'nec-law-and-shape': ("""logic: GLS
1. [] p -> p ; ax T
2. p ; nec 1
""", "necessitation in GLS requires a provability-law step, step 1 uses "
     "reflection"),
    'reg-law-and-shape': ("""logic: GLS
1. [] p -> p ; ax T
2. p ; reg 1
""", "regularity in GLS requires a provability-law step, step 1 uses "
     "reflection"),
    'reg-implication-and-law': ("""logic: GLS
1. [] p -> p ; ax T
2. ([] p -> p) | q ; prop 1
3. p ; reg 2
""", "step 2 is not an implication"),
    'reg-timed-implication-and-shape': ("""logic: tK
1. p ; prop
2. p ; reg 1
""", "step 1 is not an implication"),
    'reg-timed-shape-and-times': ("""logic: tK
1. p -> q ; prop
2. K@2 p -> q ; reg 1
""", "conclusion must relate two knowledge times"),
    'reg-timed-bodies-and-times': ("""logic: tK
1. p -> q ; prop
2. K@2 q -> K@1 p ; reg 1
""", "conclusion bodies differ from step 1"),
    'e-time-and-shape': ("""logic: tK
1. p ; prop
2. K@1 q ; e 1 -1
""", "negative time"),
    'de-times-and-shape': ("""logic: tK
1. p ; prop
2. K@1 q ; de 1 2 2
""", "times must increase"),
    'qnec-free-and-shape': ("""logic: QLP
1. x : p ; prop
2. all x . q ; qnec 1 x
""", "x is free in step 1"),
}


@pytest.mark.parametrize('name', _BOTH_FAIL)
def test_the_first_failing_test_gives_the_reason(name):
    text, reason = _BOTH_FAIL[name]
    assert _agree([parse_derivation(text)])[0][-1] == (False, reason, ())


@settings(max_examples=300, deadline=None)
@given(st.one_of(_modal_steps(), _timed_steps(), _qlp_steps()))
@example(parse_derivation("logic: tK\n1. p ; prop\n2. K@2 p ; e 1 3\n"))
@example(parse_derivation("logic: tK\n1. p ; prop\n"
                          "2. K@1 p -> K@1 K@1 p ; de 1 1 1\n"))
@example(parse_derivation("logic: tK\n1. p ; prop\n"
                          "2. K@1 p -> K@2 K@1 p ; de 1 1 3\n"))
def test_drawn_steps_agree(d):
    _agree([d])
