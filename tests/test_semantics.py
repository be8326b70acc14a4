"""Single-world models: denotation, forcing, closure conditions, files."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from justfix.registry import TOTAL, Spec, get_logic
from justfix.semantics import (EvEntry, MModel, ModelError,
                               check_evidence_conditions, check_model,
                               denote, force, in_evidence, is_valid,
                               load_model, parse_model)
from justfix.syntax import (And, App, Atom, Bang, Const, Exists, FixApp,
                            Forall, Imp, Just, Knows, Neg, Or, Prim, TSum,
                            UAll, Var, free_vars, parse_formula,
                            print_formula, uall_vars)

from conftest import corpus_paths, node_objects, qlp_formulas, qlp_terms

QLP = get_logic('QLP').profile
P = lambda s: parse_formula(s, QLP)


def model(domain=('r1', 'r2'), interp=None, evidence=(), truth=None,
          default=False, logic_id='QLP-', spec=None, agents=None,
          claims=()):
    m = MModel(tuple(domain), interp or {}, tuple(evidence),
               dict(truth or {}), default, logic_id,
               spec if spec is not None else __import__(
                   'justfix.registry', fromlist=['EMPTY']).EMPTY,
               'empty', agents, tuple(claims))
    return m


def ev(reason, formula, agent=None, cond=()):
    return EvEntry(agent, reason, tuple(sorted(cond)), formula)


# -- denotation -----------------------------------------------------------------

def test_denote_variables_and_defaults():
    m = model()
    assert denote(m, Var('x'), {'x': 'r2'}) == 'r2'
    assert denote(m, Var('x'), {}) == 'r1'        # first element is default


def test_denote_prims_and_operations():
    m = model(interp={
        ('prim', 'c'): {(): 'r2'},
        ('prim', 'f'): {('r1',): 'r2', 'default': 'r1'},
        ('app',): {('r2', 'r2'): 'r1', 'default': 'r2'},
        ('bang',): {'default': 'r2'},
    })
    assert denote(m, Const('c'), {}) == 'r2'
    assert denote(m, Prim('f', ('x',)), {'x': 'r1'}) == 'r2'
    assert denote(m, Prim('f', ('x',)), {'x': 'r2'}) == 'r1'
    assert denote(m, App(Const('c'), Const('c')), {}) == 'r1'
    assert denote(m, Bang(Var('x')), {}) == 'r2'
    # missing table falls back to the first domain element
    assert denote(m, TSum(Var('x'), Var('y')), {}) == 'r1'


def test_denote_uall_reads_the_bound_variable():
    m = model(interp={('uall',): {('r1', 'r2'): 'r2', 'default': 'r1'}})
    t = UAll(Var('u'), 'x')
    assert denote(m, t, {'u': 'r1', 'x': 'r2'}) == 'r2'
    assert denote(m, t, {'u': 'r1', 'x': 'r1'}) == 'r1'


def test_denote_rejects_query_operators():
    from justfix.syntax import Quest
    with pytest.raises(ModelError):
        denote(model(), Quest(Var('x')), {})


# -- forcing ----------------------------------------------------------------------

def test_force_atoms_and_default():
    m = model(truth={'p': True}, default=False)
    assert force(m, Atom('p'), {})
    assert not force(m, Atom('q'), {})
    assert force(model(default=True), Atom('q'), {})


def test_force_fixapp_keyed_by_printed_form():
    f = FixApp('d', (Atom('E'),))
    m = model(truth={print_formula(f): True})
    assert force(m, f, {})
    assert not force(m, FixApp('d', (Atom('F'),)), {})


def test_force_justification_needs_evidence_and_truth():
    p = Atom('p')
    with_ev = model(evidence=[ev('r1', p)], truth={'p': True})
    assert force(with_ev, Just(Var('x'), None, p), {'x': 'r1'})
    assert not force(with_ev, Just(Var('x'), None, p), {'x': 'r2'})
    no_truth = model(evidence=[ev('r1', p)], truth={'p': False})
    assert not force(no_truth, Just(Var('x'), None, p), {'x': 'r1'})
    no_ev = model(truth={'p': True})
    assert not force(no_ev, Just(Var('x'), None, p), {'x': 'r1'})


def test_force_conditional_evidence():
    p = Atom('p')
    m = model(evidence=[ev('r1', p, cond=(('x', 'r2'),))],
              truth={'p': True})
    assert in_evidence(m, None, 'r1', {'x': 'r2'}, p)
    assert not in_evidence(m, None, 'r1', {'x': 'r1'}, p)
    assert force(m, Just(Var('y'), None, p), {'y': 'r1', 'x': 'r2'})
    assert not force(m, Just(Var('y'), None, p), {'y': 'r1', 'x': 'r1'})


def test_force_agents_are_separate():
    p = Atom('p')
    m = model(evidence=[ev('r1', p, agent='s')], truth={'p': True},
              agents=('s', 't'))
    assert force(m, Just(Var('x'), 's', p), {'x': 'r1'})
    assert not force(m, Just(Var('x'), 't', p), {'x': 'r1'})


def test_force_quantifiers_range_over_domain():
    p = Atom('p')
    m = model(evidence=[ev('r2', p)], truth={'p': True})
    assert force(m, Exists('x', Just(Var('x'), None, p)), {})
    assert not force(m, Forall('x', Just(Var('x'), None, p)), {})


def test_force_undefined_on_timed_talk():
    with pytest.raises(ModelError):
        force(model(), Knows(1, Atom('p')), {})


def test_is_valid_enumerates_verifier_bound_variables():
    # the uniform verifier denotes differently under different x, even
    # where x is not free, so validity must quantify over it
    p = Atom('p')
    m = model(interp={('prim', 'g'): {'default': 'r1'},
                      ('uall',): {('r1', 'r1'): 'r1', ('r1', 'r2'): 'r2'}},
              evidence=[ev('r1', p)], truth={'p': True}, logic_id='QLP')
    f = Just(UAll(Prim('g', ()), 'x'), None, p)
    assert force(m, f, {})                 # x defaults to r1
    assert not is_valid(m, f)              # x = r2 breaks it


# -- semantic invariants -----------------------------------------------------------

_POOL = [Atom('p'), Atom('q'), Imp(Atom('p'), Atom('q')),
         Just(Var('x'), None, Atom('p')), Forall('x', Atom('p'))]


def _seeded(n, flip, cond):
    """Deterministic model family: domain size n, cyclically shifted
    operation tables, evidence over _POOL."""
    domain = tuple('r%d' % (k + 1) for k in range(n))
    pick = domain[flip % n]
    tbl = {'default': pick}
    interp = {('app',): dict(tbl), ('sum',): dict(tbl), ('bang',): dict(tbl),
              ('uall',): dict(tbl),
              ('prim', 'f'): dict(tbl), ('prim', 'g'): dict(tbl)}
    entries = [ev(domain[k % n], _POOL[k],
                  cond=((('x', domain[0]),) if cond and k == 0 else ()))
               for k in range(len(_POOL))]
    truth = {a: bool((k + flip) % 2)
             for k, a in enumerate(('p', 'q', 'r', 'E1', 'E2'))}
    return model(domain, interp, entries, truth, bool(flip % 2), 'QLP-')


_MODELS = [_seeded(n, flip, cond)
           for n in (1, 2, 3) for flip in (0, 1) for cond in (False, True)]


@st.composite
def models(draw, logic_id='QLP-'):
    n = draw(st.integers(min_value=1, max_value=3))
    domain = tuple('r%d' % (k + 1) for k in range(n))
    tbl = lambda: {'default': draw(st.sampled_from(domain))}
    interp = {('app',): tbl(), ('sum',): tbl(), ('bang',): tbl(),
              ('uall',): tbl(),
              ('prim', 'f'): tbl(), ('prim', 'g'): tbl()}
    entries = draw(st.lists(
        st.builds(lambda r, f, c: ev(r, f, cond=c),
                  st.sampled_from(domain), st.sampled_from(_POOL),
                  st.sampled_from([(), (('x', domain[0]),)])),
        max_size=4))
    bits = draw(st.integers(min_value=0, max_value=63))
    truth = {a: bool(bits >> k & 1)
             for k, a in enumerate(('p', 'q', 'r', 'E1', 'E2'))}
    return model(domain, interp, entries, truth, bool(bits >> 5 & 1),
                 logic_id)


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(_MODELS), qlp_formulas(max_leaves=5),
       st.sampled_from(['x', 'y']), st.integers(min_value=1, max_value=3))
def test_forcing_depends_only_on_free_variables(m, f, junk, k):
    # the model's own entry conditions read the valuation too, so those
    # variables count as free parameters of the model
    relevant = free_vars(f) | uall_vars(f)
    relevant |= {x for e in m.evidence for x, _ in e.cond}
    v1 = {n: m.domain[0] for n in relevant}
    v2 = dict(v1)
    if junk not in relevant:
        v2[junk] = m.domain[k % len(m.domain)]
    v2['zz#unused'] = m.domain[-1]
    assert force(m, f, v1) == force(m, f, v2)


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(_MODELS), qlp_terms, qlp_formulas(max_leaves=4))
def test_forcing_is_factive(m, t, a):
    f = Just(t, None, a)
    for v in _all_valuations(m, free_vars(f) | uall_vars(f)):
        if force(m, f, v):
            assert force(m, a, v)


@settings(max_examples=500, deadline=None)
@given(st.integers(min_value=1, max_value=3), qlp_terms,
       qlp_formulas(max_leaves=4), st.booleans())
def test_empty_evidence_forces_no_justification(n, t, a, default):
    m = model(tuple('r%d' % (k + 1) for k in range(n)),
              truth={'p': True, 'q': True}, default=default)
    f = Just(t, None, a)
    for v in _all_valuations(m, free_vars(f) | uall_vars(f)):
        assert not force(m, f, v)
    assert not is_valid(m, Exists('x', Just(Var('x'), None, a)))


# -- validity against an independent evaluator ---------------------------------------

def _all_valuations(m, names):
    names = sorted(set(names))
    for combo in itertools.product(m.domain, repeat=len(names)):
        yield dict(zip(names, combo))


def _naive_term(m, t, v):
    d0 = m.domain[0]

    def op(key, args):
        table = m.interp.get(key, {})
        return table.get(args, table.get('default', d0))

    kind = type(t).__name__
    if kind == 'Var':
        return v.get(t.name, d0)
    if kind == 'Const':
        return op(('prim', t.name), ())
    if kind == 'Prim':
        return op(('prim', t.symbol), tuple(v.get(a, d0) for a in t.args))
    if kind == 'App':
        return op(('app',), (_naive_term(m, t.fn, v), _naive_term(m, t.arg, v)))
    if kind == 'TSum':
        return op(('sum',), (_naive_term(m, t.left, v),
                             _naive_term(m, t.right, v)))
    if kind == 'Bang':
        return op(('bang',), (_naive_term(m, t.t, v),))
    if kind == 'UAll':
        return op(('uall',), (_naive_term(m, t.inner, v), v.get(t.var, d0)))
    raise AssertionError(kind)


def _naive_force(m, f, v):
    d0 = m.domain[0]
    kind = type(f).__name__
    if kind == 'Atom':
        return m.truth.get(f.name, m.truth_default)
    if kind == 'Falsum':
        return False
    if kind == 'Neg':
        return not _naive_force(m, f.a, v)
    if kind == 'And':
        return _naive_force(m, f.a, v) and _naive_force(m, f.b, v)
    if kind == 'Or':
        return _naive_force(m, f.a, v) or _naive_force(m, f.b, v)
    if kind == 'Imp':
        return (not _naive_force(m, f.a, v)) or _naive_force(m, f.b, v)
    if kind == 'Iff':
        return _naive_force(m, f.a, v) == _naive_force(m, f.b, v)
    if kind == 'Xor':
        return _naive_force(m, f.a, v) != _naive_force(m, f.b, v)
    if kind == 'Just':
        r = _naive_term(m, f.t, v)
        held = any(e.agent == f.agent and e.reason == r and e.formula == f.a
                   and all(v.get(x, d0) == rr for x, rr in e.cond)
                   for e in m.evidence)
        return held and _naive_force(m, f.a, v)
    if kind == 'Forall':
        return all(_naive_force(m, f.a, {**v, f.var: r}) for r in m.domain)
    if kind == 'Exists':
        return any(_naive_force(m, f.a, {**v, f.var: r}) for r in m.domain)
    raise AssertionError(kind)


def _naive_valid(m, f):
    return all(_naive_force(m, f, v)
               for v in _all_valuations(m, free_vars(f) | uall_vars(f)))


@settings(max_examples=150, deadline=None)
@given(models(), qlp_formulas(max_leaves=5))
def test_is_valid_agrees_with_naive_evaluator(m, f):
    assert is_valid(m, f) == _naive_valid(m, f)


# -- closure conditions ---------------------------------------------------------------

def test_empty_evidence_satisfies_all_conditions():
    assert check_evidence_conditions(model(('r1',))) == []


def test_application_condition():
    bad = model(domain=('r1', 'r2', 'r3'),
                interp={('app',): {('r1', 'r2'): 'r3'}},
                evidence=[ev('r1', P('p -> q')), ev('r2', P('p'))])
    out = check_evidence_conditions(bad)
    assert any('application' in s and 'q missing at r3' in s for s in out)
    good = model(domain=('r1', 'r2', 'r3'),
                 interp={('app',): {'default': 'r3'},
                         ('sum',): {'default': 'r3'}},
                 evidence=[ev('r1', P('p -> q')), ev('r2', P('p')),
                           ev('r3', P('p -> q')), ev('r3', P('p')),
                           ev('r3', P('q'))])
    assert check_evidence_conditions(good) == []


def test_application_chase_depth():
    m = model(domain=('r1',), interp={('app',): {'default': 'r1'}},
              evidence=[ev('r1', P('p -> (p -> q)')), ev('r1', P('p'))])
    assert len(check_evidence_conditions(m, depth=1)) == 1
    assert len(check_evidence_conditions(m, depth=2)) == 2
    assert len(check_evidence_conditions(m, depth=5)) == 2
    assert len(check_model(m, depth=1)) == 1


def test_sum_condition():
    m = model(interp={('sum',): {'default': 'r2'}},
              evidence=[ev('r1', P('p'))])
    out = check_evidence_conditions(m)
    assert any(s.startswith('sum: p missing at r2') for s in out)


def test_proof_checker_condition():
    m = model(domain=('r1',), evidence=[ev('r1', P('p'))])
    out = check_evidence_conditions(m, extra=[P('x : p')])
    assert any('proof checker: x : p missing' in s for s in out)
    good = model(domain=('r1',),
                 evidence=[ev('r1', P('p')), ev('r1', P('x : p'))])
    assert check_evidence_conditions(good, extra=[P('x : p')]) == []


def test_primitive_term_condition_from_declared_spec():
    spec = Spec('explicit', frozenset({P('g : p')}))
    m = model(spec=spec)
    out = check_evidence_conditions(m)
    assert any('primitive term: p missing' in s for s in out)
    ok = model(spec=spec, evidence=[ev('r1', P('p'))])
    assert check_evidence_conditions(ok) == []


def test_total_spec_needs_some_evidence():
    m = model(spec=TOTAL)
    out = check_evidence_conditions(m)
    assert any('total specification demands' in s for s in out)


def test_uniform_verifier_condition():
    m = model(domain=('r1',), logic_id='QLP',
              interp={('uall',): {'default': 'r1'}},
              evidence=[ev('r1', P('p'))])
    out = check_evidence_conditions(m, extra=[P('all x . p'), P('y : p')])
    assert any('uniform verifier: all x . p missing' in s for s in out)
    good = model(domain=('r1',), logic_id='QLP',
                 interp={('uall',): {'default': 'r1'}},
                 evidence=[ev('r1', P('p')), ev('r1', P('all x . p')),
                           ev('r1', P('y : p'))])
    assert check_evidence_conditions(
        good, extra=[P('all x . p'), P('y : p')]) == []


def test_loose_condition_variables_are_reported():
    m = model(evidence=[ev('r1', P('p'), cond=(('x', 'r1'),))])
    out = check_evidence_conditions(m)
    assert any('conditions on' in s for s in out)


# -- model files ------------------------------------------------------------------

MDL = """
# one reason, nothing believed
logic: QLP-(FP)
spec: empty
domain r1 r2
interp app default -> r1
interp f r1 -> r2
evidence r1 {x=r2} : x : p
truth p = 1
truth default = 0
valid p
"""


@pytest.mark.parametrize('path', corpus_paths('.mdl'),
                         ids=lambda p: p.rsplit('/', 1)[-1][:-4])
def test_loading_a_model_builds_each_distinct_node_once(path):
    m = load_model(path)
    roots = [e.formula for e in m.evidence] + list(m.claims)
    if m.spec.kind == 'explicit':
        roots += m.spec.entries
    nodes = node_objects(roots)
    assert len(nodes) == len(set(nodes))


def test_parse_model_round_trip_fields():
    m = parse_model(MDL)
    assert m.domain == ('r1', 'r2')
    assert m.logic_id == 'QLP-(FP)'
    assert m.interp[('app',)] == {'default': 'r1'}
    assert m.interp[('prim', 'f')] == {('r1',): 'r2'}
    e = m.evidence[0]
    assert (e.reason, e.cond) == ('r1', (('x', 'r2'),))
    assert e.formula == P('x : p')
    assert m.truth == {'p': True} and m.truth_default is False
    assert m.claims == (Atom('p'),)
    assert check_model(m) == []


def test_parse_model_agent_evidence_and_fixapp_truth():
    m = parse_model("""
logic: QLP-_n
agents: s t
domain r1
evidence @s r1 : p
truth E = 1
""")
    assert m.evidence[0].agent == 's'
    assert m.agents == ('s', 't')
    fp = parse_model("logic: QLP-(FP)\ndomain r1\ntruth fix(d; E) = 1\n")
    assert fp.truth == {'fix(d; E)': True}


@pytest.mark.parametrize('text,fragment', [
    ("logic: QLP-\ntruth p = 1\n", 'missing domain'),
    ("domain\n", 'domain must be non-empty'),
    ("domain r1\ntruth p = yes\n", 'truth value'),
    ("domain r1\ntruth p -> q = 1\n", 'truth keys'),
    ("domain r1\ninterp app r1 r1 r2\n", "interp needs"),
    ("domain r1\nevidence r1 p\n", 'bad evidence'),
    ("domain r1\nspec: banana\n", 'spec must be'),
    ("domain r1\nnonsense here\n", 'unrecognized line'),
    # the line reader's dispatch: None marks a text that parses
    ("domain\tr1 r2\n", None),
    ("logic:QLP\ndomain r1\n", None),
    ("domain r1\npremise k: p\n", 'unrecognized line'),
    ("domain r1\n1. p ; prop\n", 'unrecognized line'),
    ("spec: file x.spec\nlogic: QLP\ndomain r1\n", None),
    # an @agent entry names an agent of the agents: header, wherever it is
    ("logic: QLP-_n\ndomain r1\nevidence @a1 r1 : p\nagents: a1\n", None),
    ("logic: QLP-_n\ndomain r1\nevidence @a1 r1 : p\nagents: s\n",
     "evidence for undeclared agent 'a1'"),
    ("domain r1\nevidence @s r1 : p\n", "evidence for undeclared agent 's'"),
    # a single-agent logic takes no agents header, in either header order,
    # with parse_derivation's wording
    ("logic: QLP-\nagents: s\nspec: empty\ndomain r\nevidence @s r : p\n"
     "truth p = 1\ntruth default = 0\nvalid p\n",
     'logic QLP- is single-agent and takes no agents header'),
    ("agents: s\nlogic: QLP\ndomain r\n",
     'logic QLP is single-agent and takes no agents header'),
    ("agents: 2\ndomain r\n",
     'logic QLP- is single-agent and takes no agents header'),
    ("logic: QLP-(FP)\ndomain r\nagents: a1\n",
     'logic QLP-(FP) is single-agent and takes no agents header'),
    ("logic: QLP-\nagents:\ndomain r\n", None),
    # a condition is var=reason, one per variable, with a reason of the
    # domain, wherever the domain line is
    ("domain r s\nevidence r {x} : (x : p -> p)\n",
     "bad evidence condition 'x'"),
    ("domain r s\nevidence r {x=} : x : p\n", 'bad evidence condition'),
    ("domain r s\nevidence r {=s} : x : p\n", 'bad evidence condition'),
    ("domain r s\nevidence r {x=s,} : x : p\n", 'bad evidence condition'),
    ("domain r s\nevidence r {x=r, y=s, x=s} : x : y : p\n",
     "bad evidence condition 'x=s'"),
    ("domain r s\nevidence r {x=q} : x : p\n",
     'condition x=q outside the domain'),
    ("evidence r {x=s} : x : p\ndomain r s\n", None),
    ("evidence r {x=t} : x : p\ndomain r s\n", 'x=t outside the domain'),
    # so is every reason an evidence entry or an interp line names, other
    # than an interp line's lone default
    ("domain r s\nevidence q : p\n", 'evidence reason q outside the domain'),
    ("evidence q : p\ndomain r s\n", 'evidence reason q outside the domain'),
    ("domain r s\nevidence @a1 q : p\nagents: a1\nlogic: QLP-_n\n",
     'evidence reason q outside the domain'),
    ("domain r s\ninterp app r r -> q\n", 'interp app value q outside'),
    ("domain r s\ninterp app default -> q\n", 'interp app value q outside'),
    ("domain r s\ninterp f q -> r\n", 'interp f argument q outside'),
    ("interp f r q -> r\ndomain r s\n", 'interp f argument q outside'),
    ("domain r s\ninterp app default r -> r\n",
     'interp app argument default outside'),
    ("domain r s\ninterp f -> s\ninterp app default -> r\n"
     "interp bang s -> r\nevidence s : p\n", None),
])
def test_parse_model_errors(text, fragment, tmp_path):
    (tmp_path / 'x.spec').write_text('p -> p\n')
    if fragment is None:
        parse_model(text, str(tmp_path))
        return
    with pytest.raises(ModelError) as e:
        parse_model(text, str(tmp_path))
    assert fragment in str(e.value)


def test_check_model_judges_claims():
    bad = parse_model("logic: QLP-\ndomain r1\ntruth p = 0\nvalid p\n")
    assert check_model(bad) == ['claimed valid but refuted: p']
    good = parse_model("logic: QLP-\ndomain r1\ntruth p = 1\nvalid p\n")
    assert check_model(good) == []


@pytest.mark.parametrize('path', corpus_paths('.mdl'),
                         ids=lambda p: p.rsplit('/', 1)[-1][:-4])
def test_countermodel_files_are_clean(path):
    m = load_model(path)
    assert check_model(m) == []
    assert len(m.claims) >= 1
    for c in m.claims:
        assert is_valid(m, c)
