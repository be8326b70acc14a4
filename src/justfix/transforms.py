"""Constructive proof transformations.

Everything here consumes an accepted derivation and emits a new one,
which is re-checked before being returned; a transform never hands back
an object the kernel would reject.  The constructions follow the usual
inductive arguments step by step, so the output derivations double as
machine-checked witnesses for the corresponding admissibility lemmas:

  deduction         discharge one premise into an implication
  lift              internalize a justification-logic proof (t : A)
  internalize_qlp   the quantified analogue, handling Gen and qNec steps
  substitute_proof  replace a justification variable by a term in every
                    step of the elaborated derivation
  jug               justification-upgrade: t : A  to  (t all x) : all x . A
  restricted_qnec   existential introduction over an axiom instance
  jd_lemma          opposing evidence: s : ~A -> ~ t : A, via a falsum term
  project           forget terms: t : A becomes [] A, logics map J -> K etc.
  exists_translate  embed modal formulas by [] A -> ex x . x : A
  collapse_agents   erase agent labels, QLP_n -> QLP

Tautological-consequence steps are internalized through the implication
chain  F1 -> (F2 -> ... -> goal), which is itself a tautology, so a
single constant over that chain followed by application steps suffices;
no separate propositional search is needed.

Every "axiom instance, then modus ponens" sequence goes through
_Build.detach, which adds the instance and detaches one antecedent per
cited step; _jk builds the application instance  s : (A -> B) ->
(t : A -> s*t : B), whose last consequent holds the App term the caller
goes on with, so each such term is built once.

project and collapse_agents map each node object once and build each
image node once, through a table (the hash-consing of Filliatre and
Conchon, "Type-safe modular hash-consing", ML Workshop 2006, keyed as
syntax.share keys it).  project_derivation and collapse_derivation keep
one table per call and drop it when the call returns, so equal image
formulas are one object and the re-check decides each once.
exists_translate has no table: it numbers its fresh variables by
occurrence, so two occurrences of one object have different images.
"""

from itertools import repeat
from typing import Optional

from .syntax import (
    Formula, Term, Falsum, Neg, Imp, Iff, Box, Knows,
    Just, Forall, Exists, Mu, FixApp, FMeta,
    Var, Const, Prim, App, Bang, UAll,
    Node, NotFreeFor, PROP_NODES, print_formula, share,
    free_vars, subst_term_for_var, imp_chain, record, replace,
)
from .registry import (
    get_logic, match_axiom, split_logic_id, Spec, TOTAL,
)
from .fixedpoint import make_operator, fp_axiom_instance
from . import kernel
from .kernel import Derivation, Step, Premise, check_derivation, elaborate


class TransformError(Exception):
    pass


@record
class LiftResult:
    term: Term
    derivation: Derivation


class _Build:
    def __init__(self):
        self.steps = []

    def add(self, formula, rule, refs=(), args=()):
        self.steps.append(Step(len(self.steps) + 1, formula, rule,
                               tuple(refs), tuple(args)))
        return len(self.steps)

    def detach(self, axiom, schema, *refs):
        """Add axiom as an instance of schema, then one mp per cited step,
        each detaching the next antecedent; the index of the last step."""
        k = self.add(axiom, 'ax', (), (schema,))
        for r in refs:
            axiom = axiom.b
            k = self.add(axiom, 'mp', (r, k))
        return k

    def tuple(self):
        return tuple(self.steps)


def _jk(s: Term, t: Term, imp: Imp, agent) -> Formula:
    """The jk instance  s : (A -> B) -> (t : A -> s*t : B)  for imp = A -> B;
    its last consequent holds the one App term of s and t."""
    return Imp(Just(s, agent, imp),
               Imp(Just(t, agent, imp.a), Just(App(s, t), agent, imp.b)))


def _fp_args(s: Step, fmap) -> tuple:
    """The arguments of step s, with fmap applied to the operator arguments
    of an fp step."""
    if s.rule != 'fp':
        return s.args
    name, args = s.args
    return name, tuple(map(fmap, args))


def _accepted(d: Derivation, what: str, made: bool):
    """The kernel's report on d.  When it rejects d, a TransformError says
    that the transform named what made d (made) or needs it as input."""
    rep = check_derivation(d)
    if not rep.ok:
        raise TransformError("%s %s (step %d: %s)" % (
            what, "produced a rejected derivation" if made
            else "needs an accepted input derivation", *rep.first_failure))
    return rep


class _Fresh:
    def __init__(self):
        self.n = {}

    def __call__(self, prefix: str) -> str:
        self.n[prefix] = self.n.get(prefix, 0) + 1
        return '%s#%d' % (prefix, self.n[prefix])


# -- deduction ---------------------------------------------------------------

def deduction(d: Derivation, name: str) -> Derivation:
    """Discharge the named premise: from  S, A |- B  build  S |- A -> B.

    Premise-free steps are copied verbatim.  Since the kernel restricts
    necessitation-like rules to premise-free steps, every step that does
    depend on the premise is a premise line, modus ponens, or a
    tautological-consequence step, and each of those turns into a single
    prop step over the wrapped images.
    """
    pre = next((p for p in d.premises if p.name == name), None)
    if pre is None:
        raise TransformError("no premise named %r" % name)
    rep = _accepted(d, "deduction", False)
    a = pre.formula

    b = _Build()
    for s in d.steps:
        if name not in rep.deps[s.index]:
            b.add(s.formula, s.rule, s.refs, s.args)
            continue
        img = Imp(a, s.formula)
        if s.rule == 'premise':
            b.add(img, 'prop')
        elif s.rule in ('mp', 'prop'):
            b.add(img, 'prop', s.refs)
        elif s.rule == 'admk':
            raise TransformError(
                "admissible-knowledge steps cannot be discharged")
        else:
            raise TransformError(
                "step %d (%s) depends on %r but is not propositional"
                % (s.index, s.rule, name))
    if name not in rep.deps[d.steps[-1].index]:
        b.add(Imp(a, d.final), 'prop', (len(b.steps),))
    premises = tuple(p for p in d.premises if p.name != name)
    out = replace(d, premises=premises, steps=b.tuple())
    _accepted(out, "deduction", True)
    return out


# -- lifting -----------------------------------------------------------------

def _internalize(d: Derivation, what: str) -> LiftResult:
    """The loop lift and internalize_qlp share, for the transform named
    what: from d, accepted and elaborated, one derivation of  t : F  per
    step of d proving F.  Premises become fresh proof variables, and
    every other rule is handled below.  Fresh terms are constants c#n
    introduced by ian in the justification logics, and primitive terms
    f#n introduced by an in the quantified ones, labelled with the first
    agent of the header.

    What a step adds depends only on the steps up to it, so a fold whose
    first steps an earlier one in the memo scope went through starts
    where they end (kernel.resume), with that fold's steps: the image of
    a cone that extends another begins with the other's image, whose
    check the re-check below resumes in turn."""
    logic = get_logic(d.logic_id)
    qlp = logic.family == 'qlp'
    intro = 'an' if qlp else 'ian'
    agent = d.agents[0] if qlp and d.agents else None
    fresh = _Fresh()
    b = _Build()
    got = {}     # original index -> (term, original formula, step of b
                 # proving  term : formula)
    marks = []   # after each step of d: (steps built, fresh name counts)
    pvar = {p.name: Var(fresh('x')) for p in d.premises}
    premises = tuple(Premise(p.name, Just(pvar[p.name], agent, p.formula))
                     for p in d.premises)
    k, prior = kernel.resume(what, d, (b, got, marks))
    if k:
        pb, pgot, pmarks = prior
        n, counts = pmarks[k - 1]
        b.steps[:], fresh.n = pb.steps[:n], dict(counts)
        got.update((s.index, pgot[s.index]) for s in d.steps[:k])
        marks += pmarks[:k]

    def introduce(g: Formula) -> tuple:
        """A fresh term for g, introduced by the specification."""
        t = Prim(fresh('f'), ()) if qlp else Const(fresh('c'))
        return t, g, b.add(Just(t, agent, g), intro)

    def checker(ju: Just, i: int) -> tuple:
        """!u : ju  from step i, which proves ju = u : A, by j4."""
        t = Bang(ju.t)
        return t, ju, b.detach(Imp(ju, Just(t, agent, ju)), 'j4', i)

    def apply(t: Term, chain: Imp, i: int, cited) -> tuple:
        """Apply t, which step i proves of the implication chain, to each
        cited (term, formula, step) in turn through jk: the last
        application term and its step."""
        for u, _, j in cited:
            jk = _jk(t, u, chain, agent)
            i = b.detach(jk, 'jk', i, j)
            t, chain = jk.b.b.t, chain.b
        return t, i

    for s in d.steps[k:]:
        f, rule = s.formula, s.rule
        if rule == 'premise':
            t = pvar[s.args[0]]
            i = b.add(Just(t, agent, f), 'premise', (), s.args)
        elif rule == 'mp':
            # the implication's term applied to the antecedent's
            a, imp = s.refs
            t, i = apply(*got[imp], [got[a]])
        elif rule == 'prop':
            # through the implication chain  F1 -> ... -> f  of the cited
            # formulas, a tautology
            cited = [got[r] for r in s.refs]
            chain = imp_chain([g for _, g, _ in cited], f)
            t, i = apply(*introduce(chain), cited)
        elif rule == 'an' and qlp:
            # f is already  p : A  for a primitive p; re-prefix with the
            # proof checker instead of asking the specification for a
            # second layer
            t, _, i = checker(f, b.add(f, 'an'))
        elif rule in ('ax', 'fp', 'mu-cl', 'ian', 'an'):
            t, _, i = introduce(f)
        elif rule == 'gen':
            if 'qnec' not in logic.rules:
                raise TransformError(
                    "Gen step %d cannot be internalized without uniform "
                    "verifiers" % s.index)
            u, g, j = got[s.refs[0]]
            t, i = _upgrade(b, j, Just(u, agent, g), s.args[0], fresh('y'), f)
        elif rule == 'qnec':
            # an existential axiom  u : A -> f  under a fresh primitive,
            # applied to the checked proof  !u : u : A
            u, g, j = got[s.refs[0]]
            ju = Just(u, agent, g)
            bang = checker(ju, j)
            t, i = apply(*introduce(Imp(ju, f)), [bang])
        elif rule == 'mu-ind':
            raise TransformError("induction steps cannot be lifted")
        else:
            raise TransformError("unexpected rule %r in a %s derivation"
                                 % (rule, logic.name))
        got[s.index] = (t, f, i)
        marks.append((len(b.steps), dict(fresh.n)))

    out = replace(d, premises=premises, steps=b.tuple())
    _accepted(out, what, True)
    return LiftResult(got[d.steps[-1].index][0], out)


def lift(d: Derivation) -> LiftResult:
    """Internalization for justification logics: from a derivation of A
    over premises A1..An, build one of  t : A  over  x#1 : A1, ...

    Axiom and specification steps become fresh constants, modus ponens
    becomes two applications of the jk schema, and prop steps go through
    the implication-chain construction.  Induction steps cannot be
    internalized this way.
    """
    logic = get_logic(d.logic_id)
    if logic.family != 'jl':
        raise TransformError("lift applies to justification logics, not %s"
                             % logic.name)
    if d.spec.kind != 'total':
        raise TransformError("lift requires the total specification, "
                             "which is closed under fresh constants")
    _accepted(d, "lift", False)
    return _internalize(elaborate(d), "lift")


# -- quantified internalization ----------------------------------------------

def internalize_qlp(d: Derivation) -> LiftResult:
    """Internalization for the quantified logics.  Gen steps go through
    generalization, existential introduction over the lifted step, and
    the uniform-verifier axiom; qNec steps re-prefix with a proof checker
    and apply an existential axiom under a primitive justification.  In
    the restricted language (no uniform verifiers) Gen steps cannot be
    internalized and are refused.
    """
    logic = get_logic(d.logic_id)
    if logic.family != 'qlp':
        raise TransformError("quantified internalization applies to "
                             "quantified logics, not %s" % logic.name)
    if d.spec.kind != 'total':
        raise TransformError("internalization requires the total "
                             "specification")
    _accepted(d, "internalize", False)
    return _internalize(elaborate(d), "internalize")


# -- substitution ------------------------------------------------------------

def substitute_proof(d: Derivation, x: str, t: Term) -> Derivation:
    """Apply [t/x] to every formula of the elaborated derivation.  Sound
    over the total and the empty specification; a declared-entry
    specification is refused since its entries need not be closed under
    substitution.  Operator declarations are untouched: the rewritten
    axiom steps are accepted as substitution instances.  A variable that
    a gen step generalizes, free in the step it cites, is refused: the
    step's conclusion binds it, so its image would not follow.
    """
    if d.spec.kind == 'explicit':
        raise TransformError("substitution is not sound over a declared "
                             "specification")
    _accepted(d, "substitution", False)
    d = elaborate(d)
    if any(s.rule == 'gen' and s.args[0] == x
           and x in free_vars(d.step(s.refs[0]).formula) for s in d.steps):
        raise TransformError("cannot substitute for %s, which a gen step "
                             "generalizes" % x)

    def fmap(f: Formula) -> Formula:
        return subst_term_for_var(f, x, t)

    try:
        steps = tuple(Step(s.index, fmap(s.formula), s.rule, s.refs,
                           _fp_args(s, fmap)) for s in d.steps)
        premises = tuple(Premise(p.name, fmap(p.formula)) for p in d.premises)
    except NotFreeFor as e:
        raise TransformError(str(e))
    out = replace(d, premises=premises, steps=steps)
    _accepted(out, "substitution", True)
    return out


# -- justification upgrade ---------------------------------------------------

def _upgrade(b: _Build, i: int, ju: Just, x: str, y: str,
             goal: Formula) -> tuple:
    """From step i of b, which proves ju = u : A, prove  (u all x) : goal
    for goal = all x . A: generalize, introduce the verifier existentially
    as y, then apply the uniform-verifier axiom.  The term and its step."""
    gen = Forall(x, ju)
    ex = Exists(y, Just(Var(y), ju.agent, gen))
    t = UAll(ju.t, x)
    i = b.add(gen, 'gen', (i,), (x,))
    i = b.add(ex, 'qnec', (i,), (y,))
    return t, b.detach(Imp(ex, Just(t, ju.agent, goal)), 'uf', i)


def jug(d: Derivation, x: str) -> Derivation:
    """From a premise-free derivation of  t : A  build one of
    (t all x) : all x . A   (generalize, introduce the verifier
    existentially, then apply the uniform-verifier axiom)."""
    logic = get_logic(d.logic_id)
    if 'qnec' not in logic.rules:
        raise TransformError("the upgrade needs uniform verifiers and "
                             "existential introduction")
    if d.premises:
        raise TransformError("the upgrade applies to theorems only")
    _accepted(d, "upgrade", False)
    f = d.final
    if not isinstance(f, Just):
        raise TransformError("final formula must be a justification")

    b = _Build()
    for s in d.steps:
        b.add(s.formula, s.rule, s.refs, s.args)
    y = 'y#1'
    while y in free_vars(f):
        y = 'y#' + str(int(y.split('#')[1]) + 1)
    _upgrade(b, len(b.steps), f, x, y, Forall(x, f.a))
    out = replace(d, steps=b.tuple())
    _accepted(out, "upgrade", True)
    return out


def restricted_qnec(a: Formula, x: str, logic_id: str = 'QLP-',
                    spec: Spec = TOTAL, agent: Optional[str] = None,
                    ops: tuple = ()) -> Derivation:
    """Existential introduction  ex x . x : A  for an axiom instance A,
    without the qNec rule: a primitive justification for A exists by the
    specification, and the existential axiom finishes."""
    logic = get_logic(logic_id)
    if x in free_vars(a):
        raise TransformError("%s is free in the formula" % x)
    if not kernel.make_axiom_test(logic, ops)(a):
        raise TransformError("restricted existential introduction applies "
                             "to axiom instances only")
    if spec.kind != 'total':
        raise TransformError("requires the total specification")
    b = _Build()
    pa = Just(Prim('f#1', ()), agent, a)
    b.detach(Imp(pa, Exists(x, Just(Var(x), agent, a))), 'q3',
             b.add(pa, 'an'))
    agents = (agent,) if agent else None
    out = Derivation(logic_id, spec, 'tcs', agents, tuple(ops), (), b.tuple())
    _accepted(out, "restricted existential introduction", True)
    return out


# -- opposing evidence -------------------------------------------------------

def jd_lemma(s: Term, t: Term, a: Formula, logic_id: str,
             agent: Optional[str] = None, ops: tuple = ()) -> Derivation:
    """s : ~A -> ~ t : A, via a constant over  ~A -> (A -> false)  and
    the seriality axiom at the combined falsum term."""
    b = _Build()
    chain = Imp(Neg(a), Imp(a, Falsum()))
    jk1 = _jk(Const('c#1'), s, chain, agent)
    s3 = b.detach(jk1, 'jk', b.add(jk1.a, 'ian'))
    # cited by a prop step, so an ax step rather than a detach
    jk2 = _jk(jk1.b.b.t, t, chain.b, agent)
    s4 = b.add(jk2, 'ax', (), ('jk',))
    s5 = b.add(Imp(jk2.b.b, Falsum()), 'ax', (), ('jd',))
    nta = Neg(jk2.b.a)
    s6 = b.add(Imp(jk2.a, nta), 'prop', (s4, s5))
    b.add(Imp(jk1.b.a, nta), 'prop', (s3, s6))
    agents = None
    d = get_logic(logic_id)
    if d.profile.agents == 'multi':
        agents = (agent,)
    out = Derivation(logic_id, TOTAL, 'tcs', agents, tuple(ops), (),
                     b.tuple())
    _accepted(out, "opposing-evidence lemma", True)
    return out


# -- forgetful projection ----------------------------------------------------

_PROJ_LOGIC = {
    'J': 'K', 'JT': 'T', 'JD': 'D', 'J4': 'K4', 'JB': 'KB', 'J5': 'K5',
    'LP': 'S4', 'JD4': 'D4', 'JT45': 'S5', 'EGL': 'GL',
}
_PROJ_AXIOM = {
    'jk': 'K', 'jt': 'T', 'j4': '4', 'jb': 'B', 'j5': '5', 'elob': 'lob',
}


def project_logic_id(logic_id: str) -> str:
    name, multi, suffix = split_logic_id(logic_id)
    if multi or name not in _PROJ_LOGIC:
        raise TransformError("no modal counterpart for %s" % logic_id)
    return _PROJ_LOGIC[name] + suffix


def project(f: Formula, *, table: Optional[dict] = None) -> Formula:
    """Forget justification terms:  t : A  becomes  [] A.  The image of
    an existentially quantified verifier  ex x . x : A  (x not free in A)
    is also  [] A, which makes the translation below a section.

    Each node object of f is mapped once, and each image node is built
    once, through table (a fresh one when None): it maps id(src) to
    (src, image), which keeps src alive, and holds the image nodes under
    the key of syntax.share.  One frame per nesting level."""
    return _project(f, {} if table is None else table)


def _project(f: Formula, table: dict) -> Formula:
    """project's walk.  It and the other walks of this module are
    module-level functions, so that no closure refers to itself and a call
    leaves no reference cycle to the garbage collector."""
    got = table.get(id(f))
    if got is not None:
        return got[1]
    match f:
        case Just(_, _, a):
            img = Box(_project(a, table))
        case Exists(x, Just(Var(n), _, a)) if n == x \
                and x not in free_vars(a):
            img = Box(_project(a, table))
        case Box() | Knows() | Forall() | Exists() | FMeta():
            raise TransformError("projection undefined on %s"
                                 % type(f).__name__)
        case _:
            img = f.rebuild([*map(_project, f.children(), repeat(table))])
    img = share(table, img)
    table[id(f)] = f, img
    return img


def project_derivation(d: Derivation) -> Derivation:
    """Map a justification derivation to its modal counterpart, step by
    step.  Constant-specification steps become the image axiom followed
    by necessitation; the seriality schema needs a short detour since
    its modal form is derived rather than primitive.  Every formula of
    the image, those the detour and the necessitations build included,
    goes through one project table, dropped when the call returns."""
    logic = get_logic(d.logic_id)
    if logic.family != 'jl':
        raise TransformError("projection applies to justification logics")
    _accepted(d, "projection", False)
    d = elaborate(d)
    target = project_logic_id(d.logic_id)

    b = _Build()
    last = {}
    table = {}

    def proj(f: Formula) -> Formula:
        return project(f, table=table)

    def node(cls, *fields) -> Formula:
        return share(table, cls(*fields))

    def axiom_steps(g: Formula):
        """Emit steps proving project(g) for an axiom instance g; returns
        the concluding index."""
        img = proj(g)
        name = None
        m = match_axiom(logic, g)
        if m:
            name = m[0]
        if name in _PROJ_AXIOM:
            return b.add(img, 'ax', (), (_PROJ_AXIOM[name],))
        if name in ('sum', 'taut'):
            return b.add(img, 'prop')
        if name == 'jd':
            nf = node(Neg, node(Falsum))
            bx = node(Box, nf)
            k = b.add(nf, 'prop')
            k = b.add(bx, 'nec', (k,))
            dx = b.add(node(Imp, node(Box, node(Falsum)), node(Neg, bx)),
                       'ax', (), ('D',))
            return b.add(img, 'prop', (k, dx))
        if name == 'mu-cl':
            return b.add(img, 'mu-cl')
        for op in d.ops:
            if fp_axiom_instance(op, g) is not None:
                assert isinstance(img, Iff) and isinstance(img.a, FixApp)
                return b.add(img, 'fp', (), (img.a.name, img.a.args))
        raise TransformError("axiom %s has no modal image"
                             % print_formula(g))

    def tower(g: Formula):
        """Emit steps proving project(g) for g = c_k : ... : c_1 : A, A an
        axiom instance: those of A, then one necessitation per constant,
        each of the projected prefix; returns the concluding index."""
        prefixes = []
        while isinstance(g, Just):
            prefixes.append(g)
            g = g.a
        k = axiom_steps(g)
        for j in reversed(prefixes):
            k = b.add(proj(j), 'nec', (k,))
        return k

    for s in d.steps:
        f = s.formula
        if s.rule == 'ax':
            last[s.index] = axiom_steps(f)
        elif s.rule in ('ian', 'an'):
            last[s.index] = tower(f)
        elif s.rule in ('fp', 'mu-cl', 'mu-ind', 'mp', 'prop', 'premise'):
            last[s.index] = b.add(proj(f), s.rule,
                                  tuple(last[r] for r in s.refs),
                                  _fp_args(s, proj))
        else:
            raise TransformError("no modal image for rule %r" % s.rule)

    ops = tuple(make_operator(op.name, op.var, op.params, proj(op.body),
                              'modalized') for op in d.ops)
    premises = tuple(Premise(p.name, proj(p.formula)) for p in d.premises)
    out = Derivation(target, TOTAL, 'tcs', None, ops, premises, b.tuple())
    _accepted(out, "projection", True)
    return out


# -- existential translation -------------------------------------------------

def exists_translate(f: Formula) -> Formula:
    """Replace each box by an existentially quantified verifier, fresh
    variables numbered outermost-first.  A section of project().  Every
    occurrence gets its own variable, so no table maps a node once."""
    return _exists(f, [0])


def _exists(g: Formula, counter: list) -> Formula:
    """exists_translate's walk; counter holds the last variable drawn."""
    if isinstance(g, Box):
        counter[0] += 1
        x = 'x#%d' % counter[0]
        return Exists(x, Just(Var(x), None, _exists(g.a, counter)))
    if type(g).__name__ not in PROP_NODES:
        raise TransformError("translation is defined on "
                             "propositional modal formulas")
    return g.rebuild([_exists(k, counter) for k in g.children()])


# -- agent collapse ----------------------------------------------------------

def collapse_agents(f: Formula, *, table: Optional[dict] = None) -> Formula:
    """Erase agent labels:  t :@a A  becomes  t : A.  Each node object of
    f, the terms of justifications included, is mapped once and each
    image node built once through table, as in project."""
    return _collapse(f, {} if table is None else table)


def _collapse(f: Node, table: dict) -> Node:
    """collapse_agents's walk."""
    got = table.get(id(f))
    if got is not None:
        return got[1]
    match f:
        case Just(t, _, a):
            img = Just(_collapse(t, table), None, _collapse(a, table))
        case Box() | Knows() | Mu() | FMeta():
            raise TransformError("agent collapse undefined on %s"
                                 % type(f).__name__)
        case _:
            img = f.rebuild([*map(_collapse, f.children(), repeat(table))])
    img = share(table, img)
    table[id(f)] = f, img
    return img


def collapse_derivation(d: Derivation) -> Derivation:
    """Erase agent labels: a multi-agent quantified derivation becomes a
    single-agent one, rule for rule.  Every formula goes through one
    collapse_agents table, dropped when the call returns."""
    logic = get_logic(d.logic_id)
    if logic.profile.agents != 'multi':
        raise TransformError("input is already single-agent")
    _accepted(d, "agent collapse", False)
    base, _, suffix = split_logic_id(d.logic_id)
    target = base + suffix
    table = {}

    def coll(f: Formula) -> Formula:
        return collapse_agents(f, table=table)

    spec = d.spec
    if spec.kind == 'explicit':
        spec = Spec('explicit', frozenset(map(coll, spec.entries)))
    ops = tuple(make_operator(op.name, op.var, op.params, coll(op.body),
                              op.mode) for op in d.ops)
    premises = tuple(Premise(p.name, coll(p.formula)) for p in d.premises)
    steps = []
    for s in d.steps:
        args = _fp_args(s, coll)
        steps.append(Step(s.index, coll(s.formula), s.rule, s.refs, args))
    out = Derivation(target, spec, d.spec_src, None, ops, premises,
                     tuple(steps))
    _accepted(out, "agent collapse", True)
    return out
