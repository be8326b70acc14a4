"""Logic registry: axiom schemas, rule vocabularies, and specifications.

Every logic the workbench knows is assembled here from a shared schema
table.  A schema is a pattern formula over metavariables (FMeta/TMeta for
formula/term slots, '?'-prefixed names for bound-variable, time, and agent
slots) plus side conditions on the resulting binding.  Matching is plain
first-order structural unification: metavariables bind whole subtrees, and
nothing matches through the defined connectives.

The tautological-consequence engine also lives here (the kernel and the
schema for Taut both need it, and the kernel already imports us).  It
decides each query with a reduced ordered BDD (Bryant 1986) built for
that call alone: every maximal subformula that is not a boolean connective
becomes one atom, atoms are ordered by first sight (goal first, then the
premises last to first), and the node and memo tables are freed when the
call returns.  Separable goals such as excluded-middle conjunctions and
parity equivalences stay linear in the atom count.  An atom order can
still make the BDD exponential: (a1 & b1) | ... | (a12 & b12) with every
a seen before any b takes about 8,200 nodes.
"""

import dataclasses
from dataclasses import dataclass
from typing import Callable, Optional

from .syntax import (
    Term, Var, Const, Prim, App, TSum, Bang, Quest, WQuest, UAll, TMeta,
    Formula, Falsum, Neg, And, Or, Imp, Iff, Xor, Box, Knows, Just,
    Forall, Exists, Mu, FixApp, FMeta,
    LanguageProfile, PROP_NODES, check_profile, ProfileError, children,
    free_vars, term_vars, subst_prop, subst_term_for_var, NotFreeFor,
)


# ---------------------------------------------------------------------------
# tautological consequence: a reduced ordered BDD built fresh for each call
#
# Node 0 is false, node 1 is true, and node u >= 2 is nodes[u] = (var, lo,
# hi): "if atom var then hi else lo".  Atoms are numbered in first-seen
# order (goal first, then the premises last to first), and a lower number
# sits nearer the root.  The unique table keeps the graph reduced, so a
# function has exactly one node and "is a tautology" is "is node 1".  The
# apply memo makes each (connective, node, node) pair cost one visit.  The
# tables belong to one call and are freed when it returns; nothing is
# cached across calls.

# truth tables f(0,0), f(0,1), f(1,0), f(1,1); negation ignores its second
# argument
_CONNECTIVES = {And: (0, 0, 0, 1), Or: (0, 1, 1, 1), Imp: (1, 1, 0, 1),
                Iff: (1, 0, 0, 1), Xor: (0, 1, 1, 0)}
_NOT = (1, 1, 0, 0)
_LEAF = float('inf')


class _BDD:
    def __init__(self):
        # a leaf tests no atom (it sorts below every var) and is its own
        # cofactor
        self.nodes: list = [(_LEAF, 0, 0), (_LEAF, 1, 1)]
        self.unique: dict = {}   # (var, lo, hi) -> node
        self.memo: dict = {}     # (op, u, v) -> node
        self.atoms: dict = {}    # Formula -> var

    def node(self, var: int, lo: int, hi: int) -> int:
        if lo == hi:
            return lo
        key = (var, lo, hi)
        u = self.unique.get(key)
        if u is None:
            u = self.unique[key] = len(self.nodes)
            self.nodes.append(key)
        return u

    def apply(self, op: tuple, u: int, v: int) -> int:
        if u < 2 and v < 2:
            return op[2 * u + v]
        key = (op, u, v)
        r = self.memo.get(key)
        if r is None:
            iu, u0, u1 = self.nodes[u]
            iv, v0, v1 = self.nodes[v]
            var = min(iu, iv)
            if iu > var:
                u0 = u1 = u
            if iv > var:
                v0 = v1 = v
            r = self.memo[key] = self.node(var, self.apply(op, u0, v0),
                                           self.apply(op, u1, v1))
        return r

    def build(self, f: Formula) -> int:
        """The node of f; every maximal subformula that is not a boolean
        connective or Falsum is one atom, shared by formula equality."""
        kind = type(f)
        op = _CONNECTIVES.get(kind)
        if kind is Imp:
            return self.apply(op, self.build(f.a), self.build(f.b))
        if op is not None:
            # And, Or, Iff and Xor are associative and commutative: join
            # the operands of a chain from the deepest top atom upwards, so
            # that each join adds nodes only above those built so far (a
            # parity chain then stays linear in either atom order)
            operands, todo = [], [f]
            while todo:
                g = todo.pop()
                if type(g) is kind:
                    todo += (g.b, g.a)
                else:
                    operands.append(self.build(g))
            operands.sort(key=lambda u: self.nodes[u][0], reverse=True)
            u = operands[0]
            for v in operands[1:]:
                u = self.apply(op, v, u)
            return u
        if isinstance(f, Neg):
            return self.apply(_NOT, self.build(f.a), 0)
        if isinstance(f, Falsum):
            return 0
        # Atom, Box, Knows, Just, Forall, Exists, Mu, FixApp: opaque
        return self.node(self.atoms.setdefault(f, len(self.atoms)), 0, 1)


def _consequence_bdd(goal: Formula, premises: list) -> tuple:
    """(node, bdd) of the implication from premises to goal; the bdd is
    returned so that tests can read the size of its node table."""
    bdd = _BDD()
    u = bdd.build(goal)
    for p in reversed(premises):
        u = bdd.apply(_CONNECTIVES[Imp], bdd.build(p), u)
    return u, bdd


def taut_consequence(goal: Formula, premises: list) -> bool:
    """True iff goal follows truth-functionally from premises, atomizing
    maximal non-boolean subformulas consistently across all of them."""
    return _consequence_bdd(goal, premises)[0] == 1


def is_tautology(f: Formula) -> bool:
    return taut_consequence(f, [])


# ---------------------------------------------------------------------------
# pattern matching

def _is_meta_name(name: str) -> bool:
    return name.startswith('?')


def _bind(b: dict, key: str, val) -> bool:
    if key in b:
        return b[key] == val
    b[key] = val
    return True


def _match_slot(kind: str, pat, val, b: dict) -> bool:
    # a '?'-named bound-variable, time or agent slot binds; anything else
    # must be equal
    if isinstance(pat, str) and _is_meta_name(pat):
        return _bind(b, kind + ':' + pat[1:], val)
    return pat == val


def match_term(pat: Term, t: Term, b: dict) -> bool:
    if isinstance(pat, TMeta):
        return _bind(b, 'T:' + pat.name, t)
    if isinstance(pat, Var) and _is_meta_name(pat.name):
        # a variable slot in term position: matches variables only
        return isinstance(t, Var) and _bind(b, 'v:' + pat.name[1:], t.name)
    if type(pat) is not type(t):
        return False
    kp = children(pat)
    if not kp:
        return pat == t
    if isinstance(pat, UAll) and not _match_slot('v', pat.var, t.var, b):
        return False
    return all(match_term(p, s, b) for p, s in zip(kp, children(t)))


def match_formula(pat: Formula, f: Formula, b: dict) -> bool:
    if isinstance(pat, FMeta):
        return _bind(b, 'F:' + pat.name, f)
    if type(pat) is not type(f):
        return False
    kp, kf = children(pat), children(f)
    if not kp:
        return pat == f
    match pat:
        case Knows(i, _):
            if not _match_slot('i', i, f.time, b):
                return False
        case Just(t, agent, _):
            if not (match_term(t, f.t, b)
                    and _match_slot('a', agent, f.agent, b)):
                return False
        case Forall(v, _) | Exists(v, _) | Mu(v, _):
            if not _match_slot('v', v, f.var, b):
                return False
        case FixApp(name, args):
            if name != f.name or len(args) != len(f.args):
                return False
    return all(match_formula(p, a, b) for p, a in zip(kp, kf))


def _match_free(base: Formula, target: Formula, binds) -> Optional[dict]:
    """Match target as base with each free occurrence of a variable in
    binds replaced by one term, the same at every occurrence.  Binders are
    not renamed; a term that a binder of base would capture is rejected.
    Returns the substitution found, or None."""
    sigma: dict = {}

    def wt(u: Term, v: Term, bound: frozenset) -> bool:
        if isinstance(u, Var) and u.name in binds and u.name not in bound:
            if term_vars(v) & bound:
                return False  # capture
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
        ku = children(u)
        if not ku:
            return u == v
        return all(wt(p, q, bound) for p, q in zip(ku, children(v)))

    def wf(a: Formula, c: Formula, bound: frozenset) -> bool:
        if type(a) is not type(c):
            return False
        ka, kc = children(a), children(c)
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
        for p, q in zip(ka, kc):
            if not wf(p, q, bound):
                return False
        return True

    if not wf(base, target, frozenset()):
        return None
    return sigma


def infer_term(template: Formula, instance: Formula, x: str) -> Optional[Term]:
    """Find t with template[t/x] == instance, walking both in parallel.

    Positions where template has a free occurrence of Var(x) may differ;
    everything else must agree.  The substitution is re-run as the
    authoritative check, so the walk only has to propose a candidate.
    """
    sigma = _match_free(template, instance, frozenset((x,)))
    if sigma is None:
        return None
    if x not in sigma:
        return Var(x)  # x not free: identity instance
    t = sigma[x]
    try:
        if subst_term_for_var(template, x, t) != instance:
            return None
    except NotFreeFor:
        return None
    return t


def sigma_match(base: Formula, target: Formula) -> Optional[dict]:
    """Match target as base[sigma] for a substitution sigma of base's free
    justification variables by terms.  Binders are not renamed; a candidate
    that would capture a bound variable is rejected.  Returns sigma (possibly
    empty, meaning base == target) or None."""
    return _match_free(base, target, free_vars(base))


# ---------------------------------------------------------------------------
# axiom schemas

@dataclass(frozen=True)
class AxiomSchema:
    name: str
    pattern: Optional[Formula] = None
    conditions: tuple = ()          # callables binding -> bool
    custom: Optional[Callable] = None  # Formula -> Optional[binding]

    def match(self, f: Formula) -> Optional[dict]:
        if self.custom is not None:
            return self.custom(f)
        b: dict = {}
        if not match_formula(self.pattern, f, b):
            return None
        for cond in self.conditions:
            if not cond(b):
                return None
        return b


_A = FMeta('A')
_B = FMeta('B')
_s = TMeta('s')
_t = TMeta('t')


def _sum_match(f: Formula) -> Optional[dict]:
    # both Sum forms under one name: s:A -> (s+t):A and s:A -> (t+s):A
    for left in (TSum(_s, _t), TSum(_t, _s)):
        b: dict = {}
        pat = Imp(Just(_s, '?g', _A), Just(left, '?g', _A))
        if match_formula(pat, f, b):
            return b
    return None


def _q1_match(f: Formula) -> Optional[dict]:
    # (all x . A) -> A[t/x], t free for x in A
    if not (isinstance(f, Imp) and isinstance(f.a, Forall)):
        return None
    x = f.a.var
    t = infer_term(f.a.a, f.b, x)
    if t is None:
        return None
    return {'v:x': x, 'T:t': t}


def _q3_match(f: Formula) -> Optional[dict]:
    # A[t/x] -> (ex x . A), t free for x in A
    if not (isinstance(f, Imp) and isinstance(f.b, Exists)):
        return None
    x = f.b.var
    t = infer_term(f.b.a, f.a, x)
    if t is None:
        return None
    return {'v:x': x, 'T:t': t}


def _mu_cl_match(f: Formula) -> Optional[dict]:
    # A[mu p. A / p] <-> mu p. A
    if not (isinstance(f, Iff) and isinstance(f.b, Mu)):
        return None
    mu = f.b
    if subst_prop(mu.a, mu.var, mu) != f.a:
        return None
    return {'v:p': mu.var, 'F:A': mu.a}


def _taut_match(f: Formula) -> Optional[dict]:
    return {} if is_tautology(f) else None


def _fv_cond(var_key: str, formula_key: str, absent: bool = True):
    def cond(b):
        inside = b[var_key] in free_vars(b[formula_key])
        return not inside if absent else inside
    return cond


def _lt(key1: str, key2: str):
    return lambda b: b[key1] < b[key2]


def _box_n(n: int, f: Formula) -> Formula:
    for _ in range(n):
        f = Box(f)
    return f


SCHEMAS = {
    # modal
    'K': AxiomSchema('K', Imp(Box(Imp(_A, _B)), Imp(Box(_A), Box(_B)))),
    'T': AxiomSchema('T', Imp(Box(_A), _A)),
    'D': AxiomSchema('D', Imp(Box(_A), Neg(Box(Neg(_A))))),
    '4': AxiomSchema('4', Imp(Box(_A), Box(Box(_A)))),
    'B': AxiomSchema('B', Imp(Neg(_A), Box(Neg(Box(_A))))),
    '5': AxiomSchema('5', Imp(Neg(Box(_A)), Box(Neg(Box(_A))))),
    'lob': AxiomSchema('lob', Imp(Box(Imp(Box(_A), _A)), Box(_A))),
    # justification
    'jk': AxiomSchema('jk', Imp(Just(_s, '?g', Imp(_A, _B)),
                                Imp(Just(_t, '?g', _A),
                                    Just(App(_s, _t), '?g', _B)))),
    'sum': AxiomSchema('sum', custom=_sum_match),
    'jt': AxiomSchema('jt', Imp(Just(_t, '?g', _A), _A)),
    'jd': AxiomSchema('jd', Imp(Just(_t, '?g', Falsum()), Falsum())),
    'j4': AxiomSchema('j4', Imp(Just(_t, '?g', _A),
                                Just(Bang(_t), '?g', Just(_t, '?g', _A)))),
    'jb': AxiomSchema('jb', Imp(Neg(_A),
                                Just(WQuest(_t), '?g',
                                     Neg(Just(_t, '?g', _A))))),
    'j5': AxiomSchema('j5', Imp(Neg(Just(_t, '?g', _A)),
                                Just(Quest(_t), '?g',
                                     Neg(Just(_t, '?g', _A))))),
    'elob': AxiomSchema('elob', Imp(Just(_s, '?g', Imp(Just(_t, '?g', _A), _A)),
                                    Just(_t, '?g', _A))),
    # quantifiers
    'q1': AxiomSchema('q1', custom=_q1_match),
    'q2': AxiomSchema('q2', Imp(Forall('?x', Imp(_A, _B)),
                                Imp(_A, Forall('?x', _B))),
                      conditions=(_fv_cond('v:x', 'F:A'),)),
    'q3': AxiomSchema('q3', custom=_q3_match),
    'q4': AxiomSchema('q4', Imp(Forall('?x', Imp(_A, _B)),
                                Imp(Exists('?x', _A), _B)),
                      conditions=(_fv_cond('v:x', 'F:B'),)),
    'uf': AxiomSchema('uf', Imp(Exists('?y', Just(Var('?y'), '?g',
                                                  Forall('?x', Just(_t, '?g', _A)))),
                                Just(UAll(_t, '?x'), '?g', Forall('?x', _A))),
                      conditions=(
                          lambda b: b['v:y'] not in term_vars(b['T:t']),
                          _fv_cond('v:y', 'F:A'),
                      )),
    # timed knowledge
    'tk': AxiomSchema('tk', Imp(Knows('?i', Imp(_A, _B)),
                                Imp(Knows('?j', _A), Knows('?k', _B))),
                      conditions=(_lt('i:i', 'i:k'), _lt('i:j', 'i:k'))),
    'mon': AxiomSchema('mon', Imp(Knows('?i', _A), Knows('?j', _A)),
                       conditions=(_lt('i:i', 'i:j'),)),
    'tt': AxiomSchema('tt', Imp(Knows('?i', _A), _A)),
    't4': AxiomSchema('t4', Imp(Knows('?i', _A),
                                Knows('?j', Knows('?i', _A))),
                      conditions=(_lt('i:i', 'i:j'),)),
    # fixed points over mu
    'mu-cl': AxiomSchema('mu-cl', custom=_mu_cl_match),
    # last resort
    'taut': AxiomSchema('taut', custom=_taut_match),
}


# The schema is built eagerly, and the parser refuses a formula nested as
# deep as the schema of a larger index, so no step could instantiate one.
_SACCHETTI_MAX = 1000


def sacchetti_schema(n: int) -> AxiomSchema:
    if n < 1:
        raise ValueError("sacchetti index must be >= 1")
    return AxiomSchema('sacchetti-%d' % n,
                       Imp(Box(Imp(_box_n(n, _A), _A)), Box(_A)))


# ---------------------------------------------------------------------------
# logics

@dataclass(frozen=True)
class LogicSpec:
    name: str
    family: str                  # modal | tmel | jl | qlp
    profile: LanguageProfile
    axioms: tuple                # AxiomSchema, in match order, taut last
    rules: frozenset
    spec_kind: Optional[str]     # 'cs' | 'pts' | None
    fp: bool = False
    fp_mode: Optional[str] = None
    mu: bool = False


_MODAL_AXIOMS = {
    'K': ('K',), 'T': ('K', 'T'), 'D': ('K', 'D'), 'K4': ('K', '4'),
    'KB': ('K', 'B'), 'K5': ('K', '5'), 'KB5': ('K', 'B', '5'),
    'K45': ('K', '4', '5'), 'D5': ('K', 'D', '5'), 'DB': ('K', 'D', 'B'),
    'D4': ('K', 'D', '4'), 'D45': ('K', 'D', '4', '5'),
    'TB': ('K', 'T', 'B'), 'S4': ('K', 'T', '4'), 'S5': ('K', 'T', '4', '5'),
    'GL': ('K', '4', 'lob'),
    'GLS': ('K', '4', 'lob', 'T'),
}

_JL_AXIOMS = {
    'J': ('jk', 'sum'),
    'JT': ('jk', 'sum', 'jt'),
    'JD': ('jk', 'sum', 'jd'),
    'J4': ('jk', 'sum', 'j4'),
    'JB': ('jk', 'sum', 'jb'),
    'J5': ('jk', 'sum', 'j5'),
    'LP': ('jk', 'sum', 'jt', 'j4'),
    'JD4': ('jk', 'sum', 'jd', 'j4'),
    'JT45': ('jk', 'sum', 'jt', 'j4', 'j5'),
    'EGL': ('jk', 'sum', 'j4', 'elob'),
}

# term operators demanded by each justification axiom
_TERM_OPS = {
    'jk': {'App'}, 'sum': {'TSum'}, 'j4': {'Bang'}, 'j5': {'Quest'},
    'jb': {'WQuest'}, 'elob': {'App'},
    'q1': set(), 'q2': set(), 'q3': set(), 'q4': set(), 'uf': {'UAll'},
    'jt': set(), 'jd': set(),
}

_MU_BASES = {'K', 'S4', 'S5', 'J', 'LP', 'JT45'}


def _assemble(name: str, family: str, schemas: list, fnodes: set,
              tnodes: set, rules: set, fp: bool, mu: bool, fp_mode: str,
              spec_kind: Optional[str] = None,
              agents: str = 'single') -> LogicSpec:
    """A base logic plus its (FP) and (mu) extensions; taut is tried last."""
    fnodes = set(PROP_NODES) | fnodes
    if fp:
        fnodes.add('FixApp')
        rules.add('fp')
    if mu:
        fnodes.add('Mu')
        rules |= {'mu-cl', 'mu-ind'}
        schemas.append(SCHEMAS['mu-cl'])
    schemas.append(SCHEMAS['taut'])
    profile = LanguageProfile(family, frozenset(fnodes), frozenset(tnodes),
                              agents)
    return LogicSpec(name, family, profile, tuple(schemas), frozenset(rules),
                     spec_kind, fp, fp_mode if fp else None, mu)


def _modal_logic(base: str, fp: bool, mu: bool, extra_schema=None) -> LogicSpec:
    names = _MODAL_AXIOMS[base] if extra_schema is None else ('K',)
    schemas = [SCHEMAS[n] for n in names]
    if extra_schema is not None:
        schemas.append(extra_schema)
    name = (extra_schema.name.capitalize() if extra_schema is not None
            else base)
    return _assemble(name, 'modal', schemas, {'Box'}, set(),
                     {'ax', 'mp', 'nec', 'prop', 'reg', 'premise'},
                     fp, mu, 'modalized')


def _jl_logic(base: str, fp: bool, mu: bool) -> LogicSpec:
    names = _JL_AXIOMS[base]
    tnodes = {'Var', 'Const', 'App', 'TSum'}
    for n in names:
        tnodes |= _TERM_OPS[n]
    rules = {'ax', 'mp', 'ian', 'prop', 'premise', 'inline'}
    if 'j4' in names:
        rules.add('an')
    return _assemble(base, 'jl', [SCHEMAS[n] for n in names], {'Just'},
                     tnodes, rules, fp, mu, 'justified', 'cs')


def _qlp_logic(minus: bool, multi: bool, fp: bool) -> LogicSpec:
    names = ['q1', 'q2', 'q3', 'q4', 'jk', 'jt', 'j4', 'sum']
    tnodes = {'Var', 'Prim', 'App', 'TSum', 'Bang'}
    rules = {'ax', 'mp', 'gen', 'an', 'prop', 'premise', 'inline'}
    if not minus:
        names.append('uf')
        tnodes.add('UAll')
        rules.add('qnec')
    name = ('QLP-' if minus else 'QLP') + ('_n' if multi else '')
    return _assemble(name, 'qlp', [SCHEMAS[n] for n in names],
                     {'Just', 'Forall', 'Exists'}, tnodes, rules, fp, False,
                     'exists_justified', 'pts',
                     'multi' if multi else 'single')


def _tmel_logic(base: str, fp: bool) -> LogicSpec:
    names = {'tK': ('tk', 'mon'), 'tT': ('tk', 'mon', 'tt'),
             'tS4': ('tk', 'mon', 'tt', 't4')}[base]
    rules = {'ax', 'mp', 'prop', 'e', 'de', 'reg', 'premise'}
    if base == 'tS4':
        rules.add('admk')
    return _assemble(base, 'tmel', [SCHEMAS[n] for n in names], {'Knows'},
                     set(), rules, fp, False, 'modalized')


_MODAL_IDS = set(_MODAL_AXIOMS)
_JL_IDS = set(_JL_AXIOMS)


def known_logics() -> list:
    ids = sorted(_MODAL_IDS - {'GLS'}) + ['GLS', 'Sacchetti-n']
    ids += sorted(_JL_IDS)
    ids += ['%s(mu)' % b for b in sorted(_MU_BASES)]
    ids += ['QLP', 'QLP-', 'QLP_n', 'QLP-_n', 'tK', 'tT', 'tS4']
    return ids


class UnknownLogic(Exception):
    pass


def split_logic_id(logic_id: str) -> tuple:
    """(base, suffix) of a logic id.  The suffix is '', '(FP)', '(mu)' or
    '(mu)(FP)'; the base alias JT4 reads as LP."""
    base = logic_id.strip()
    suffix = ''
    for tag in ('(FP)', '(mu)'):
        if base.endswith(tag):
            base, suffix = base[:-len(tag)], tag + suffix
    return ('LP' if base == 'JT4' else base), suffix


def get_logic(logic_id: str) -> LogicSpec:
    """Resolve a logic id, including (FP)/(mu) suffixes and the multi-agent
    QLP variants.  JT4 is accepted as an alias for LP."""
    name, suffix = split_logic_id(logic_id)
    fp, mu = '(FP)' in suffix, '(mu)' in suffix
    if mu and name not in _MU_BASES:
        raise UnknownLogic("no mu extension registered for %r" % name)
    spec = None
    if name.startswith('Sacchetti-'):
        try:
            n = int(name[len('Sacchetti-'):])
        except ValueError:
            raise UnknownLogic(logic_id)
        if not 1 <= n <= _SACCHETTI_MAX:
            raise UnknownLogic(logic_id)
        spec = _modal_logic('K', fp, mu, extra_schema=sacchetti_schema(n))
    elif name in _MODAL_IDS:
        spec = _modal_logic(name, fp, mu)
    elif name in _JL_IDS:
        spec = _jl_logic(name, fp, mu)
    else:
        multi = name.endswith('_n')
        if multi:
            name = name[:-2]
        if name in ('QLP', 'QLP-'):
            spec = _qlp_logic(name == 'QLP-', multi, fp)
        elif not multi and name in ('tK', 'tT', 'tS4'):
            spec = _tmel_logic(name, fp)
    if spec is None:
        raise UnknownLogic(logic_id)
    # display name carries the extension suffixes
    if suffix:
        spec = dataclasses.replace(spec, name=spec.name + suffix)
    return spec


def match_axiom(logic: LogicSpec, f: Formula):
    """First matching schema of the logic, or None.  Formulas outside the
    logic's profile never match."""
    try:
        check_profile(f, logic.profile)
    except ProfileError:
        return None
    for schema in logic.axioms:
        b = schema.match(f)
        if b is not None:
            return schema.name, b
    return None


# ---------------------------------------------------------------------------
# constant / primitive term specifications

@dataclass(frozen=True)
class Spec:
    """Constant specification (JL family) or primitive term specification
    (QLP family), depending on the host logic's spec_kind."""
    kind: str                               # 'total' | 'empty' | 'explicit'
    entries: frozenset = frozenset()        # Formulas, explicit only

    def __str__(self):
        if self.kind == 'explicit':
            return 'explicit(%d entries)' % len(self.entries)
        return self.kind


TOTAL = Spec('total')
EMPTY = Spec('empty')


def _peel_constants(f: Formula):
    # strip c_n : ... : c_1 : A, returning (n, A)
    n = 0
    while isinstance(f, Just) and isinstance(f.t, Const):
        n += 1
        f = f.a
    return n, f


def spec_membership(spec: Spec, f: Formula, logic: LogicSpec,
                    is_axiom: Optional[Callable] = None) -> bool:
    """Is f a licensed necessitation output?  For symbolic-total specs the
    licensed shape is checked structurally: iterated constants (CS) or one
    primitive term (PTS) over an axiom instance.  is_axiom can widen what
    counts as an axiom (fixed-point axioms of declared operators)."""
    if spec.kind == 'empty':
        return False
    if spec.kind == 'explicit':
        return f in spec.entries
    if is_axiom is None:
        is_axiom = lambda g: match_axiom(logic, g) is not None
    if logic.spec_kind == 'pts':
        if not (isinstance(f, Just) and isinstance(f.t, Prim)):
            return False
        return is_axiom(f.a)
    n, core = _peel_constants(f)
    if n == 0:
        return False
    return is_axiom(core)
