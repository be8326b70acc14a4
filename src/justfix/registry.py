"""Logic registry: axiom schemas, rule vocabularies, and specifications.

Every logic the workbench knows is declared once, in the base table, and
assembled from its family and its schemas.  A schema is one or more
alternative pattern formulas over metavariables (FMeta/TMeta for
formula/term slots, '?'-prefixed names for bound-variable, time, and agent
slots) plus side conditions on the resulting binding.  One semantics of
matching, match_node's, serves schemas, term substitution instances
(sigma_match, and infer_term for the quantifier axioms), through
sigma_match, fixed-point instances, and the kernel's shape rules:
metavariables bind whole subtrees, so do the free variables a caller
names unless a binder would capture the term, and nothing matches through
the defined connectives.  A schema's patterns are fixed, so each is
compiled once into a flat program that one loop runs (_compile), with
match_node's binding.  match_node itself walks the patterns built per
query (a fixed-point unfolding, a quantifier's body), since compiling one
costs about twice a walk, and the kernel's rule rows, whose bindings
start seeded with the formulas of a step.

The tautological-consequence engine also lives here (the kernel and the
schema for Taut both need it, and the kernel already imports us).  It
decides each query with a reduced ordered BDD (Bryant 1986): every maximal
subformula that is not a boolean connective becomes one atom, and atoms
are ordered by first sight (goal first, then the premises last to first).
Outside a scope each query builds a BDD of its own.  Inside a
memo_scope the queries share one BDD, as a BDD package shares one node
table among all the functions it builds: its node, apply and formula
tables outlive each query, so a premise or subformula that an earlier
query built costs one lookup, and a repeated query is lookups only, with no
verdict cache in front of the tables.  The order is then the first sight
across the scope, which an earlier query can make hostile to a later one;
so a query may add at most _GROWTH nodes to a table that holds other
queries' nodes, and past that it is built again on a fresh BDD that
replaces the scope's, with its own order and no bound.  An edge to a node
is a ref, the node's index times two plus a complement bit, and a stored
node's hi edge is always regular, so a function and its complement share
one node and negation is free: ~f is the ref of f with its last bit
flipped, which neither builds a node nor recurses.  Each connective is its
truth table as a 4-bit int.  apply returns at once when a leaf, two equal
operands or two complementary ones decide the result, a formula object is
looked up by identity before it is built or its content hashed, and the
premises are not built once the implication is already true.
Separable goals such as excluded-middle conjunctions and parity
equivalences stay linear in the atom count.  An atom order can still make
the BDD exponential: (a1 & b1) | ... | (a12 & b12) with every a seen
before any b takes about 8,200 nodes.

The memo of a scope is one table, opened and dropped by memo_scope and
by nothing else; memo_scope says what it holds.  memo_scope is one small
class, a context manager that also serves as the decorator of the
functions that open a scope, and a nested entry costs one test of the
table.  The outermost scope pauses the cycle collector while it is open,
and memo_scope alone may touch the collector; its docstring says why the
pause is safe and what it costs.  Inside a scope,
match_axiom and get_logic decide each query once, keyed by the identity of
its formula and logic objects (by the id string for get_logic), and a
repeated taut_consequence is lookups in the scope's BDD.  Outside a scope
every call computes.
"""

import gc
from functools import wraps
from operator import attrgetter
from typing import Callable, Optional

from .syntax import (
    Term, Var, Const, Prim, App, TSum, Bang, Quest, WQuest, UAll, TMeta,
    Formula, Falsum, Neg, And, Or, Imp, Iff, Xor, Box, Knows, Just,
    Forall, Exists, Mu, FixApp, FMeta, Node,
    LanguageProfile, PROP_NODES, check_profile, ProfileError,
    free_vars, subst_prop, subst_term_for_var, NotFreeFor,
    record,
)


# ---------------------------------------------------------------------------
# the table of memo_scope, None outside a scope.  A query is keyed by the
# ids of the objects it asks about, not by their content: hashing a formula
# walks all of it, while the repeats come from re-checks that hand the same
# objects back.
# Formulas and logics are frozen, so the same objects always get the same
# answer; a content-equal copy is another object and is decided anew.
_DECISIONS = None


class memo_scope:
    """The memo of a check, as `with memo_scope():` or as the decorator
    `@memo_scope()`.  The outermost scope opens the memo, one table
    (_DECISIONS), and drops it when it ends or raises; nested scopes share
    it, and a nested call of a decorated function is one test of the
    table and a direct call.  The decorator adds one frame to a call, as
    contextlib's does.  The table holds the axiom and logic decisions
    (_decide), the BDD the tautology queries are built on, and the
    kernel's inline images, keyed by the ids of the cone's formulas with
    the cone's rules, refs and args and the ids of its header objects, and
    the folds kernel.resume registers, keyed by the fold's header and the
    first step's formula object.  kernel.check_derivation and elaborate
    open one per call; the corpus runner and the command line open one
    per entry.

    The outermost scope also pauses the cycle collector, and restores the
    state it found when it ends or raises: it disables the collector only
    if it was enabled, and enables it again only if it disabled it.  No
    collection could free anything of the scope's: the table keeps what
    it holds alive until the scope ends, and a check makes no reference
    cycle, so everything else it makes is freed by reference counts
    (tests/test_cycles.py).  So a collection inside a scope is work that
    finds nothing, taken from the check it interrupts.  The pause is the
    process's: other threads run without the collector while a scope is
    open."""
    __slots__ = ('_paused',)

    def __enter__(self):
        global _DECISIONS
        if _DECISIONS is not None:
            self._paused = None         # nested: the outer scope owns it
            return
        self._paused = gc.isenabled()
        if self._paused:
            gc.disable()
        _DECISIONS = {}

    def __exit__(self, *exc):
        global _DECISIONS
        if self._paused is None:
            return
        _DECISIONS = None
        if self._paused:
            gc.enable()

    def __call__(self, fn: Callable) -> Callable:
        @wraps(fn)
        def scoped(*args, **kwargs):
            if _DECISIONS is not None:
                return fn(*args, **kwargs)
            # while a call of fn holds the outermost scope every other call
            # is nested, so this instance serves each outermost one.  Not
            # `with self`, whose lookups of __enter__ and __exit__ make two
            # bound methods, objects whose allocation can start a
            # collection before the pause
            self.__enter__()
            try:
                return fn(*args, **kwargs)
            finally:
                self.__exit__()
        return scoped


def _decide(key, keep, compute: Callable, *args):
    """compute(*args), once per key while a scope is open.  The entry holds
    keep, the objects whose ids are in key, so that no id is reused; a call
    that raises stores nothing."""
    if _DECISIONS is None:
        return compute(*args)
    hit = _DECISIONS.get(key)
    if hit is None:
        hit = _DECISIONS[key] = (keep, compute(*args))
    return hit[1]


# ---------------------------------------------------------------------------
# tautological consequence: a reduced ordered BDD per memo scope, or per
# query outside a scope
#
# A function is a ref, 2 * index + a complement bit, and ref ^ 1 is its
# complement.  Index 0 is the false leaf, so ref 0 is false and ref 1 is
# true, and an index u >= 1 is nodes[u] = (var, lo, hi): "if atom var
# then hi else lo", with lo and hi refs.  Atoms are
# numbered in first-seen order (goal first, then the premises last to
# first), and a lower number sits nearer the root.  A stored node's hi
# edge is always regular (even): node stores the complement of a node
# whose hi edge is complemented and returns its ref ^ 1.  With the unique
# table this keeps the graph canonical, as in Brace, Rudell and Bryant,
# "Efficient implementation of a BDD package" (DAC 1990): a function and
# its complement share one node, a function has exactly one ref, and "is
# a tautology" is "is ref 1".  In an open scope every query builds on the
# scope's BDD, so the tables hold the functions of every query asked there
# and are freed with the scope; outside one they belong to one build.
#
# Atoms shared across a scope are numbered in first-seen order across the
# scope, so an earlier query fixes part of a later query's order, and an
# order can cost exponentially many nodes.  After a query that sees a0 ..
# a13 before b0 .. b13, P -> (P | z), where P is (a0 & b0) | ... |
# (a13 & b13), adds 65,532 nodes; a fresh table, which numbers each b
# beside its a, takes 97.  So before a query on a table that holds other
# queries' nodes, _consequence_bdd sets the table's limit _GROWTH nodes
# past its size; node raises _Overgrown rather than pass it, and the query
# is built again on a fresh BDD, with no limit, which then serves the rest
# of the scope.  No query of the corpus or of the benchmark workloads adds
# more than 88 nodes to a table.
#
# A connective is its truth table as a 4-bit int, bit 2a+b holding f(a,b).
# Negation is free: build negates a formula's ref by ^ 1, and apply
# returns at once when a leaf operand, two equal operands or two
# complementary ones (u ^ v == 1) leave a constant, an operand or its
# complement.  So apply recurses only on two distinct operands that are
# not each other's complement.  The apply memo makes each (op, ref, ref)
# triple cost one visit, and a commutative table keys the smaller ref
# first.

_CONNECTIVES = {And: 8, Or: 14, Imp: 11, Iff: 9, Xor: 6}
_LEAF = float('inf')


class _Overgrown(Exception):
    """A query on a shared table reached its node limit."""


class _BDD:
    def __init__(self):
        # the false leaf tests no atom (it sorts below every var) and is
        # its own cofactor
        self.nodes: list = [(_LEAF, 0, 0)]
        self.unique: dict = {}   # (var, lo, hi) -> regular ref
        self.memo: dict = {}     # (op, u, v) -> ref
        self.atoms: dict = {}    # Formula -> var
        # id(Formula) -> (Formula, ref): a formula object is built once per
        # BDD, and holding it keeps its id from being reused
        self.seen: dict = {}
        # node raises _Overgrown rather than grow the table past limit
        # nodes
        self.limit: float = float('inf')

    def node(self, var: int, lo: int, hi: int) -> int:
        if lo == hi:
            return lo
        neg = hi & 1
        key = (var, lo ^ neg, hi ^ neg)
        u = self.unique.get(key)
        if u is None:
            if len(self.nodes) >= self.limit:
                raise _Overgrown
            u = self.unique[key] = 2 * len(self.nodes)
            self.nodes.append(key)
        return u ^ neg

    def apply(self, op: int, u: int, v: int) -> int:
        # with a leaf operand, or u == v, or u == v ^ 1, the result is a
        # function g of one operand w; t holds g(0) in bit 0 and g(1) in
        # bit 1
        if u < 2:
            t, w = op >> 2 * u & 3, v
        elif v < 2:
            t, w = op >> v & 1 | op >> v + 1 & 2, u
        elif u == v:
            t, w = op & 1 | op >> 2 & 2, u
        elif u ^ v == 1:
            t, w = op >> 1 & 3, u
        else:
            t = -1
            if u > v and not (op ^ op >> 1) & 2:
                u, v = v, u     # f(0,1) == f(1,0): one key for both orders
        if t == 2:
            return w
        if t == 1:
            return w ^ 1
        if t >= 0:
            return t & 1
        # two distinct operands, neither the other's complement
        key = (op, u, v)
        r = self.memo.get(key)
        if r is None:
            iu, u0, u1 = self.nodes[u >> 1]
            iv, v0, v1 = self.nodes[v >> 1]
            var = min(iu, iv)
            if iu > var:
                u0 = u1 = u
            elif u & 1:
                u0, u1 = u0 ^ 1, u1 ^ 1
            if iv > var:
                v0 = v1 = v
            elif v & 1:
                v0, v1 = v0 ^ 1, v1 ^ 1
            r = self.memo[key] = self.node(var, self.apply(op, u0, v0),
                                           self.apply(op, u1, v1))
        return r

    def build(self, f: Formula) -> int:
        """The ref of f; every maximal subformula that is not a boolean
        connective or Falsum is one atom, shared by formula equality."""
        hit = self.seen.get(id(f))
        if hit is not None:
            return hit[1]
        kind = type(f)
        op = _CONNECTIVES.get(kind)
        if kind is Imp:
            u = self.apply(op, self.build(f.a), self.build(f.b))
        elif op is not None:
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
            nodes = self.nodes
            operands.sort(key=lambda u: nodes[u >> 1][0], reverse=True)
            u = operands[0]
            for v in operands[1:]:
                u = self.apply(op, v, u)
        elif kind is Neg:
            u = self.build(f.a) ^ 1
        elif kind is Falsum:
            u = 0
        else:
            # Atom, Box, Knows, Just, Forall, Exists, Mu, FixApp: opaque
            u = self.node(self.atoms.setdefault(f, len(self.atoms)), 0, 1)
        self.seen[id(f)] = f, u
        return u


# the most nodes a query may add to a table that holds other queries' nodes
_GROWTH = 2000


def _consequence_bdd(goal: Formula, premises: list) -> tuple:
    """(node, bdd) of the implication from premises to goal; the bdd is
    returned so that tests can read the size of its node table.  In an
    open scope the query is built on the scope's BDD, and on a fresh one
    that replaces it if it would add more than _GROWTH nodes there.  Once
    the implication is node 1 the remaining premises are not built."""
    if _DECISIONS is None:
        return _implication(_BDD(), goal, premises)
    bdd = _DECISIONS.get('bdd')
    if bdd is not None and len(bdd.nodes) > 1:
        bdd.limit = len(bdd.nodes) + _GROWTH
        try:
            return _implication(bdd, goal, premises)
        except _Overgrown:
            pass
    bdd = _DECISIONS['bdd'] = _BDD()
    return _implication(bdd, goal, premises)


def _implication(bdd: _BDD, goal: Formula, premises: list) -> tuple:
    u = bdd.build(goal)
    for p in reversed(premises):
        if u == 1:
            break
        u = bdd.apply(_CONNECTIVES[Imp], bdd.build(p), u)
    return u, bdd


def taut_consequence(goal: Formula, premises: list) -> bool:
    """True iff goal follows truth-functionally from premises, atomizing
    maximal non-boolean subformulas consistently across all of them."""
    return _consequence_bdd(goal, premises)[0] == 1


def is_tautology(f: Formula) -> bool:
    return taut_consequence(f, [])


# ---------------------------------------------------------------------------
# pattern matching: one walk for substitution instances and fixed-point
# instances, whose order the schemas' programs follow

def _bind(b: dict, key: str, val) -> bool:
    if key in b:
        return b[key] == val
    b[key] = val
    return True


def _slot(b: dict, kind: str, pat, val) -> bool:
    # a '?'-named bound-variable, time or agent slot binds; anything else
    # must be equal
    if isinstance(pat, str) and pat.startswith('?'):
        return _bind(b, kind + ':' + pat[1:], val)
    return pat == val


def match_node(pat: Node, tgt: Node, b: dict, binds: frozenset = frozenset(),
               bound: frozenset = frozenset()) -> bool:
    """Match the formula or term tgt against pat, extending the binding b.

    A schema metavariable binds what it meets, the same at every
    occurrence: FMeta under 'F:name', TMeta under 'T:name', a '?name'
    variable (variables only) and a '?name' bound-variable, time or agent
    slot under 'v:', 'i:' or 'a:'.  So does a free occurrence of a variable
    in binds, under its own name, unless a binder of pat would capture a
    variable of the term it meets.  Everything else must agree node for
    node; binders are not renamed.  bound is internal: the individual
    variables bound by the binders of pat above this node.

    The walk is pre-order (a justification's term, agent, then body; any
    other node's slot before its children), with a call per pattern node.
    A schema runs its patterns' programs instead (_compile), which give
    the same binding.
    """
    kind = type(pat)
    if kind is FMeta:
        return _bind(b, 'F:' + pat.name, tgt)
    if kind is TMeta:
        return _bind(b, 'T:' + pat.name, tgt)
    if kind is Var:
        if pat.name.startswith('?'):
            return type(tgt) is Var and _bind(b, 'v:' + pat.name[1:], tgt.name)
        if pat.name in binds and pat.name not in bound:
            return not free_vars(tgt) & bound and _bind(b, pat.name, tgt)
    if kind is not type(tgt):
        return False
    if kind is Just:
        if not (match_node(pat.t, tgt.t, b, binds, bound)
                and _slot(b, 'a', pat.agent, tgt.agent)):
            return False
    elif kind is Knows:
        if not _slot(b, 'i', pat.time, tgt.time):
            return False
    elif kind in (Forall, Exists, UAll, Mu):
        if not _slot(b, 'v', pat.var, tgt.var):
            return False
        if kind is not Mu:   # mu binds an atom, not an individual variable
            bound = bound | {pat.var}
    elif kind is FixApp:
        if pat.name != tgt.name or len(pat.args) != len(tgt.args):
            return False
    elif kind is Prim:
        # the arguments are variable names; each is matched as a variable
        return (pat.symbol == tgt.symbol and len(pat.args) == len(tgt.args)
                and all(match_node(Var(x), Var(y), b, binds, bound)
                        for x, y in zip(pat.args, tgt.args)))
    kids = pat.children()
    if not kids:
        return pat == tgt
    for p, q in zip(kids, tgt.children()):
        if not match_node(p, q, b, binds, bound):
            return False
    return True


def infer_term(template: Formula, instance: Formula, x: str) -> Optional[Term]:
    """Find t with template[t/x] == instance, walking both in parallel.

    Positions where template has a free occurrence of Var(x) may differ;
    everything else must agree.  The substitution is re-run as the
    authoritative check, so the walk only has to propose a candidate.
    """
    sigma: dict = {}
    if not match_node(template, instance, sigma, frozenset((x,))):
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
    sigma: dict = {}
    return sigma if match_node(base, target, sigma, free_vars(base)) else None


# ---------------------------------------------------------------------------
# axiom schemas

@record
class AxiomSchema:
    name: str
    match: Callable   # Formula -> Optional[binding]


# The instructions (op, register, a, c) of a program; register 0 holds
# the formula.  _NODE checks that its register holds a node of class a and
# appends the fields the attrgetter c reads (_NODE1: the one field c
# reads); _BIND binds the key a to its register; _SAME compares it with
# the key's binding; _EQ compares it with the constant a.
_NODE, _NODE1, _BIND, _SAME, _EQ = range(5)
# the fields of a node that are slots, and their key kinds
_SLOTS = {'agent': 'a', 'time': 'i', 'var': 'v'}


def _compile(pat: Node) -> tuple:
    """The flat program that matches pat as match_node does with no
    variable in binds: the instructions come in match_node's pre-order, so
    the first occurrence of a key binds and each later one compares, and
    the binding is match_node's.  It is built with a stack, not a call per
    level, since a pattern can be as deep as the parser allows.  A stack
    item is a register, the piece of pat it must match and how: None for
    a node, '=' for a field that must be equal, or the key kind of a slot,
    which binds when it is '?'-named.  A tuple field, the arguments of fix
    or of a primitive term, must be equal as a whole, so no schema puts a
    metavariable or a '?' slot there."""
    program, keys, todo, regs = [], set(), [(0, pat, None)], 1
    while todo:
        r, p, how = todo.pop()
        kind = type(p)
        if how is None:
            if kind is FMeta or kind is TMeta:
                p, how = '?' + p.name, kind.__name__[0]
            elif kind is Var and p.name.startswith('?'):
                program.append((_NODE1, r, Var, attrgetter('name')))
                r, p, how, regs = regs, p.name, 'v', regs + 1
            elif not p.children():
                how = '='
            else:
                # match_node's order: a justification's term, agent and
                # body; the slot of any other node, then its other fields
                fields = p.__match_args__
                if kind is not Just:
                    fields = sorted(fields, key=_SLOTS.__contains__,
                                    reverse=True)
                program.append((_NODE1 if len(fields) == 1 else _NODE, r,
                                kind, attrgetter(*fields)))
                items = []
                for f in fields:
                    v = getattr(p, f)
                    items.append((regs, v, _SLOTS.get(f) or (
                        None if isinstance(v, (Formula, Term)) else '=')))
                    regs += 1
                todo += reversed(items)
                continue
        if how == '=' or not (isinstance(p, str) and p.startswith('?')):
            program.append((_EQ, r, p, None))
        else:
            key = how + ':' + p[1:]
            program.append((_SAME if key in keys else _BIND, r, key, None))
            keys.add(key)
    return tuple(program)


def _schema(name: str, *patterns: Formula, conditions: tuple = ()) -> AxiomSchema:
    """The schema whose instances match one of the patterns, tried in order,
    with a binding that meets every condition (callables binding -> bool).
    Each pattern is compiled once, when the schema is made (_compile), and
    a match runs each program in one loop, with no call per pattern node.
    Compiling at the first match instead would bill the compile to the
    first check that tries the schema in each process."""
    programs = tuple(map(_compile, patterns))

    def match_schema(f: Formula) -> Optional[dict]:
        for program in programs:
            regs, b = [f], {}
            for op, r, a, c in program:
                x = regs[r]
                if op == _NODE:
                    if type(x) is not a:
                        break
                    regs += c(x)
                elif op == _BIND:
                    b[a] = x
                elif op == _SAME:
                    # a record equals itself, so the same object is equal
                    y = b[a]
                    if y is not x and not y == x:
                        break
                elif op == _NODE1:
                    if type(x) is not a:
                        break
                    regs.append(c(x))
                elif not a == x:
                    break
            else:
                if not conditions or all(cond(b) for cond in conditions):
                    return b
        return None
    return AxiomSchema(name, match_schema)


def _quantifier_schema(name: str, binder: type) -> AxiomSchema:
    """q1, (all x . A) -> A[t/x], or q3, A[t/x] -> (ex x . A), with t free
    for x in A, read off the side without the quantifier."""
    def match_schema(f: Formula) -> Optional[dict]:
        if type(f) is not Imp:
            return None
        q, instance = (f.a, f.b) if binder is Forall else (f.b, f.a)
        if type(q) is not binder:
            return None
        t = infer_term(q.a, instance, q.var)
        return None if t is None else {'v:x': q.var, 'T:t': t}
    return AxiomSchema(name, match_schema)


def _mu_cl_match(f: Formula) -> Optional[dict]:
    # A[mu p. A / p] <-> mu p. A
    if not (isinstance(f, Iff) and isinstance(f.b, Mu)):
        return None
    mu = f.b
    try:
        unfolded = subst_prop(mu.a, mu.var, mu)
    except NotFreeFor:      # mu p. A is not free for p in A
        return None
    if unfolded != f.a:
        return None
    return {'v:p': mu.var, 'F:A': mu.a}


def _not_free(var_key: str, node_key: str):
    return lambda b: b[var_key] not in free_vars(b[node_key])


def _lt(key1: str, key2: str):
    return lambda b: b[key1] < b[key2]


_A = FMeta('A')
_B = FMeta('B')
_s = TMeta('s')
_t = TMeta('t')


SCHEMAS = {
    # modal
    'K': _schema('K', Imp(Box(Imp(_A, _B)), Imp(Box(_A), Box(_B)))),
    'T': _schema('T', Imp(Box(_A), _A)),
    'D': _schema('D', Imp(Box(_A), Neg(Box(Neg(_A))))),
    '4': _schema('4', Imp(Box(_A), Box(Box(_A)))),
    'B': _schema('B', Imp(Neg(_A), Box(Neg(Box(_A))))),
    '5': _schema('5', Imp(Neg(Box(_A)), Box(Neg(Box(_A))))),
    'lob': _schema('lob', Imp(Box(Imp(Box(_A), _A)), Box(_A))),
    # justification
    'jk': _schema('jk', Imp(Just(_s, '?g', Imp(_A, _B)),
                            Imp(Just(_t, '?g', _A),
                                Just(App(_s, _t), '?g', _B)))),
    'sum': _schema('sum', Imp(Just(_s, '?g', _A), Just(TSum(_s, _t), '?g', _A)),
                   Imp(Just(_s, '?g', _A), Just(TSum(_t, _s), '?g', _A))),
    'jt': _schema('jt', Imp(Just(_t, '?g', _A), _A)),
    'jd': _schema('jd', Imp(Just(_t, '?g', Falsum()), Falsum())),
    'j4': _schema('j4', Imp(Just(_t, '?g', _A),
                            Just(Bang(_t), '?g', Just(_t, '?g', _A)))),
    'jb': _schema('jb', Imp(Neg(_A),
                            Just(WQuest(_t), '?g', Neg(Just(_t, '?g', _A))))),
    'j5': _schema('j5', Imp(Neg(Just(_t, '?g', _A)),
                            Just(Quest(_t), '?g', Neg(Just(_t, '?g', _A))))),
    'elob': _schema('elob', Imp(Just(_s, '?g', Imp(Just(_t, '?g', _A), _A)),
                                Just(_t, '?g', _A))),
    # quantifiers
    'q1': _quantifier_schema('q1', Forall),
    'q2': _schema('q2', Imp(Forall('?x', Imp(_A, _B)), Imp(_A, Forall('?x', _B))),
                  conditions=(_not_free('v:x', 'F:A'),)),
    'q3': _quantifier_schema('q3', Exists),
    'q4': _schema('q4', Imp(Forall('?x', Imp(_A, _B)), Imp(Exists('?x', _A), _B)),
                  conditions=(_not_free('v:x', 'F:B'),)),
    'uf': _schema('uf', Imp(Exists('?y', Just(Var('?y'), '?g',
                                              Forall('?x', Just(_t, '?g', _A)))),
                            Just(UAll(_t, '?x'), '?g', Forall('?x', _A))),
                  conditions=(_not_free('v:y', 'T:t'),
                              _not_free('v:y', 'F:A'))),
    # timed knowledge
    'tk': _schema('tk', Imp(Knows('?i', Imp(_A, _B)),
                            Imp(Knows('?j', _A), Knows('?k', _B))),
                  conditions=(_lt('i:i', 'i:k'), _lt('i:j', 'i:k'))),
    'mon': _schema('mon', Imp(Knows('?i', _A), Knows('?j', _A)),
                   conditions=(_lt('i:i', 'i:j'),)),
    'tt': _schema('tt', Imp(Knows('?i', _A), _A)),
    't4': _schema('t4', Imp(Knows('?i', _A), Knows('?j', Knows('?i', _A))),
                  conditions=(_lt('i:i', 'i:j'),)),
    # fixed points over mu
    'mu-cl': AxiomSchema('mu-cl', _mu_cl_match),
    # last resort
    'taut': AxiomSchema('taut', lambda f: {} if is_tautology(f) else None),
}


# The schema is built eagerly, and the parser refuses a formula nested as
# deep as the schema of a larger index, so no step could instantiate one.
_SACCHETTI_MAX = 1000


def sacchetti_schema(n: int) -> AxiomSchema:
    if n < 1:
        raise ValueError("sacchetti index must be >= 1")
    box_n = _A
    for _ in range(n):
        box_n = Box(box_n)
    return _schema('sacchetti-%d' % n, Imp(Box(Imp(box_n, _A)), Box(_A)))


# ---------------------------------------------------------------------------
# logics

@record
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


# base logic -> (family, schema names in match order).  Every logic is
# declared here once, and `logics list` follows this order.
_BASES = {
    'D': ('modal', 'K D'), 'D4': ('modal', 'K D 4'), 'D45': ('modal', 'K D 4 5'),
    'D5': ('modal', 'K D 5'), 'DB': ('modal', 'K D B'),
    'GL': ('modal', 'K 4 lob'), 'K': ('modal', 'K'), 'K4': ('modal', 'K 4'),
    'K45': ('modal', 'K 4 5'), 'K5': ('modal', 'K 5'), 'KB': ('modal', 'K B'),
    'KB5': ('modal', 'K B 5'), 'S4': ('modal', 'K T 4'),
    'S5': ('modal', 'K T 4 5'), 'T': ('modal', 'K T'), 'TB': ('modal', 'K T B'),
    'GLS': ('modal', 'K 4 lob T'),
    'EGL': ('jl', 'jk sum j4 elob'), 'J': ('jl', 'jk sum'),
    'J4': ('jl', 'jk sum j4'), 'J5': ('jl', 'jk sum j5'),
    'JB': ('jl', 'jk sum jb'), 'JD': ('jl', 'jk sum jd'),
    'JD4': ('jl', 'jk sum jd j4'), 'JT': ('jl', 'jk sum jt'),
    'JT45': ('jl', 'jk sum jt j4 j5'), 'LP': ('jl', 'jk sum jt j4'),
    'QLP': ('qlp', 'q1 q2 q3 q4 jk jt j4 sum uf'),
    'QLP-': ('qlp', 'q1 q2 q3 q4 jk jt j4 sum'),
    'tK': ('tmel', 'tk mon'), 'tT': ('tmel', 'tk mon tt'),
    'tS4': ('tmel', 'tk mon tt t4'),
}

# family -> (formula nodes beyond PROP_NODES, term nodes, rules, FP
# occurrence mode, specification kind)
_FAMILIES = {
    'modal': ({'Box'}, (), ('ax', 'mp', 'nec', 'prop', 'reg', 'premise'),
              'modalized', None),
    'jl': ({'Just'}, ('Var', 'Const'),
           ('ax', 'mp', 'ian', 'prop', 'premise', 'inline'), 'justified', 'cs'),
    'qlp': ({'Just', 'Forall', 'Exists'}, ('Var', 'Prim'),
            ('ax', 'mp', 'gen', 'prop', 'premise', 'inline'),
            'exists_justified', 'pts'),
    'tmel': ({'Knows'}, (), ('ax', 'mp', 'prop', 'e', 'de', 'reg', 'premise'),
             'modalized', None),
}

# schema -> (term operators, rules) it brings to every logic that has it
_SCHEMA_ADDS = {
    'jk': (('App',), ()), 'elob': (('App',), ()), 'sum': (('TSum',), ()),
    'j4': (('Bang',), ('an',)), 'j5': (('Quest',), ()), 'jb': (('WQuest',), ()),
    'uf': (('UAll',), ('qnec',)), 't4': ((), ('admk',)),
}

_MU_BASES = {'K', 'S4', 'S5', 'J', 'LP', 'JT45'}


def _assemble(name: str, family: str, schemas: list, fp: bool, mu: bool,
              agents: str = 'single') -> LogicSpec:
    """The logic of a family with the given schemas, extended by (FP) and
    (mu); name is its display name, suffixes included.  taut is tried
    last."""
    fnodes, tnodes, rules, fp_mode, spec_kind = _FAMILIES[family]
    fnodes, tnodes, rules = PROP_NODES | fnodes, set(tnodes), set(rules)
    for schema in schemas:
        ops, more = _SCHEMA_ADDS.get(schema.name, ((), ()))
        tnodes.update(ops)
        rules.update(more)
    if fp:
        fnodes |= {'FixApp'}
        rules.add('fp')
    if mu:
        fnodes |= {'Mu'}
        rules |= {'mu-cl', 'mu-ind'}
        schemas.append(SCHEMAS['mu-cl'])
    schemas.append(SCHEMAS['taut'])
    profile = LanguageProfile(family, fnodes, frozenset(tnodes), agents)
    return LogicSpec(name, family, profile, tuple(schemas), frozenset(rules),
                     spec_kind, fp, fp_mode if fp else None, mu)


def known_logics() -> list:
    of = lambda family: [b for b, (f, _) in _BASES.items() if f == family]
    return (of('modal') + ['Sacchetti-n'] + of('jl')
            + ['%s(mu)' % b for b in sorted(_MU_BASES)]
            + of('qlp') + [b + '_n' for b in of('qlp')] + of('tmel'))


class UnknownLogic(Exception):
    pass


def split_logic_id(logic_id: str) -> tuple:
    """(base, multi, suffix) of a logic id.  multi is the multi-agent
    marker '_n' or ''; the suffix is '', '(FP)', '(mu)' or '(mu)(FP)'; the
    base alias JT4 reads as LP."""
    base = logic_id.strip()
    suffix = ''
    for tag in ('(FP)', '(mu)'):
        if base.endswith(tag):
            base, suffix = base[:-len(tag)], tag + suffix
    if base == 'JT4':
        return 'LP', '', suffix
    if base.endswith('_n'):
        return base[:-2], '_n', suffix
    return base, '', suffix


def get_logic(logic_id: str) -> LogicSpec:
    """Resolve a logic id: a base logic, Sacchetti-<n>, or QLP/QLP- with the
    multi-agent marker _n, then the (FP)/(mu) suffixes.  JT4 is accepted
    as an alias for LP.  Within one scope an id gets one LogicSpec."""
    return _decide(('logic', logic_id), None, _resolve_logic, logic_id)


def _resolve_logic(logic_id: str) -> LogicSpec:
    base, multi, suffix = split_logic_id(logic_id)
    fp, mu = '(FP)' in suffix, '(mu)' in suffix
    if mu and (multi or base not in _MU_BASES):
        raise UnknownLogic("no mu extension registered for %r"
                           % (base + multi))
    if base.startswith('Sacchetti-') and not multi:
        index = base[len('Sacchetti-'):]
        # int alone also reads '1_0', '+2', ' 2' and non-ASCII digits
        if not (index.isascii() and index.isdigit()):
            raise UnknownLogic(logic_id)
        n = int(index)
        if not 1 <= n <= _SACCHETTI_MAX:
            raise UnknownLogic(logic_id)
        return _assemble('Sacchetti-%d%s' % (n, suffix), 'modal',
                         [SCHEMAS['K'], sacchetti_schema(n)], fp, mu)
    family, names = _BASES.get(base, (None, ''))
    if family is None or (multi and family != 'qlp'):
        raise UnknownLogic(logic_id)
    return _assemble(base + multi + suffix, family,
                     [SCHEMAS[n] for n in names.split()], fp, mu,
                     'multi' if multi else 'single')


def match_axiom(logic: LogicSpec, f: Formula):
    """First matching schema of the logic, or None.  Formulas outside the
    logic's profile never match."""
    return _decide(('axiom', id(logic), id(f)), (logic, f),
                   _first_match, logic, f)


def _first_match(logic: LogicSpec, f: Formula):
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

@record
class Spec:
    """Constant specification (JL family) or primitive term specification
    (QLP family), depending on the host logic's spec_kind."""
    kind: str                               # 'total' | 'empty' | 'explicit'
    entries: frozenset = frozenset()        # Formulas, explicit only


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
