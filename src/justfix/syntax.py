"""Terms, formulas, parsing, printing, substitution, occurrence checks.

Concrete grammar (ASCII).  BINARY, PREFIX, BINDER and TERM_PREFIX are
the tokens of the like-named tables under "operators" below (_BINARY,
...), which the scanner, the parser and the printer all read; a binary
operator's level there sets its precedence, its grouping and its sort.

    formula  ::= imp
    imp      ::= unary (BINARY unary)*      formula levels
    unary    ::= PREFIX unary | BINDER IDENT '.' imp
               | 'K' '@' NUM unary
               | term ':' unary | term ':@' IDENT unary
               | primary
    primary  ::= 'false' | IDENT
               | 'fix' '(' IDENT (';' imp (',' imp)*)? ')'
               | '(' imp ')'

    term     ::= tunary (BINARY tunary)*    term levels
    tunary   ::= TERM_PREFIX tunary | tprimary
    tprimary ::= IDENT | IDENT '(' IDENT (',' IDENT)* ')'
               | '(' term 'all' IDENT ')' | '(' term ')'

Binders (all, ex, mu, nu) take maximal right scope; parenthesize to stop
them.  '<>' abbreviates ~[]~ and 'nu p . A' abbreviates ~mu p . ~A[p := ~p];
both are expanded at parse time and never appear in trees.

Identifier roles in term position follow a lexical convention: a name whose
first character is one of s t u v w x y z is a variable, anything else is a
constant (or, in languages without constants, a 0-ary primitive term).
Primitive terms take variable names as arguments, f(x, y).  '#' is allowed
inside identifiers, so machine-generated names like c#3 stay parseable.

Formula equality is structural.  Printing is inverse to parsing within one
language profile.

The parser builds every node through a table, keyed by the node's class,
its other fields and the ids of its children, so equal subtrees parsed
under one table are one object.  parse_formula and parse_term take the
table as a keyword argument and use a fresh one per call without it;
kernel.parse_derivation and semantics.parse_model keep one per file they
read, and drop it when they return.  The table holds every node whose id
is in a key, so no id is reused while it lives.  Sharing changes no
equality: nodes still compare and hash by their fields.  share puts a
node built elsewhere in a table under the same key; transforms.project
and transforms.collapse_agents build their images through it.

The table also memoizes each parenthesized formula group of more than
_GROUP_MIN (40) tokens, by its tokens and the profile, as in packrat
parsing (Ford, "Packrat parsing: simple, powerful, lazy, linear time",
ICFP 2002) but keyed by content, not position: a group that repeats a
stored one takes its formula and skips past its ')'.  Only groups that
parsed are stored, so every error stays as it was.  A stored group keeps
the room left on the stack (the recursion limit less the stack depth)
where it parsed, and is served only where at least that much room is
left; elsewhere it is parsed again, and stored with the new room.  So no
input that the parser would refuse as nested too deeply is accepted.
Smaller groups are parsed as before: storing a group costs a copy of its
tokens and a count of the stack, and few small groups come back where
they could be served.

The parser looks ahead instead of backtracking: it tries the term path of
t : A only where a term can start and a ':' or ':@' can follow it, and
in a text without ':' it never tries it.  Each node gets one language
fact, the mask of the node kinds under it, when it is built, from its
children's, in the __init__ that record generates, outside its record
fields: nodes stay plain values, compared, hashed and printed by their
fields alone, and no table outlives them.  So a profile check is one mask
test.  Only a check that fails walks the formula, to name its first error,
and so does an agent check on a formula with a justification, to compare
its labels with the declared agents.

Every node, and every value class of the other modules (steps, verdicts,
derivations, profiles), is a frozen record (see record): a class with
__slots__, the fields in order and then its declared extras (_kinds on a
node, _admitted on a LanguageProfile), so an instance is one allocation
with no __dict__; Formula and Term have empty __slots__.  The generated
__init__ stores each field through its slot's descriptor, because the
class refuses assignment, and __reduce__ rebuilds an instance from its
fields, so copy, deepcopy and pickle go through __init__ too.
"""

from __future__ import annotations

import re
import sys
from typing import Iterator, Optional, Union


class ParseError(Exception):
    pass


class NotFreeFor(Exception):
    """Substitution would capture a variable or break term formation."""


class ProfileError(Exception):
    """Formula uses syntax outside the logic's language."""


class PositivityError(Exception):
    """mu binds a variable with a non-positive occurrence."""


class FrozenRecordError(AttributeError):
    """Assignment to, or deletion of, an attribute of a frozen record."""


# ------------------------------------------------------------- records

_RECORD_METHODS = '''
def __init__(self, {params}):
{stores}
def __eq__(self, other):
    if other.__class__ is self.__class__:
        return ({mine}) == ({theirs})
    return NotImplemented
def __hash__(self):
    return hash(({mine}))
def __replace__(self{changes}):
    return self.__class__({kept})
'''
_NODE_METHODS = '''
def children(self):
    return {kids}
def rebuild(self, kids):
    return {rebuilt}
'''


def _refuse_set(self, name, value):
    raise FrozenRecordError(f"cannot assign to field {name!r}")


def _refuse_del(self, name):
    raise FrozenRecordError(f"cannot delete field {name!r}")


def _repr(self):
    return self.__class__.__qualname__ + "(" + ", ".join(
        [f"{f}={getattr(self, f)!r}" for f in self.__match_args__]) + ")"


def _reduce(self):
    return self.__class__, tuple([getattr(self, f)
                                  for f in self.__match_args__])


def record(cls):
    """Class decorator: a frozen value class over the annotated fields of
    cls, in order, with their class attributes as defaults.  It returns a
    new class, built from the body of cls, whose __slots__ are the fields
    and then the names cls declares in its own __slots__ (attributes it
    sets itself, outside the fields; a node also gets _kinds), so an
    instance is one allocation with no __dict__.  The defaults move to
    the parameters of the __init__ it adds, which stores each field
    through its slot's descriptor (then runs __post_init__, if cls has
    one).  It also adds a repr of the form Name(field=value, ...), == and
    hash on the field tuple between instances of one class, an assignment
    and deletion that raise, a __replace__ that takes each field by
    keyword only and keeps the current value of every field not given, a
    __reduce__ that rebuilds an instance from its fields through
    __init__, so copy and pickle never assign to a slot, and
    __match_args__, the field names.

    A Formula or Term node also gets children() and rebuild(kids).  Its
    children are the fields annotated with its own sort, or with a tuple
    of it (the arguments of fix, its only child field), in field order: a
    formula's children are formulas (the term of t : A is a field, not a
    child) and a term's children are terms.  rebuild keeps every other
    field, a node without child fields rebuilds to itself, and a rebuilt
    mu re-checks positivity.  The __init__ of a node also sets its kinds
    mask (see _facts_source).
    The methods of a class that depend on its fields come from one exec of
    a source that names the class, its constants and its slot stores
    (_set_<name>, the __set__ of the slot's descriptor, bound once) only
    through the exec's globals, so the classes of one shape (And, Or, Imp,
    Iff and Xor, say) share one compiled source.  The methods go into the
    body before the class is made, so no slot of the type is updated
    after.  The methods that refuse assignment and deletion, and the
    repr and __reduce__, which no check calls, read no field by name, so
    every record shares them: in each source they would be compiled at
    every start for printing, copy and pickle alone."""
    fields = tuple(cls.__annotations__)
    node = issubclass(cls, (Formula, Term))
    body = dict(cls.__dict__)
    extras = body.pop('__slots__', ())
    for name in (*extras, '__dict__', '__weakref__'):
        body.pop(name, None)
    env = {'_keep': object(), '_LJ': _LABELED_JUST}
    params = []
    for f in fields:
        if f in body:
            env['_d_' + f] = body.pop(f)
            params.append(f'{f}=_d_{f}')
        else:
            params.append(f)
    stores = [f"    _set_{f}(self, {f})" for f in fields]
    if node:
        stores += _facts_source(cls)
    if hasattr(cls, '__post_init__'):
        stores.append('    self.__post_init__()')
    keywords = ''.join(f', {f}=_keep' for f in fields)
    parts = {
        'params': ', '.join(params),
        'stores': '\n'.join(stores) or '    pass',
        'mine': ''.join(f'self.{f}, ' for f in fields),
        'theirs': ''.join(f'other.{f}, ' for f in fields),
        # a record without fields takes no keyword, so it has no bare *
        'changes': keywords and ', *' + keywords,
        'kept': ', '.join(f'self.{f} if {f} is _keep else {f}'
                          for f in fields),
    }
    source = _RECORD_METHODS.format(**parts)
    for sort in (s.__name__ for s in (Formula, Term) if issubclass(cls, s)):
        kids = [f for f in fields if cls.__annotations__[f] == sort]
        from_kids = {f: f'kids[{k}]' for k, f in enumerate(kids)}
        shown = '(' + ''.join(f'self.{f}, ' for f in kids) + ')'
        for f in fields:
            if cls.__annotations__[f] == f'tuple[{sort}, ...]':
                from_kids, shown = {f: 'tuple(kids)'}, f'self.{f}'
        args = ', '.join(from_kids.get(f, f'self.{f}') for f in fields)
        source += _NODE_METHODS.format(
            kids=shown, rebuilt=f'_cls({args})' if from_kids else 'self')
    code = _COMPILED.get(source)
    if code is None:
        code = _COMPILED[source] = compile(source, '<string>', 'exec')
    exec(code, env, body)
    stored = fields + ('_kinds',) * node
    body.update(__slots__=stored + extras, __qualname__=cls.__qualname__,
                __match_args__=fields, __setattr__=_refuse_set,
                __delattr__=_refuse_del, __repr__=_repr, __reduce__=_reduce)
    env['_cls'] = cls = type(cls)(cls.__name__, cls.__bases__, body)
    for name in stored:
        env['_set_' + name] = cls.__dict__[name].__set__
    if node:
        env['_bit'] = _KIND_BITS[cls] = 1 << _KIND_ORDER.index(cls.__name__)
    return cls


# The language fact of a node is the kinds of node in it, the terms under
# its justifications included, as one bitmask.  The __init__ of every node
# sets it from its own kind and its children's masks, outside its record
# fields, so equality, hashing and printing do not see it and it lives as
# long as the node.  The propositional kinds take the low bits, so the
# mask of a propositional formula is a small int, which Python shares.  A
# justification sets one bit when it has no agent label and another when
# it has one; the labels themselves are not kept, and check_profile walks
# a formula to compare them with the declared agents.
_KIND_ORDER = ("Atom", "Falsum", "Neg", "And", "Or", "Imp", "Iff", "Xor",
               "Box", "Knows", "Just", "Forall", "Exists", "Mu", "FixApp",
               "FMeta", "Var", "Const", "Prim", "App", "TSum", "Bang",
               "Quest", "WQuest", "UAll", "TMeta")
_LABELED_JUST = 1 << len(_KIND_ORDER)
_KIND_BITS: dict = {}       # node class -> its bit, filled by record
# record's compiled sources, by their text; see record
_COMPILED: dict = {}


def _facts_source(cls) -> list:
    """The lines of the __init__ of the node class cls that set its kinds
    mask, from its bit _bit and the masks of the node fields, the term of
    a justification included: one | expression over the fields."""
    ann = cls.__annotations__
    own = "(_bit if agent is None else _LJ)" if cls.__name__ == "Just" \
        else "_bit"
    for f in ann:
        if ann[f] in ("tuple[Formula, ...]", "tuple[Term, ...]"):
            # fix: its arguments, one by one
            return [f"    _k = {own}",
                    f"    for _g in {f}:",
                    "        _k |= _g._kinds",
                    "    _set__kinds(self, _k)"]
    kids = "".join(f"{f}._kinds | " for f in ann
                   if ann[f] in ("Formula", "Term"))
    return [f"    _set__kinds(self, {kids}{own})"]


def replace(obj, **changes):
    """A copy of the record obj with the named fields changed; a name
    that is not a field raises TypeError."""
    return obj.__replace__(**changes)


# ------------------------------------------------------------- the sorts

class Term:
    __slots__ = ()

    def __str__(self) -> str:
        return print_term(self)


class Formula:
    __slots__ = ()

    def __str__(self) -> str:
        return print_formula(self)


Node = Union[Formula, Term]


# ---------------------------------------------------------------- terms

@record
class Var(Term):
    name: str


@record
class Const(Term):
    name: str


@record
class Prim(Term):
    """Primitive function term f(x1, ..., xn); args are variable names."""
    symbol: str
    args: tuple[str, ...] = ()


@record
class App(Term):
    fn: Term
    arg: Term


@record
class TSum(Term):
    left: Term
    right: Term


@record
class Bang(Term):
    t: Term


@record
class Quest(Term):
    t: Term


@record
class WQuest(Term):
    t: Term


@record
class UAll(Term):
    """Uniform verifier (t all x); binds x inside t."""
    inner: Term
    var: str


@record
class TMeta(Term):
    """Schema metavariable standing for an arbitrary term."""
    name: str


# ------------------------------------------------------------- formulas

@record
class Atom(Formula):
    name: str


@record
class Falsum(Formula):
    pass


@record
class Neg(Formula):
    a: Formula


@record
class And(Formula):
    a: Formula
    b: Formula


@record
class Or(Formula):
    a: Formula
    b: Formula


@record
class Imp(Formula):
    a: Formula
    b: Formula


@record
class Iff(Formula):
    a: Formula
    b: Formula


@record
class Xor(Formula):
    a: Formula
    b: Formula


@record
class Box(Formula):
    a: Formula


@record
class Knows(Formula):
    """Time-stamped knowledge K@i.  time is an int, or '?name' in schemas."""
    time: Union[int, str]
    a: Formula


@record
class Just(Formula):
    """t : A, or t :@agent A in multi-agent languages."""
    t: Term
    agent: Optional[str]
    a: Formula


@record
class Forall(Formula):
    var: str
    a: Formula


@record
class Exists(Formula):
    var: str
    a: Formula


@record
class Mu(Formula):
    var: str
    a: Formula

    def __post_init__(self) -> None:
        if not occurrence_ok(self.a, self.var, "positive"):
            raise PositivityError(
                f"{self.var} has a non-positive occurrence in mu body")


@record
class FixApp(Formula):
    """Applied fixed-point operator fix(name; A1, ..., An)."""
    name: str
    args: tuple[Formula, ...] = ()


@record
class FMeta(Formula):
    """Schema metavariable standing for an arbitrary formula."""
    name: str


# ------------------------------------------------------------- profiles

@record
class LanguageProfile:
    """Which syntax a logic admits.  agents: 'single', 'multi' or 'any'."""
    # _admitted: the mask of the node kinds the profile admits,
    # metavariables included, outside the record fields
    __slots__ = ('_admitted',)
    name: str
    formula_nodes: frozenset[str]
    term_nodes: frozenset[str]
    agents: str = "single"

    def __post_init__(self) -> None:
        mask = 0
        for cls, bit in _KIND_BITS.items():
            name = cls.__name__
            if name in ("FMeta", "TMeta") or name in self.formula_nodes \
                    or name in self.term_nodes:
                mask |= bit
        if mask & _KIND_BITS[Just] and self.agents != "single":
            mask |= _LABELED_JUST
        if self.agents == "multi":
            mask &= ~_KIND_BITS[Just]
        object.__setattr__(self, "_admitted", mask)


_ALL_FORMULA_NODES = frozenset({
    "Atom", "Falsum", "Neg", "And", "Or", "Imp", "Iff", "Xor",
    "Box", "Knows", "Just", "Forall", "Exists", "Mu", "FixApp",
})
_ALL_TERM_NODES = frozenset({
    "Var", "Const", "Prim", "App", "TSum", "Bang", "Quest", "WQuest", "UAll",
})

FULL = LanguageProfile("full", _ALL_FORMULA_NODES, _ALL_TERM_NODES, "any")

PROP_NODES = frozenset({"Atom", "Falsum", "Neg", "And", "Or", "Imp", "Iff", "Xor"})


# the bits of a justification, labeled or not
_JUSTS = _KIND_BITS[Just] | _LABELED_JUST


def check_profile(f: Formula, profile: LanguageProfile,
                  agents: Optional[tuple] = None) -> None:
    """Raise ProfileError at the first node of f outside the profile.  Given
    the declared agents (empty when none are declared), the same walk also
    finds the first agent label the declaration does not allow, raised only
    when f has no profile error.

    The kinds mask of f (see _facts_source) decides the check, with one
    test against the profile's, unless it shows an error or agents are
    declared and f has a justification: then the walk runs, and returns
    when it finds no error."""
    kinds = f._kinds
    if kinds & ~profile._admitted or agents is not None and kinds & (
            _JUSTS if agents else _LABELED_JUST):
        _raise_first_error(f, profile, agents)


def _raise_first_error(f: Formula, profile: LanguageProfile,
                       agents: Optional[tuple]) -> None:
    """The walk of check_profile, which finds its first error in order."""
    agent_err = None
    for g in walk(f):
        cls = type(g).__name__
        if cls == "FMeta":
            continue
        if cls not in profile.formula_nodes:
            raise ProfileError(f"{cls} not in language {profile.name}")
        if isinstance(g, Just):
            if profile.agents == "single" and g.agent is not None:
                raise ProfileError(f"agent label in single-agent language {profile.name}")
            if profile.agents == "multi" and g.agent is None:
                raise ProfileError(f"missing agent label in {profile.name}")
            _check_term(g.t, profile)
            if agents is None or agent_err:
                continue
            if not agents:
                if g.agent is not None:
                    agent_err = "agent label %r in single-agent logic" % g.agent
            elif g.agent is None:
                agent_err = "missing agent label in multi-agent logic"
            elif g.agent not in agents:
                agent_err = "undeclared agent %r" % g.agent
    if agent_err:
        raise ProfileError(agent_err)


def _check_term(t: Term, profile: LanguageProfile) -> None:
    """Raise ProfileError at the first node of t outside the profile."""
    for g in walk(t):
        cls = type(g).__name__
        if cls != "TMeta" and cls not in profile.term_nodes:
            raise ProfileError(f"term {cls} not in language {profile.name}")


# ----------------------------------------------------------- traversals

def walk(f: Node) -> Iterator[Node]:
    """Pre-order over all subformulas (including fix arguments) of a
    formula, or over all subterms of a term."""
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        kids = g.children()
        if kids:
            stack.extend(reversed(kids))


def formula_terms(f: Formula) -> list[Term]:
    """Terms heading justification assertions, outermost first."""
    return [g.t for g in walk(f) if isinstance(g, Just)]


def free_vars(f: Node) -> frozenset[str]:
    """Free individual (proof) variables of a formula or a term."""
    match f:
        case Var(n):
            return frozenset({n})
        case Prim(_, args):
            return frozenset(args)
        case Just(t, _, a):
            return free_vars(t) | free_vars(a)
        case UAll(a, v) | Forall(v, a) | Exists(v, a):
            return free_vars(a) - {v}
    out: frozenset[str] = frozenset()
    for g in f.children():
        out |= free_vars(g)
    return out


def uall_vars(f: Formula) -> frozenset[str]:
    """Variables bound by a uniform verifier anywhere in f."""
    return frozenset(u.var for t in formula_terms(f) for u in walk(t)
                     if isinstance(u, UAll))


def free_atoms(f: Formula) -> frozenset[str]:
    """Propositional letters, minus mu-bound ones."""
    match f:
        case Atom(n):
            return frozenset({n})
        case Mu(v, a):
            return free_atoms(a) - {v}
    out: frozenset[str] = frozenset()
    for g in f.children():
        out |= free_atoms(g)
    return out


# ---------------------------------------------------------- occurrences

OCCURRENCE_MODES = ("modalized", "justified", "exists_justified",
                    "positive", "semi_positive")


def occurrence_ok(f: Formula, p: str, mode: str) -> bool:
    """Does every free occurrence of p in f sit in a position the mode
    demands?  Vacuous truth when p does not occur.  No occurrence inside a
    fixed-point argument passes."""
    if mode not in OCCURRENCE_MODES:
        raise ValueError(f"unknown occurrence mode {mode!r}")
    return _occurrence_ok(f, p, mode, False, False, False, 1)


def _occurrence_ok(g: Formula, p: str, mode: Optional[str], box: bool,
                   just: bool, ejust: bool, pol: int) -> bool:
    """occurrence_ok for g, where f puts it under a modality (box), a
    justification (just) or the x : of an ex x . x : A (ejust), at
    polarity pol: 1, -1 or 0 (both).  Mode None, inside a fixed-point
    argument, refuses every occurrence.  One frame per level, and the
    walk stops at the first occurrence the mode refuses."""
    match g:
        case Atom(n):
            return n != p or (
                box if mode == "modalized" else
                just if mode == "justified" else
                ejust if mode == "exists_justified" else
                pol == 1 if mode == "positive" else
                mode == "semi_positive" and (pol == 1 or box or just))
        case Mu(q, _) if q == p:
            return True
        case Exists(v, Just(Var(w), _, a)) if w == v:
            return _occurrence_ok(a, p, mode, box, True, True, pol)
        case FixApp():
            mode = None
    kind = type(g)
    box = box or kind in (Box, Knows)
    just = just or kind is Just
    pol = 0 if kind in (Iff, Xor) else -pol if kind is Neg else pol
    for k, x in enumerate(g.children()):
        if not _occurrence_ok(x, p, mode, box, just, ejust,
                              -pol if kind is Imp and k == 0 else pol):
            return False
    return True


# --------------------------------------------------------- substitution

# the word a NotFreeFor message names each individual-variable binder by
_BINDER_WORDS = {UAll: "verifier on", Forall: "all", Exists: "ex"}


def subst_term_for_var(f: Node, x: str, t: Term) -> Node:
    """f[t/x] for a formula or a term f.  Raises NotFreeFor when a binder
    would capture t, or when t is not a variable and x is an argument of
    a primitive term."""
    match f:
        case Var(n):
            return t if n == x else f
        case Prim(sym, args):
            if x not in args:
                return f
            if not isinstance(t, Var):
                raise NotFreeFor(
                    f"cannot put compound term {t} in argument place of {sym}")
            return Prim(sym, tuple(t.name if a == x else a for a in args))
        case Just(s, ag, a):
            return Just(subst_term_for_var(s, x, t), ag,
                        subst_term_for_var(a, x, t))
        case UAll(a, v) | Forall(v, a) | Exists(v, a):
            if v == x:
                return f
            if x in free_vars(a) and v in free_vars(t):
                raise NotFreeFor(f"{t} not free for {x}: capture by "
                                 f"{_BINDER_WORDS[type(f)]} {v}")
    return f.rebuild([subst_term_for_var(k, x, t) for k in f.children()])


def subst_prop_multi(f: Formula, mapping: dict[str, Formula]) -> Formula:
    """Simultaneous substitution of formulas for propositional atoms."""
    return _subst_atoms(f, dict(mapping))


def _subst_atoms(g: Formula, m: dict[str, Formula]) -> Formula:
    """subst_prop_multi's walk, a module-level function, so that no
    closure refers to itself and a call leaves no reference cycle."""
    if not m:
        return g
    match g:
        case Atom(n):
            return m.get(n, g)
        case Forall(v, a) | Exists(v, a):
            live = {k: r for k, r in m.items() if k in free_atoms(a)}
            if any(v in free_vars(r) for r in live.values()):
                raise NotFreeFor(f"substitution captured by quantifier on {v}")
        case Mu(q, a):
            m2 = {k: r for k, r in m.items() if k != q and k in free_atoms(a)}
            if any(q in free_atoms(r) for r in m2.values()):
                raise NotFreeFor(f"substitution captured by mu {q}")
            return Mu(q, _subst_atoms(a, m2))
    return g.rebuild([_subst_atoms(k, m) for k in g.children()])


def subst_prop(f: Formula, p: str, g: Formula) -> Formula:
    return subst_prop_multi(f, {p: g})


def nu_formula(var: str, body: Formula) -> Formula:
    """Greatest fixed point as derived notation: ~mu var . ~body[var := ~var]."""
    return Neg(Mu(var, Neg(subst_prop(body, var, Neg(Atom(var))))))


def imp_chain(premises: list[Formula], goal: Formula) -> Formula:
    out = goal
    for p in reversed(premises):
        out = Imp(p, out)
    return out


# ------------------------------------------------------------ operators
# The notation, read by the scanner, the parser and the printer.  Binary
# operators: token -> (class, level).  A higher level binds tighter.  The
# formula operators take levels 0-2 and the prefixed formula, _UNARY, is
# their operand; the term operators take the levels from _TERM and the
# prefixed term, _TERM_UNARY, is theirs.  Level 0 groups to the right,
# all others to the left.
_UNARY, _TERM, _TERM_UNARY = 3, 4, 6
_BINARY = {"->": (Imp, 0), "<->": (Iff, 0),
           "|": (Or, 1), "xor": (Xor, 1),
           "&": (And, 2),
           "+": (TSum, _TERM), "*": (App, _TERM + 1)}

# Prefix operators: token -> the classes of the nodes it builds, outermost
# first, so '<>' builds ~[]~.  Binders: token -> what builds the node, and
# 'nu' builds its expansion.  So no node prints with '<>' or 'nu'.
_PREFIX = {"~": (Neg,), "[]": (Box,), "<>": (Neg, Box, Neg)}
_TERM_PREFIX = {"!": Bang, "??": WQuest, "?": Quest}
_BINDERS = {"all": Forall, "ex": Exists, "mu": Mu, "nu": nu_formula}

# what the printer reads: node class -> (token as printed, level), where a
# prefix operator's level is its operand's and a binder's is None
_SHOWN = {cls: (f" {tok} ", level) for tok, (cls, level) in _BINARY.items()}
_SHOWN.update((cls, (tok, _UNARY)) for tok, (cls, *more) in _PREFIX.items()
              if not more)
_SHOWN.update((cls, (tok, _TERM_UNARY)) for tok, cls in _TERM_PREFIX.items())
_SHOWN.update((cls, (tok, None)) for tok, cls in _BINDERS.items())


# -------------------------------------------------------------- parsing

_OPERATORS = (*_BINARY, *_PREFIX, *_TERM_PREFIX, *_BINDERS)
_KEYWORDS = {"false", "fix", *filter(str.isalpha, _OPERATORS)}
_VAR_INITIALS = "stuvwxyz"

# one token, or a stray character that starts none; longer symbols first
_SYMBOLS = sorted({tok for tok in _OPERATORS if not tok.isalpha()}
                  | {"(", ")", ".", ",", ";", ":", ":@", "@"},
                  key=lambda tok: (-len(tok), tok))
_TOKEN = "%s|[%s]|[A-Za-z_][A-Za-z0-9_#]*|[0-9]+" % (
    "|".join(re.escape(s) for s in _SYMBOLS if len(s) > 1),
    re.escape("".join(s for s in _SYMBOLS if len(s) == 1)))
_TOKEN_RE = re.compile(_TOKEN)
_SCAN_RE = re.compile("(%s)|(\\S)" % _TOKEN)
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_#]*")
# the first characters of the tokens that are identifiers or words
_WORD_START = frozenset("_abcdefghijklmnopqrstuvwxyz"
                        "ABCDEFGHIJKLMNOPQRSTUVWXYZ")

# the tokens that, after an identifier or a parenthesized group, show that
# it may be a justification term
_TERM_FOLLOW = frozenset((":", ":@", "(", *(
    tok for tok, (_, level) in _BINARY.items() if level >= _TERM)))


def _tokenize(text: str) -> tuple[list, Optional[dict]]:
    """The tokens of text, and the index of the ')' that closes each closed
    '(', or None when text has no ':' and so no justification.  No token
    holds a blank, so the tokens cover text exactly when their lengths
    sum to its count of other characters; only a text with a character
    that starts no token is scanned again, to name that character."""
    toks = _TOKEN_RE.findall(text)
    if sum(map(len, toks)) != len("".join(text.split())):
        scan = _SCAN_RE.findall(text)
        k, c = next((k, c) for k, (_, c) in enumerate(scan) if c)
        raise ParseError(f"bad character {c!r} at {_offsets(text)[k]}")
    if ":" not in text:
        return toks, None
    close: dict = {}
    opened: list = []
    for k, tok in enumerate(toks):
        if tok == "(":
            opened.append(k)
        elif tok == ")" and opened:
            close[opened.pop()] = k
    return toks, close


def _stack_depth() -> int:
    """The number of frames on the stack, the caller's included."""
    f, n = sys._getframe(1), 0
    while f is not None:
        f, n = f.f_back, n + 1
    return n


def _offsets(text: str) -> list:
    """The offset in text of each token (and stray character)."""
    return [m.start() for m in _SCAN_RE.finditer(text)]


def is_ident(tok: str) -> bool:
    return tok not in _KEYWORDS and _IDENT_RE.fullmatch(tok) is not None


def is_var_name(name: str) -> bool:
    return name[0] in _VAR_INITIALS


_SORTS = (Formula, Term)
_new = object.__new__
# The group memo (_Parser.recall and remember; see the module docstring)
# keeps in the table, beside the nodes, the set of the first inner tokens
# of the groups it stored, under _STARTS.
_STARTS = "group starts"
_GROUP_MIN = 40


def _key(v) -> object:
    """A field's part of a sharing key (see _Parser.node): a node by its
    id, a tuple item by item, any other value as it is."""
    if isinstance(v, _SORTS):
        return id(v)
    return tuple(map(_key, v)) if type(v) is tuple else v


def share(table: dict, f: Node) -> Node:
    """The node of table equal to f under the key of _Parser.node, when
    one is stored there, else f, stored now.  Nodes built over children
    that share returned are thus one object per content.  The stored
    node keeps its node fields alive, so no id in its key is reused
    while the table lives."""
    return table.setdefault(
        (type(f), *map(_key, map(f.__getattribute__, f.__match_args__))), f)


class _Parser:
    def __init__(self, text: str, profile: LanguageProfile, table: dict):
        self.text = text
        self.toks, self.close = _tokenize(text)
        self.toks.append(None)      # end of input
        self.pos = 0
        self.profile = profile
        self.table = table
        self.starts = table.get(_STARTS, ())

    def node(self, cls, *fields) -> Node:
        """The node cls(*fields) of the table, built and stored the first
        time it is asked for.  The key holds each node field by its id;
        every such node came from the table, which keeps it alive, so no
        id in a key is reused while the table lives."""
        # _key, inlined for the nodes of one or two fields, most of them;
        # a one-field node holds no tuple
        if len(fields) == 1:
            a, = fields
            key = cls, id(a) if isinstance(a, _SORTS) else a
        elif len(fields) == 2:
            a, b = fields
            key = (cls, id(a) if isinstance(a, _SORTS) else _key(a),
                   id(b) if isinstance(b, _SORTS) else _key(b))
        else:
            key = (cls, *map(_key, fields))
        table = self.table
        got = table.get(key)
        if got is None:
            # cls(*fields) would also count the call of the class against
            # the recursion limit, so every nesting limit would fall by one
            got = _new(cls)
            cls.__init__(got, *fields)      # may raise PositivityError
            table[key] = got
        return got

    def binary(self, cls, a: Node, b: Node) -> Node:
        """The node cls(a, b) of the table, as node builds it, for a class
        of _BINARY, whose two fields are nodes."""
        key = cls, id(a), id(b)
        table = self.table
        got = table.get(key)
        if got is None:
            got = _new(cls)
            cls.__init__(got, a, b)
            table[key] = got
        return got

    def share(self, f: Node) -> Node:
        """f as the table's node, for nu, whose expansion substitutes into
        the parsed body: f itself when the table holds it, else a node
        built through node from f's fields, shared in turn."""
        fields = [getattr(f, name) for name in f.__match_args__]
        if self.table.get((type(f), *map(_key, fields))) is f:
            return f
        return self.node(type(f), *map(self._shared_field, fields))

    def _shared_field(self, v):
        if isinstance(v, _SORTS):
            return self.share(v)
        return tuple(map(self._shared_field, v)) if type(v) is tuple else v

    def recall(self, s: int) -> Optional[Formula]:
        """The formula of the group whose '(' is at s, when remember stored
        a group of the same tokens, parsed under this profile where no more
        room was left on the stack than here; pos then moves past its ')'.
        Else None."""
        toks = self.toks
        got = self.table.get(("(", toks[s + 1], toks[s + 2]))
        if got is None:
            return None
        group, profile, f, room = got
        end = s + len(group)
        if profile is not self.profile or toks[s:end] != group:
            return None
        try:    # are there more frames on the stack than the room allows?
            sys._getframe(sys.getrecursionlimit() - room)
        except ValueError:
            self.pos = end
            return f
        return None

    def remember(self, s: int, f: Formula) -> None:
        """Store f as the group from s to pos, with the room left on the
        stack where it parsed, in place of the group stored under its
        first two inner tokens, if any."""
        toks, table = self.toks, self.table
        table["(", toks[s + 1], toks[s + 2]] = (
            toks[s:self.pos], self.profile, f,
            sys.getrecursionlimit() - _stack_depth())
        self.starts = table.setdefault(_STARTS, set())
        self.starts.add(toks[s + 1])

    def next(self) -> str:
        tok = self.toks[self.pos]
        if tok is None:
            raise ParseError(f"unexpected end of input in {self.text!r}")
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.next()
        if got != tok:
            raise ParseError(f"expected {tok!r}, got {got!r} in {self.text!r}")

    def ident(self) -> str:
        tok = self.next()
        if not is_ident(tok):
            raise ParseError(f"expected identifier, got {tok!r} in {self.text!r}")
        return tok

    def may_be_term(self) -> bool:
        """Can a justification t : A or t :@a A start here, in a text with
        a ':'?  Where it cannot, trying one would fail or stop short of the
        colon."""
        toks, pos = self.toks, self.pos
        tok = toks[pos]
        if tok in _TERM_PREFIX:
            return True
        if tok == "(":
            end = self.close.get(pos)
            return end is not None and toks[end + 1] in _TERM_FOLLOW
        return tok is not None and toks[pos + 1] in _TERM_FOLLOW \
            and is_ident(tok)

    def imp(self, level: int = 0) -> Node:
        """A formula, or from level _TERM a term, with no _BINARY operator
        below level outside parentheses; one frame per level, so nesting
        limits stay put, with the operand parser looked up in _OPERAND."""
        up = level + 1
        operand = _OPERAND[up]
        left = self.imp(up) if operand is None else operand(self)
        op = _BINARY.get(self.toks[self.pos])
        while op is not None and op[1] == level:
            self.pos += 1
            if not level:                   # groups to the right
                return self.binary(op[0], left, self.imp())
            right = self.imp(up) if operand is None else operand(self)
            left = self.binary(op[0], left, right)
            op = _BINARY.get(self.toks[self.pos])
        return left

    def unary(self) -> Formula:
        tok = self.toks[self.pos]
        classes = _PREFIX.get(tok)
        if classes is not None:
            self.pos += 1
            a = self.unary()
            for cls in reversed(classes):
                a = self.node(cls, a)
            return a
        make = _BINDERS.get(tok)
        if make is not None:
            self.pos += 1
            v = self.ident()
            self.expect(".")
            a = self.imp()
            # nu builds its expansion, which share then puts in the table
            return self.node(make, v, a) if isinstance(make, type) \
                else self.share(make(v, a))
        if tok == "K" and self.toks[self.pos + 1] == "@":
            self.pos += 2
            num = self.next()
            if not num.isdigit():
                raise ParseError(f"expected time after K@, got {num!r}")
            return self.node(Knows, int(num), self.unary())
        if self.close is None or not self.may_be_term():
            return self.primary()
        save = self.pos
        try:
            t = self.imp(_TERM)
            nxt = self.toks[self.pos]
            if nxt == ":":
                self.pos += 1
                return self.node(Just, t, None, self.unary())
            if nxt == ":@":
                self.pos += 1
                ag = self.ident()
                return self.node(Just, t, ag, self.unary())
        except ParseError:
            pass
        self.pos = save
        return self.primary()

    def primary(self) -> Formula:
        tok = self.toks[self.pos]
        # a scanned token that starts as an identifier is one or a keyword
        if tok is not None and tok[0] in _WORD_START \
                and tok not in _KEYWORDS:
            self.pos += 1
            return self.node(Atom, tok)
        tok = self.next()
        if tok == "false":
            return self.node(Falsum)
        if tok == "fix":
            self.expect("(")
            name = self.ident()
            args: list[Formula] = []
            if self.toks[self.pos] == ";":
                self.pos += 1
                args.append(self.imp())
                while self.toks[self.pos] == ",":
                    self.pos += 1
                    args.append(self.imp())
            self.expect(")")
            return self.node(FixApp, name, tuple(args))
        if tok == "(":
            s = self.pos - 1
            f = self.recall(s) if self.toks[self.pos] in self.starts else None
            if f is None:
                f = self.imp()
                self.expect(")")
                if self.pos - s > _GROUP_MIN:
                    self.remember(s, f)
            return f
        raise ParseError(f"unexpected token {tok!r} in {self.text!r}")

    def tunary(self) -> Term:
        make = _TERM_PREFIX.get(self.toks[self.pos])
        if make is None:
            return self.tprimary()
        self.pos += 1
        return self.node(make, self.tunary())

    def tprimary(self) -> Term:
        tok = self.next()
        if tok == "(":
            inner = self.imp(_TERM)
            if self.toks[self.pos] == "all":
                self.pos += 1
                v = self.ident()
                if not is_var_name(v):
                    raise ParseError(f"verifier binds a variable, got {v!r}")
                self.expect(")")
                return self.node(UAll, inner, v)
            self.expect(")")
            return inner
        if not is_ident(tok):
            raise ParseError(f"expected term, got {tok!r} in {self.text!r}")
        if self.toks[self.pos] == "(":
            self.pos += 1
            args = [self.ident()]
            while self.toks[self.pos] == ",":
                self.pos += 1
                args.append(self.ident())
            self.expect(")")
            for a in args:
                if not is_var_name(a):
                    raise ParseError(f"primitive term argument must be a variable, got {a!r}")
            return self.node(Prim, tok, tuple(args))
        if is_var_name(tok):
            return self.node(Var, tok)
        if "Const" not in self.profile.term_nodes and "Prim" in self.profile.term_nodes:
            return self.node(Prim, tok, ())
        return self.node(Const, tok)


# the operand parser below each level of imp, or None where imp parses it
_OPERAND = tuple({_UNARY: _Parser.unary, _TERM_UNARY: _Parser.tunary}.get(k)
                 for k in range(_TERM_UNARY + 1))


def _parse(text: str, profile: LanguageProfile, level: int,
           table: Optional[dict] = None) -> Node:
    """Parse the whole of text from level of _Parser.imp (0, a formula;
    _TERM, a term), sharing nodes through table (a fresh one when None)."""
    p = _Parser(text, profile, {} if table is None else table)
    try:
        out = p.imp(level)
    except RecursionError:
        raise ParseError("formula nested too deeply") from None
    if p.toks[p.pos] is not None:
        raise ParseError(f"trailing input {p.toks[p.pos]!r} at "
                         f"{_offsets(text)[p.pos]} in {text!r}")
    return out


def parse_formula(text: str, profile: LanguageProfile = FULL, *,
                  table: Optional[dict] = None) -> Formula:
    """The formula text states.  Equal subtrees are one object within the
    call, and across every call given the same table."""
    f = _parse(text, profile, 0, table)
    check_profile(f, profile)
    return f


def parse_term(text: str, profile: LanguageProfile = FULL, *,
               table: Optional[dict] = None) -> Term:
    """The term text states, sharing as parse_formula does; a node outside
    the profile's terms is a ProfileError, as in parse_formula."""
    t = _parse(text, profile, _TERM, table)
    _check_term(t, profile)
    return t


# ------------------------------------------------------------- printing

def print_formula(f: Node) -> str:
    """The text of a formula or a term, which parses back to it."""
    return _pf(f, 0, True)


print_term = print_formula


def _pf(f: Node, level: int, right: bool) -> str:
    # level: minimum precedence the position admits; right: whether the
    # position is rightmost, so right-open binders need no parentheses.
    shown = _SHOWN.get(type(f))
    if shown is not None:
        tok, at = shown
        if at == _UNARY or at == _TERM_UNARY:
            return tok + _pf(f.a if at == _UNARY else f.t, at, right)
        if at is None:
            s = f"{tok} {f.var} . " + _pf(f.a, 0, True)
            return s if right else f"({s})"
        a, b = (f.a, f.b) if at < _UNARY else f.children()
        a_at, b_at = (at, at + 1) if at else (1, 0)
        s = _pf(a, a_at, False) + tok + _pf(b, b_at, right or level > at)
        return f"({s})" if level > at else s
    match f:
        case Atom(n) | Var(n) | Const(n):
            return n
        case Just(t, ag, a):
            sep = " : " if ag is None else f" :@{ag} "
            return _pf(t, 0, True) + sep + _pf(a, _UNARY, right)
        case Knows(i, a):
            return f"K@{i} " + _pf(a, _UNARY, right)
        case FMeta(n) | TMeta(n):
            return "?" + n
        case Falsum():
            return "false"
        case Prim(sym, args):
            return sym if not args else f"{sym}({', '.join(args)})"
        case UAll(inner, v):
            return f"({_pf(inner, 0, True)} all {v})"
        case FixApp(name, args):
            if not args:
                return f"fix({name})"
            inner = ", ".join(_pf(a, 0, True) for a in args)
            return f"fix({name}; {inner})"
    raise TypeError(f"not a formula or a term: {f!r}")
