"""Terms, formulas, parsing, printing, substitution, occurrence checks.

Concrete grammar (ASCII):

    formula  ::= imp
    imp      ::= or ('->' imp | '<->' imp)?
    or       ::= and (('|' | 'xor') and)*
    and      ::= unary ('&' unary)*
    unary    ::= '~' unary | '[]' unary | '<>' unary
               | 'K' '@' NUM unary
               | ('all' | 'ex') IDENT '.' imp
               | ('mu' | 'nu') IDENT '.' imp
               | term ':' unary | term ':@' IDENT unary
               | primary
    primary  ::= 'false' | IDENT
               | 'fix' '(' IDENT (';' imp (',' imp)*)? ')'
               | '(' imp ')'

    term     ::= app ('+' app)*
    app      ::= tunary ('*' tunary)*
    tunary   ::= '!' tunary | '??' tunary | '?' tunary | tprimary
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
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Union


class ParseError(Exception):
    pass


class NotFreeFor(Exception):
    """Substitution would capture a variable or break term formation."""


class ProfileError(Exception):
    """Formula uses syntax outside the logic's language."""


class PositivityError(Exception):
    """mu binds a variable with a non-positive occurrence."""


# ---------------------------------------------------------------- terms

class Term:
    def __str__(self) -> str:
        return print_term(self)


@dataclass(frozen=True)
class Var(Term):
    name: str


@dataclass(frozen=True)
class Const(Term):
    name: str


@dataclass(frozen=True)
class Prim(Term):
    """Primitive function term f(x1, ..., xn); args are variable names."""
    symbol: str
    args: tuple[str, ...] = ()


@dataclass(frozen=True)
class App(Term):
    fn: Term
    arg: Term


@dataclass(frozen=True)
class TSum(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Bang(Term):
    t: Term


@dataclass(frozen=True)
class Quest(Term):
    t: Term


@dataclass(frozen=True)
class WQuest(Term):
    t: Term


@dataclass(frozen=True)
class UAll(Term):
    """Uniform verifier (t all x); binds x inside t."""
    inner: Term
    var: str


@dataclass(frozen=True)
class TMeta(Term):
    """Schema metavariable standing for an arbitrary term."""
    name: str


# ------------------------------------------------------------- formulas

class Formula:
    def __str__(self) -> str:
        return print_formula(self)


@dataclass(frozen=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True)
class Falsum(Formula):
    pass


@dataclass(frozen=True)
class Neg(Formula):
    a: Formula


@dataclass(frozen=True)
class And(Formula):
    a: Formula
    b: Formula


@dataclass(frozen=True)
class Or(Formula):
    a: Formula
    b: Formula


@dataclass(frozen=True)
class Imp(Formula):
    a: Formula
    b: Formula


@dataclass(frozen=True)
class Iff(Formula):
    a: Formula
    b: Formula


@dataclass(frozen=True)
class Xor(Formula):
    a: Formula
    b: Formula


@dataclass(frozen=True)
class Box(Formula):
    a: Formula


@dataclass(frozen=True)
class Knows(Formula):
    """Time-stamped knowledge K@i.  time is an int, or '?name' in schemas."""
    time: Union[int, str]
    a: Formula


@dataclass(frozen=True)
class Just(Formula):
    """t : A, or t :@agent A in multi-agent languages."""
    t: Term
    agent: Optional[str]
    a: Formula


@dataclass(frozen=True)
class Forall(Formula):
    var: str
    a: Formula


@dataclass(frozen=True)
class Exists(Formula):
    var: str
    a: Formula


@dataclass(frozen=True)
class Mu(Formula):
    var: str
    a: Formula

    def __post_init__(self) -> None:
        if not occurrence_ok(self.a, self.var, "positive"):
            raise PositivityError(
                f"{self.var} has a non-positive occurrence in mu body")


@dataclass(frozen=True)
class FixApp(Formula):
    """Applied fixed-point operator fix(name; A1, ..., An)."""
    name: str
    args: tuple[Formula, ...] = ()


@dataclass(frozen=True)
class FMeta(Formula):
    """Schema metavariable standing for an arbitrary formula."""
    name: str


# ------------------------------------------------------------- profiles

@dataclass(frozen=True)
class LanguageProfile:
    """Which syntax a logic admits.  agents: 'single', 'multi' or 'any'."""
    name: str
    formula_nodes: frozenset[str]
    term_nodes: frozenset[str]
    agents: str = "single"


_ALL_FORMULA_NODES = frozenset({
    "Atom", "Falsum", "Neg", "And", "Or", "Imp", "Iff", "Xor",
    "Box", "Knows", "Just", "Forall", "Exists", "Mu", "FixApp",
})
_ALL_TERM_NODES = frozenset({
    "Var", "Const", "Prim", "App", "TSum", "Bang", "Quest", "WQuest", "UAll",
})

FULL = LanguageProfile("full", _ALL_FORMULA_NODES, _ALL_TERM_NODES, "any")

PROP_NODES = frozenset({"Atom", "Falsum", "Neg", "And", "Or", "Imp", "Iff", "Xor"})


def check_profile(f: Formula, profile: LanguageProfile,
                  agents: Optional[tuple] = None) -> None:
    """Raise ProfileError at the first node of f outside the profile.  Given
    the declared agents (empty when none are declared), the same walk also
    finds the first agent label the declaration does not allow, raised only
    when f has no profile error."""
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
            for t in walk(g.t):
                tcls = type(t).__name__
                if tcls != "TMeta" and tcls not in profile.term_nodes:
                    raise ProfileError(f"term {tcls} not in language {profile.name}")
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


# ----------------------------------------------------------- traversals

def _body(f: Formula) -> tuple[Formula, ...]:
    return (f.a,)


def _pair(f: Formula) -> tuple[Formula, ...]:
    return (f.a, f.b)


# The one place that knows which fields of each node are subformulas or
# subterms.  Nodes without an entry (Atom, Falsum, FMeta, and the terms Var,
# Const, Prim, TMeta) are leaves.  A formula's children are formulas (the
# term of t : A is a field, not a child); a term's children are terms.
_CHILDREN = {
    Neg: _body, Box: _body, Knows: _body, Just: _body,
    Forall: _body, Exists: _body, Mu: _body,
    And: _pair, Or: _pair, Imp: _pair, Iff: _pair, Xor: _pair,
    FixApp: lambda f: f.args,
    App: lambda t: (t.fn, t.arg), TSum: lambda t: (t.left, t.right),
    Bang: lambda t: (t.t,), Quest: lambda t: (t.t,), WQuest: lambda t: (t.t,),
    UAll: lambda t: (t.inner,),
}
_REBUILD = {
    Neg: lambda f, k: Neg(k[0]),
    Box: lambda f, k: Box(k[0]),
    Knows: lambda f, k: Knows(f.time, k[0]),
    Just: lambda f, k: Just(f.t, f.agent, k[0]),
    Forall: lambda f, k: Forall(f.var, k[0]),
    Exists: lambda f, k: Exists(f.var, k[0]),
    Mu: lambda f, k: Mu(f.var, k[0]),
    And: lambda f, k: And(k[0], k[1]),
    Or: lambda f, k: Or(k[0], k[1]),
    Imp: lambda f, k: Imp(k[0], k[1]),
    Iff: lambda f, k: Iff(k[0], k[1]),
    Xor: lambda f, k: Xor(k[0], k[1]),
    FixApp: lambda f, k: FixApp(f.name, tuple(k)),
    App: lambda t, k: App(k[0], k[1]),
    TSum: lambda t, k: TSum(k[0], k[1]),
    Bang: lambda t, k: Bang(k[0]),
    Quest: lambda t, k: Quest(k[0]),
    WQuest: lambda t, k: WQuest(k[0]),
    UAll: lambda t, k: UAll(k[0], t.var),
}

Node = Union[Formula, Term]


def children(f: Node) -> tuple[Node, ...]:
    """Immediate subformulas of a formula (fix arguments in order), or
    immediate subterms of a term, left to right."""
    kids = _CHILDREN.get(type(f))
    return kids(f) if kids else ()


def rebuild(f: Node, kids: Sequence[Node]) -> Node:
    """f with its immediate children replaced by kids, in children()
    order; every other field is kept.  A rebuilt mu re-checks positivity."""
    make = _REBUILD.get(type(f))
    return make(f, kids) if make else f


def walk(f: Node) -> Iterator[Node]:
    """Pre-order over all subformulas (including fix arguments) of a
    formula, or over all subterms of a term."""
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        kids = _CHILDREN.get(type(g))
        if kids:
            stack.extend(reversed(kids(g)))


def formula_terms(f: Formula) -> list[Term]:
    """Terms heading justification assertions, outermost first."""
    return [g.t for g in walk(f) if isinstance(g, Just)]


def term_vars(t: Term) -> frozenset[str]:
    match t:
        case Var(n):
            return frozenset({n})
        case Prim(_, args):
            return frozenset(args)
        case UAll(inner, v):
            return term_vars(inner) - {v}
    out: frozenset[str] = frozenset()
    for s in children(t):
        out |= term_vars(s)
    return out


def free_vars(f: Formula) -> frozenset[str]:
    """Free individual (proof) variables."""
    match f:
        case Just(t, _, a):
            return term_vars(t) | free_vars(a)
        case Forall(v, a) | Exists(v, a):
            return free_vars(a) - {v}
    out: frozenset[str] = frozenset()
    for g in children(f):
        out |= free_vars(g)
    return out


def uall_vars(f: Formula) -> frozenset[str]:
    """Variables bound by a uniform verifier anywhere in f."""
    out: set[str] = set()
    for g in walk(f):
        if isinstance(g, Just):
            for t in walk(g.t):
                if isinstance(t, UAll):
                    out.add(t.var)
    return frozenset(out)


def free_atoms(f: Formula) -> frozenset[str]:
    """Propositional letters, minus mu-bound ones."""
    match f:
        case Atom(n):
            return frozenset({n})
        case Mu(v, a):
            return free_atoms(a) - {v}
    out: frozenset[str] = frozenset()
    for g in children(f):
        out |= free_atoms(g)
    return out


# ---------------------------------------------------------- occurrences

def occurrences(f: Formula, p: str) -> list[tuple[bool, bool, bool, int, bool]]:
    """(under_modal, under_just, under_exists_just, polarity, opaque) per
    free occurrence of atom p.  polarity is 1, -1 or 0 (both)."""
    occs: list[tuple[bool, bool, bool, int, bool]] = []

    def go(g: Formula, box: bool, just: bool, ejust: bool, pol: int, opq: bool) -> None:
        match g:
            case Atom(n):
                if n == p:
                    occs.append((box, just, ejust, pol, opq))
                return
            case Mu(q, _) if q == p:
                return
            case Exists(v, Just(Var(w), _, a)) if w == v:
                return go(a, box, True, True, pol, opq)
        kind = type(g)
        box = box or kind in (Box, Knows)
        just = just or kind is Just
        opq = opq or kind is FixApp
        pol = 0 if kind in (Iff, Xor) else -pol if kind is Neg else pol
        for k, x in enumerate(children(g)):
            go(x, box, just, ejust, -pol if kind is Imp and k == 0 else pol, opq)

    go(f, False, False, False, 1, False)
    return occs


OCCURRENCE_MODES = ("modalized", "justified", "exists_justified",
                    "positive", "semi_positive")


def occurrence_ok(f: Formula, p: str, mode: str) -> bool:
    """Does every free occurrence of p in f sit in a position the mode
    demands?  Vacuous truth when p does not occur."""
    if mode not in OCCURRENCE_MODES:
        raise ValueError(f"unknown occurrence mode {mode!r}")
    for box, just, ejust, pol, opq in occurrences(f, p):
        if opq:
            return False
        if mode == "modalized" and not box:
            return False
        if mode == "justified" and not just:
            return False
        if mode == "exists_justified" and not ejust:
            return False
        if mode == "positive" and pol != 1:
            return False
        if mode == "semi_positive" and pol != 1 and not (box or just):
            return False
    return True


# --------------------------------------------------------- substitution

def subst_in_term(s: Term, x: str, t: Term) -> Term:
    match s:
        case Var(n):
            return t if n == x else s
        case Prim(sym, args):
            if x in args:
                if not isinstance(t, Var):
                    raise NotFreeFor(
                        f"cannot put compound term {t} in argument place of {sym}")
                return Prim(sym, tuple(t.name if a == x else a for a in args))
            return s
        case UAll(inner, v):
            if v == x:
                return s
            if x in term_vars(inner) and v in term_vars(t):
                raise NotFreeFor(f"{t} not free for {x}: capture by verifier on {v}")
            return UAll(subst_in_term(inner, x, t), v)
    return rebuild(s, [subst_in_term(k, x, t) for k in children(s)])


def subst_term_for_var(f: Formula, x: str, t: Term) -> Formula:
    """f[t/x].  Raises NotFreeFor when a binder would capture t."""
    tfv = term_vars(t)

    def go(g: Formula) -> Formula:
        match g:
            case Just(s, ag, a):
                return Just(subst_in_term(s, x, t), ag, go(a))
            case Forall(v, a) | Exists(v, a):
                if v == x:
                    return g
                if x in free_vars(a) and v in tfv:
                    kw = "all" if isinstance(g, Forall) else "ex"
                    raise NotFreeFor(f"{t} not free for {x}: capture by {kw} {v}")
        return rebuild(g, [go(k) for k in children(g)])

    return go(f)


def subst_prop_multi(f: Formula, mapping: dict[str, Formula]) -> Formula:
    """Simultaneous substitution of formulas for propositional atoms."""
    def go(g: Formula, m: dict[str, Formula]) -> Formula:
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
                return Mu(q, go(a, m2))
        return rebuild(g, [go(k, m) for k in children(g)])

    return go(f, dict(mapping))


def subst_prop(f: Formula, p: str, g: Formula) -> Formula:
    return subst_prop_multi(f, {p: g})


def nu_formula(var: str, body: Formula) -> Formula:
    """Greatest fixed point as derived notation: ~mu var . ~body[var := ~var]."""
    return Neg(Mu(var, Neg(subst_prop(body, var, Neg(Atom(var))))))


def diamond(a: Formula) -> Formula:
    return Neg(Box(Neg(a)))


def imp_chain(premises: list[Formula], goal: Formula) -> Formula:
    out = goal
    for p in reversed(premises):
        out = Imp(p, out)
    return out


# -------------------------------------------------------------- parsing

_KEYWORDS = {"false", "xor", "all", "ex", "mu", "nu", "fix"}
_VAR_INITIALS = "stuvwxyz"

_TOKEN_RE = re.compile(
    r"(<->|->|:@|\?\?|\[\]|<>|[~&|().,;:*+!?@]|[A-Za-z_][A-Za-z0-9_#]*|\d+)")
_WS_RE = re.compile(r"\s*")


def _tokenize(text: str) -> list[tuple[str, int]]:
    toks: list[tuple[str, int]] = []
    pos = 0
    while pos < len(text):
        pos = _WS_RE.match(text, pos).end()
        if pos >= len(text):
            break
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"bad character {text[pos]!r} at {pos}")
        toks.append((m.group(0), pos))
        pos = m.end()
    return toks


def is_ident(tok: str) -> bool:
    return bool(re.fullmatch(r"[A-Za-z_][A-Za-z0-9_#]*", tok)) and tok not in _KEYWORDS


def is_var_name(name: str) -> bool:
    return name[0] in _VAR_INITIALS


class _Parser:
    def __init__(self, text: str, profile: LanguageProfile):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0
        self.profile = profile

    def peek(self, ahead: int = 0) -> Optional[str]:
        i = self.pos + ahead
        return self.toks[i][0] if i < len(self.toks) else None

    def next(self) -> str:
        if self.pos >= len(self.toks):
            raise ParseError(f"unexpected end of input in {self.text!r}")
        tok = self.toks[self.pos][0]
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

    # formula levels

    def imp(self) -> Formula:
        left = self.disj()
        if self.peek() == "->":
            self.next()
            return Imp(left, self.imp())
        if self.peek() == "<->":
            self.next()
            return Iff(left, self.imp())
        return left

    def disj(self) -> Formula:
        left = self.conj()
        while self.peek() in ("|", "xor"):
            op = self.next()
            right = self.conj()
            left = Or(left, right) if op == "|" else Xor(left, right)
        return left

    def conj(self) -> Formula:
        left = self.unary()
        while self.peek() == "&":
            self.next()
            left = And(left, self.unary())
        return left

    def unary(self) -> Formula:
        tok = self.peek()
        if tok == "~":
            self.next()
            return Neg(self.unary())
        if tok == "[]":
            self.next()
            return Box(self.unary())
        if tok == "<>":
            self.next()
            return diamond(self.unary())
        if tok == "K" and self.peek(1) == "@":
            self.next()
            self.next()
            num = self.next()
            if not num.isdigit():
                raise ParseError(f"expected time after K@, got {num!r}")
            return Knows(int(num), self.unary())
        if tok in ("all", "ex"):
            self.next()
            v = self.ident()
            self.expect(".")
            body = self.imp()
            return Forall(v, body) if tok == "all" else Exists(v, body)
        if tok in ("mu", "nu"):
            self.next()
            p = self.ident()
            self.expect(".")
            body = self.imp()
            return Mu(p, body) if tok == "mu" else nu_formula(p, body)
        save = self.pos
        try:
            t = self.term()
            nxt = self.peek()
            if nxt == ":":
                self.next()
                return Just(t, None, self.unary())
            if nxt == ":@":
                self.next()
                ag = self.ident()
                return Just(t, ag, self.unary())
        except ParseError:
            pass
        self.pos = save
        return self.primary()

    def primary(self) -> Formula:
        tok = self.next()
        if tok == "false":
            return Falsum()
        if tok == "fix":
            self.expect("(")
            name = self.ident()
            args: list[Formula] = []
            if self.peek() == ";":
                self.next()
                args.append(self.imp())
                while self.peek() == ",":
                    self.next()
                    args.append(self.imp())
            self.expect(")")
            return FixApp(name, tuple(args))
        if tok == "(":
            f = self.imp()
            self.expect(")")
            return f
        if is_ident(tok):
            return Atom(tok)
        raise ParseError(f"unexpected token {tok!r} in {self.text!r}")

    # term levels

    def term(self) -> Term:
        left = self.tapp()
        while self.peek() == "+":
            self.next()
            left = TSum(left, self.tapp())
        return left

    def tapp(self) -> Term:
        left = self.tunary()
        while self.peek() == "*":
            self.next()
            left = App(left, self.tunary())
        return left

    def tunary(self) -> Term:
        tok = self.peek()
        if tok == "!":
            self.next()
            return Bang(self.tunary())
        if tok == "??":
            self.next()
            return WQuest(self.tunary())
        if tok == "?":
            self.next()
            return Quest(self.tunary())
        return self.tprimary()

    def tprimary(self) -> Term:
        tok = self.next()
        if tok == "(":
            inner = self.term()
            if self.peek() == "all":
                self.next()
                v = self.ident()
                if not is_var_name(v):
                    raise ParseError(f"verifier binds a variable, got {v!r}")
                self.expect(")")
                return UAll(inner, v)
            self.expect(")")
            return inner
        if not is_ident(tok):
            raise ParseError(f"expected term, got {tok!r} in {self.text!r}")
        if self.peek() == "(":
            self.next()
            args = [self.ident()]
            while self.peek() == ",":
                self.next()
                args.append(self.ident())
            self.expect(")")
            for a in args:
                if not is_var_name(a):
                    raise ParseError(f"primitive term argument must be a variable, got {a!r}")
            return Prim(tok, tuple(args))
        if is_var_name(tok):
            return Var(tok)
        if "Const" not in self.profile.term_nodes and "Prim" in self.profile.term_nodes:
            return Prim(tok, ())
        return Const(tok)


def _parse(text: str, profile: LanguageProfile, rule):
    """Run one parser rule over the whole of text."""
    p = _Parser(text, profile)
    try:
        out = rule(p)
    except RecursionError:
        raise ParseError("formula nested too deeply") from None
    if p.pos != len(p.toks):
        tok, at = p.toks[p.pos]
        raise ParseError(f"trailing input {tok!r} at {at} in {text!r}")
    return out


def parse_formula(text: str, profile: LanguageProfile = FULL) -> Formula:
    f = _parse(text, profile, _Parser.imp)
    check_profile(f, profile)
    return f


def parse_term(text: str, profile: LanguageProfile = FULL) -> Term:
    return _parse(text, profile, _Parser.term)


# ------------------------------------------------------------- printing

def print_term(t: Term) -> str:
    return _pt(t, 0)


def _pt(t: Term, level: int) -> str:
    match t:
        case Var(n) | Const(n):
            return n
        case TMeta(n):
            return "?" + n
        case Prim(sym, args):
            return sym if not args else f"{sym}({', '.join(args)})"
        case TSum(a, b):
            s = _pt(a, 0) + " + " + _pt(b, 1)
            return f"({s})" if level > 0 else s
        case App(a, b):
            s = _pt(a, 1) + " * " + _pt(b, 2)
            return f"({s})" if level > 1 else s
        case Bang(u):
            return "!" + _pt(u, 2)
        case Quest(u):
            return "?" + _pt(u, 2)
        case WQuest(u):
            return "??" + _pt(u, 2)
        case UAll(inner, v):
            return f"({_pt(inner, 0)} all {v})"
    raise TypeError(f"not a term: {t!r}")


def print_formula(f: Formula) -> str:
    return _pf(f, 0, True)


def _pf(f: Formula, level: int, right: bool) -> str:
    # level: minimum precedence the position admits; right: whether the
    # position is rightmost, so right-open binders need no parentheses.
    match f:
        case Atom(n):
            return n
        case FMeta(n):
            return "?" + n
        case Falsum():
            return "false"
        case FixApp(name, args):
            if not args:
                return f"fix({name})"
            inner = ", ".join(_pf(a, 0, True) for a in args)
            return f"fix({name}; {inner})"
        case Imp(a, b) | Iff(a, b):
            op = " -> " if isinstance(f, Imp) else " <-> "
            if level > 0:
                return "(" + _pf(a, 1, False) + op + _pf(b, 0, True) + ")"
            return _pf(a, 1, False) + op + _pf(b, 0, right)
        case Or(a, b) | Xor(a, b):
            op = " | " if isinstance(f, Or) else " xor "
            if level > 1:
                return "(" + _pf(a, 1, False) + op + _pf(b, 2, True) + ")"
            return _pf(a, 1, False) + op + _pf(b, 2, right)
        case And(a, b):
            if level > 2:
                return "(" + _pf(a, 2, False) + " & " + _pf(b, 3, True) + ")"
            return _pf(a, 2, False) + " & " + _pf(b, 3, right)
        case Neg(a):
            return "~" + _pf(a, 3, right)
        case Box(a):
            return "[]" + _pf(a, 3, right)
        case Knows(i, a):
            return f"K@{i} " + _pf(a, 3, right)
        case Just(t, ag, a):
            sep = " : " if ag is None else f" :@{ag} "
            return print_term(t) + sep + _pf(a, 3, right)
        case Forall(v, a) | Exists(v, a) | Mu(v, a):
            kw = {"Forall": "all", "Exists": "ex", "Mu": "mu"}[type(f).__name__]
            body = f"{kw} {v} . " + _pf(a, 0, True)
            return body if right else "(" + body + ")"
    raise TypeError(f"not a formula: {f!r}")
