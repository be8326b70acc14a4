"""Single-world models for the quantified justification logics.

A model is (D, I, E, V): a finite domain of reasons, an interpretation
of the term operations as tables over D, an evidence function from
(agent,) reason and valuation to sets of formulas, and a truth
assignment.  Forcing follows the usual clauses; a justification t : A
holds when A is admitted as evidence at the reason denoted by t and A
itself holds.  Defined fixed-point connectives are treated as opaque
sentences: V is keyed by their printed form, which is exactly what the
countermodel files rely on.

Evidence entries are finite and conditional:  E(r, v) contains the entry
formula when v matches the entry's variable constraints.  The closure
conditions (application, sum, proof checker, primitive terms, and the
uniform-verifier condition for the full language) quantify over all
terms and formulas, so they are checked against a finite universe: the
formulas and terms already mentioned in the model plus whatever the
caller supplies.  An empty evidence function satisfies everything
vacuously, which is the configuration the countermodels use.

The uniform verifier denotes  (t all x)^v = t^v forall^I v(x) : the
value depends on the current valuation of x even where x is not free,
so validity enumerates valuations over free and verifier-bound
variables alike.

Model files (.mdl): the shared headers (see kernel.read_lines), by
default QLP- and the empty specification, and these lines:

    domain r1 r2
    interp app default -> r1
    interp f r1 -> r2            # primitive symbol, one entry per line
    evidence r1 {x=r2} : x : p   # optional @agent after 'evidence', an
                                 # agent the agents: header declares
    truth E = 1
    truth fix(d; E) = 1          # printed-form key for defined sentences
    truth default = 0
    valid fix(d; E)              # claims checked by the corpus runner
"""

import itertools
import os
import re
from typing import Iterable, Optional

from .syntax import (
    Formula, Term, Atom, Falsum, Neg, And, Or, Imp, Iff, Xor,
    Just, Forall, Exists, FixApp,
    Var, Const, Prim, App, TSum, Bang, Quest, WQuest, UAll,
    parse_formula, print_formula, free_vars, uall_vars, formula_terms,
    is_ident, record,
)
from .registry import get_logic, Spec, EMPTY
from .kernel import Headers, read_lines


class ModelError(Exception):
    pass


@record
class EvEntry:
    agent: Optional[str]
    reason: str
    cond: tuple            # sorted (var, reason) pairs
    formula: Formula


@record
class MModel:
    domain: tuple
    interp: dict
    evidence: tuple
    truth: dict
    truth_default: bool = False
    logic_id: str = 'QLP-'
    spec: Spec = EMPTY
    spec_src: str = 'empty'
    agents: Optional[tuple] = None
    claims: tuple = ()          # formulas asserted valid by the file

    def op(self, key, args: tuple) -> str:
        table = self.interp.get(key, {})
        if args in table:
            return table[args]
        if 'default' in table:
            return table['default']
        return self.domain[0]


# -- denotation and forcing --------------------------------------------------

def denote(m: MModel, t: Term, v: dict) -> str:
    d0 = m.domain[0]
    match t:
        case Var(n):
            return v.get(n, d0)
        case Const(n):
            return m.op(('prim', n), ())
        case Prim(sym, args):
            return m.op(('prim', sym), tuple(v.get(a, d0) for a in args))
        case App(a, b):
            return m.op(('app',), (denote(m, a, v), denote(m, b, v)))
        case TSum(a, b):
            return m.op(('sum',), (denote(m, a, v), denote(m, b, v)))
        case Bang(u):
            return m.op(('bang',), (denote(m, u, v),))
        case UAll(inner, x):
            return m.op(('uall',), (denote(m, inner, v), v.get(x, d0)))
        case Quest(u) | WQuest(u):
            raise ModelError("no interpretation for query operators")
    raise ModelError("cannot denote %s" % type(t).__name__)


def _cond_holds(m: MModel, cond: tuple, v: dict) -> bool:
    d0 = m.domain[0]
    return all(v.get(x, d0) == r for x, r in cond)


def evidence_at(m: MModel, agent, r: str, v: dict):
    return [e.formula for e in m.evidence
            if e.agent == agent and e.reason == r and _cond_holds(m, e.cond, v)]


def in_evidence(m: MModel, agent, r: str, v: dict, a: Formula) -> bool:
    return a in evidence_at(m, agent, r, v)


def force(m: MModel, f: Formula, v: dict) -> bool:
    match f:
        case Atom(n):
            return m.truth.get(n, m.truth_default)
        case FixApp():
            return m.truth.get(print_formula(f), m.truth_default)
        case Falsum():
            return False
        case Neg(a):
            return not force(m, a, v)
        case And(a, b):
            return force(m, a, v) and force(m, b, v)
        case Or(a, b):
            return force(m, a, v) or force(m, b, v)
        case Imp(a, b):
            return (not force(m, a, v)) or force(m, b, v)
        case Iff(a, b):
            return force(m, a, v) == force(m, b, v)
        case Xor(a, b):
            return force(m, a, v) != force(m, b, v)
        case Just(t, agent, a):
            return (in_evidence(m, agent, denote(m, t, v), v, a)
                    and force(m, a, v))
        case Forall(x, a):
            return all(force(m, a, {**v, x: r}) for r in m.domain)
        case Exists(x, a):
            return any(force(m, a, {**v, x: r}) for r in m.domain)
    raise ModelError("forcing undefined on %s" % type(f).__name__)


def _valuations(m: MModel, names: Iterable[str]):
    names = sorted(set(names))
    for combo in itertools.product(m.domain, repeat=len(names)):
        yield dict(zip(names, combo))


def is_valid(m: MModel, f: Formula) -> bool:
    """Forced under every valuation of the free variables; verifier-bound
    variables are enumerated too since their valuation leaks into term
    denotations."""
    return all(force(m, f, v)
               for v in _valuations(m, free_vars(f) | uall_vars(f)))


# -- closure conditions ------------------------------------------------------

def _universe(m: MModel, extra) -> list:
    return list(dict.fromkeys(
        [*(e.formula for e in m.evidence), *extra, *m.claims]))


def _terms_of(forms) -> list:
    return list(dict.fromkeys(t for f in forms for t in formula_terms(f)))


def check_evidence_conditions(m: MModel, extra=(), depth: int = 2) -> list:
    """Violations of the evidence closure conditions, relative to the
    finite universe of formulas and terms mentioned in the model and in
    extra.  An empty list means no violation was found at this bound.

    depth bounds the consequent chase for the application condition:
    consequents found missing are treated as present on later rounds, so
    obligations they in turn generate are reported as well.
    """
    logic = get_logic(m.logic_id)
    out = []
    universe = _universe(m, extra)
    terms = _terms_of(universe)
    agents = list(m.agents) if m.agents else [None]
    names = {x for e in m.evidence for x, _ in e.cond}.union(
        *(free_vars(f) for f in universe))

    for e in m.evidence:
        loose = {x for x, _ in e.cond} - free_vars(e.formula)
        if loose:
            out.append("entry for %s conditions on %s, not free in it"
                       % (print_formula(e.formula), sorted(loose)))

    for ag in agents:
        for v in _valuations(m, names):
            ev = {r: evidence_at(m, ag, r, v) for r in m.domain}
            chase = {r: list(fs) for r, fs in ev.items()}
            for _ in range(max(1, depth)):
                grown = []
                for r1 in m.domain:
                    for r2 in m.domain:
                        rr = m.op(('app',), (r1, r2))
                        for f in chase[r1]:
                            if isinstance(f, Imp) and f.a in chase[r2] \
                                    and f.b not in chase[rr]:
                                out.append(
                                    "application: %s at %s, %s at %s, but %s "
                                    "missing at %s" % (
                                        print_formula(f), r1,
                                        print_formula(f.a), r2,
                                        print_formula(f.b), rr))
                                grown.append((rr, f.b))
                if not grown:
                    break
                for rr, f in grown:
                    chase[rr].append(f)
            for r1 in m.domain:
                for r2 in m.domain:
                    rs = m.op(('sum',), (r1, r2))
                    for f in ev[r1] + ev[r2]:
                        if f not in ev[rs]:
                            out.append("sum: %s missing at %s"
                                       % (print_formula(f), rs))
            for t in terms:
                r = denote(m, t, v)
                rb = m.op(('bang',), (r,))
                for f in ev[r]:
                    want = Just(t, ag, f)
                    if want in universe and not in_evidence(m, ag, rb, v, want):
                        out.append("proof checker: %s missing at %s"
                                   % (print_formula(want), rb))
            if m.spec.kind == 'explicit':
                for entry in m.spec.entries:
                    if not isinstance(entry, Just):
                        continue
                    if entry.agent is not None and entry.agent != ag:
                        continue
                    r = denote(m, entry.t, v)
                    if not in_evidence(m, ag, r, v, entry.a):
                        out.append(
                            "primitive term: %s missing at %s"
                            % (print_formula(entry.a), r))
            if 'uall' in {op[0] for op in m.interp} or any(
                    isinstance(t, UAll) for t in terms):
                out.extend(_uf_condition(m, ag, v, universe, terms))
    if m.spec.kind == 'total' and m.evidence == ():
        out.append("primitive term: the total specification demands "
                   "evidence for every axiom, none declared")
    return list(dict.fromkeys(out))


def _uf_condition(m: MModel, ag, v: dict, universe, terms) -> list:
    """Uniform-verifier closure, checked on quantified formulas in the
    universe: if A holds as evidence for t at every x-variant, then
    (all x) A must be evidence for (t all x)."""
    out = []
    for g in universe:
        if not isinstance(g, Forall):
            continue
        x, a = g.var, g.a
        for t in terms:
            if all(in_evidence(m, ag, denote(m, t, {**v, x: r}),
                               {**v, x: r}, a) for r in m.domain):
                ru = m.op(('uall',), (denote(m, t, v), v.get(x, m.domain[0])))
                if not in_evidence(m, ag, ru, v, g):
                    out.append("uniform verifier: %s missing at %s"
                               % (print_formula(g), ru))
    return out


# -- model files -------------------------------------------------------------

_OPS = ('app', 'sum', 'bang', 'uall')
_EVIDENCE_RE = re.compile(r'^(\S+)\s*(\{[^}]*\})?\s*:\s*(.+)$')


def parse_model(text: str, base_dir: str = '.') -> MModel:
    """The model text states, read by read_lines, under QLP- and the empty
    specification until its headers say otherwise."""
    h = Headers(ModelError, base_dir, 'QLP-', 'empty')
    domain = None
    interp = {}
    evidence = []
    truth = {}
    truth_default = False
    claims = []
    for line in read_lines(text, h):
        word, rest = (line.split(None, 1) + [''])[:2]
        if word == 'domain':
            domain = tuple(rest.split())
            if not domain:
                raise ModelError("domain must be non-empty")
            continue
        if word == 'interp':
            toks = line.split()
            if '->' not in toks[:-1]:
                raise ModelError("interp needs '-> reason': %r" % line)
            arrow = toks.index('->')
            if arrow < 2:
                raise ModelError("interp needs an operation name: %r" % line)
            opname, args, val = toks[1], toks[2:arrow], toks[arrow + 1]
            key = (opname,) if opname in _OPS else ('prim', opname)
            table = interp.setdefault(key, {})
            if args == ['default']:
                table['default'] = val
            else:
                table[tuple(args)] = val
            continue
        if word == 'evidence':
            agent = None
            if rest.startswith('@'):
                agent, *rest = rest.split(None, 1)
                agent, rest = agent[1:], ''.join(rest)
                if not is_ident(agent):
                    raise ModelError("bad evidence line: %r" % line)
            m2 = _EVIDENCE_RE.match(rest)
            if not m2:
                raise ModelError("bad evidence line: %r" % line)
            reason = m2.group(1)
            cond = {}
            inner = (m2.group(2) or '{}')[1:-1]
            for piece in inner.split(',') if inner.strip() else ():
                x, eq, r = (w.strip() for w in piece.partition('='))
                if not (x and eq and r) or x in cond:
                    raise ModelError("bad evidence condition %r (one "
                                     "var=reason per var): %r"
                                     % (piece.strip(), line))
                cond[x] = r
            evidence.append(EvEntry(agent, reason, tuple(sorted(cond.items())),
                                    parse_formula(m2.group(3), h.logic.profile,
                                                  table=h.table)))
            continue
        if word == 'truth':
            key, _, val = rest.rpartition('=')
            key, val = key.strip(), val.strip()
            if val not in ('0', '1'):
                raise ModelError("truth value must be 0 or 1: %r" % line)
            if key == 'default':
                truth_default = val == '1'
            else:
                kf = parse_formula(key, h.logic.profile, table=h.table)
                if isinstance(kf, Atom):
                    truth[kf.name] = val == '1'
                elif isinstance(kf, FixApp):
                    truth[print_formula(kf)] = val == '1'
                else:
                    raise ModelError(
                        "truth keys are atoms or defined sentences: %r" % key)
            continue
        if word == 'valid':
            claims.append(parse_formula(rest, h.logic.profile,
                                        table=h.table))
            continue
        raise ModelError("unrecognized line: %r" % line)
    if domain is None:
        raise ModelError("missing domain")
    # a reason outside the domain is one no term denotes and no valuation
    # gives, so an entry or a table row that names one never applies
    for e in evidence:      # check_evidence_conditions checks no other agent
        if e.agent is not None and e.agent not in (h.agents or ()):
            raise ModelError("evidence for undeclared agent %r" % e.agent)
        if e.reason not in domain:
            raise ModelError("evidence reason %s outside the domain"
                             % e.reason)
        for x, r in e.cond:
            if r not in domain:
                raise ModelError("evidence condition %s=%s outside the "
                                 "domain" % (x, r))
    for key, table in interp.items():
        for args, val in table.items():
            for r in () if args == 'default' else args:
                if r not in domain:
                    raise ModelError("interp %s argument %s outside the "
                                     "domain" % (key[-1], r))
            if val not in domain:
                raise ModelError("interp %s value %s outside the domain"
                                 % (key[-1], val))
    return MModel(domain, interp, tuple(evidence), truth, truth_default,
                  h.logic_id, h.spec, h.spec_src, h.agents, tuple(claims))


def load_model(path: str) -> MModel:
    with open(path) as fh:
        return parse_model(fh.read(), os.path.dirname(path) or '.')


def check_model(m: MModel, depth: int = 2) -> list:
    """Evidence conditions plus the file's own validity claims; returns
    a list of failure strings."""
    out = list(check_evidence_conditions(m, depth=depth))
    for c in m.claims:
        if not is_valid(m, c):
            out.append("claimed valid but refuted: %s" % print_formula(c))
    return out
