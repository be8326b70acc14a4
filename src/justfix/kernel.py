"""Derivation checker and the .drv file format.

A derivation is a header block followed by numbered steps:

    logic: JT(FP)
    spec: tcs
    fix d p () := ~ x : p
    premise k1: K@1 (E1 | E2)

    1. fix(d) <-> ~ x : fix(d) ; fp d
    2. ...                     ; prop 1

Each step line is  <n>. <formula> ; <rule> [args]  where the separator is
the first semicolon at parenthesis depth zero (formulas may contain
semicolons inside fix(...) argument lists).  '#' starts a comment when it
opens a line or follows whitespace; identifiers may contain '#'.

The checker verifies every step, tracks which premises each step depends
on, and restricts necessitation-like rules to premise-free steps, which
keeps the deduction transform total.  Failed steps do not abort the run:
later steps are checked against the stated formulas, so one broken
citation yields one diagnostic rather than a cascade.
"""

import contextlib
import os
import re
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from .syntax import (
    Formula, Neg, Imp, Iff, Box, Knows, Just,
    Forall, Exists, Mu, FixApp,
    Var, Const, Prim,
    ProfileError,
    parse_formula, parse_term, print_formula, print_term,
    check_profile, free_vars, is_ident,
    subst_prop,
)
from . import registry
from .registry import (
    LogicSpec, get_logic, match_axiom, SCHEMAS,
    Spec, TOTAL, EMPTY, spec_membership, taut_consequence,
)
from .fixedpoint import FPOperator, make_operator, fp_axiom_instance


class DerivationError(Exception):
    """Malformed derivation file or headers."""


@dataclass(frozen=True)
class Premise:
    name: str
    formula: Formula


@dataclass(frozen=True)
class Step:
    index: int
    formula: Formula
    rule: str
    refs: tuple = ()
    args: tuple = ()


@dataclass(frozen=True)
class Derivation:
    logic_id: str
    spec: Spec
    spec_src: str = 'tcs'
    agents: Optional[tuple] = None
    ops: tuple = ()
    premises: tuple = ()
    steps: tuple = ()

    def step(self, i: int) -> Step:
        return self.steps[i - 1]

    @property
    def final(self) -> Formula:
        return self.steps[-1].formula


@dataclass
class StepVerdict:
    index: int
    ok: bool
    reason: Optional[str] = None
    flags: tuple = ()


@dataclass
class CheckReport:
    ok: bool
    logic: LogicSpec
    verdicts: list
    deps: dict                      # step index -> frozenset of premise names
    final: Optional[Formula]
    flags: tuple = ()

    @property
    def first_failure(self):
        for v in self.verdicts:
            if not v.ok:
                return (v.index, v.reason)
        return None

    @property
    def premises_used(self):
        if not self.deps:
            return frozenset()
        return self.deps[max(self.deps)]


# rules whose antecedent steps must not depend on premises
_NEC_LIKE = frozenset(('nec', 'gen', 'qnec', 'e', 'de', 'mu-ind', 'reg'))
# rules that never carry premise dependencies
_CLOSED = frozenset(('ax', 'ian', 'an', 'fp', 'mu-cl', 'inline')) | _NEC_LIKE


# -- parsing -----------------------------------------------------------------

_STEP_RE = re.compile(r'^(\d+)\.\s*(.*)$')
_SUBST_RE = re.compile(r'^subst\s+(\d+)\s+(\S+)\s*:=\s*(.+)$')
_FIX_DECL_RE = re.compile(r'^fix\s+(\S+)\s+(\S+)\s*\(([^)]*)\)\s*:=\s*(.+)$')

# `agents: <n>` builds its n names eagerly (about 65 bytes each); a count
# above this is refused before any is built
_AGENTS_MAX = 1000


def strip_comment(line: str) -> str:
    """Drop a '#' comment: one that opens the line or follows whitespace."""
    k = line.find('#')
    while k > 0 and not line[k - 1].isspace():
        k = line.find('#', k + 1)
    if k < 0:
        return line
    return '' if line[:k].isspace() else line[:k]


def _split_top(text: str, sep: str):
    """Split on sep occurrences at parenthesis depth zero."""
    parts, depth, cur = [], 0, []
    for piece in text.split(sep):
        cur.append(piece)
        depth += piece.count('(') - piece.count(')')
        if depth == 0:
            parts.append(sep.join(cur))
            cur = []
    if cur:
        parts.append(sep.join(cur))
    return parts


def _number(tok: str, what: str = 'step reference') -> int:
    try:
        return int(tok)
    except ValueError:
        raise DerivationError("%s %r is not a number" % (what, tok)) from None


def _parse_refs(tokens) -> tuple:
    refs = []
    for tok in tokens:
        for piece in tok.split(','):
            if piece:
                refs.append(_number(piece))
    return tuple(refs)


def _parse_justification(text: str, profile) -> tuple:
    """Returns (rule, refs, args)."""
    head = _split_top(text, ';')
    toks = head[0].split()
    if not toks:
        raise DerivationError("empty justification")
    rule = toks[0]
    rest = toks[1:]
    if len(head) > 1 and rule != 'fp':
        raise DerivationError("%s takes no ';' part" % rule)
    if rule == 'ax':
        if len(rest) > 1:
            raise DerivationError("ax takes at most one schema id")
        return 'ax', (), (rest[0] if rest else None,)
    if rule == 'mp':
        r = _parse_refs(rest)
        if len(r) != 2:
            raise DerivationError("mp takes two step references")
        return 'mp', r, ()
    if rule in ('nec', 'mu-ind', 'reg'):
        r = _parse_refs(rest)
        if len(r) != 1:
            raise DerivationError("%s takes one step reference" % rule)
        return rule, r, ()
    if rule in ('gen', 'qnec'):
        if len(rest) != 2:
            raise DerivationError("%s takes a step reference and a variable" % rule)
        return rule, (_number(rest[0]),), (rest[1],)
    if rule in ('ian', 'an', 'mu-cl'):
        if rest:
            raise DerivationError("%s takes no arguments" % rule)
        return rule, (), ()
    if rule == 'e':
        if len(rest) != 2:
            raise DerivationError("e takes a step reference and a time")
        return 'e', (_number(rest[0]),), (_number(rest[1], 'time'),)
    if rule == 'de':
        if len(rest) != 3:
            raise DerivationError("de takes a step reference and two times")
        return 'de', (_number(rest[0]),), (_number(rest[1], 'time'),
                                         _number(rest[2], 'time'))
    if rule == 'fp':
        if len(rest) != 1:
            raise DerivationError("fp takes an operator name")
        args = ()
        if len(head) > 1:
            argsrc = ';'.join(head[1:])
            args = tuple(parse_formula(p.strip(), profile)
                         for p in _split_top(argsrc, ',') if p.strip())
        return 'fp', (), (rest[0], args)
    if rule == 'prop':
        return 'prop', _parse_refs(rest), ()
    if rule == 'admk':
        refs = _parse_refs(rest[:-1])
        if not refs:
            raise DerivationError("admk takes step references and a time")
        return 'admk', refs, (_number(rest[-1], 'time'),)
    if rule == 'premise':
        if len(rest) != 1:
            raise DerivationError("premise takes a name")
        return 'premise', (), (rest[0],)
    if rule == 'inline':
        if not rest:
            raise DerivationError("inline requires a transform name")
        form = rest[0]
        if form == 'lift' or form == 'internalize':
            if len(rest) != 2:
                raise DerivationError("inline %s takes one step reference" % form)
            return 'inline', (_number(rest[1]),), (form,)
        if form == 'subst':
            m = _SUBST_RE.match(' '.join(rest))
            if not m:
                raise DerivationError("inline subst syntax: subst <i> <x> := <term>")
            return ('inline', (int(m.group(1)),),
                    ('subst', m.group(2), parse_term(m.group(3), profile)))
        if form == 'jd':
            if len(rest) != 1:
                raise DerivationError("inline jd takes no arguments")
            return 'inline', (), ('jd',)
        raise DerivationError("unknown inline transform %r" % form)
    raise DerivationError("unknown rule %r" % rule)


def parse_spec_file(path: str, profile) -> Spec:
    with open(path) as fh:
        text = fh.read()
    entries = []
    for line in text.splitlines():
        line = strip_comment(line).strip()
        if line:
            entries.append(parse_formula(line, profile))
    return Spec('explicit', frozenset(entries))


def parse_spec_value(src: str, logic, base_dir: str) -> Optional[Spec]:
    """The specification a `spec:` header names: tcs, empty, or file <path>
    relative to base_dir.  None when src is none of these."""
    if src == 'tcs':
        return TOTAL
    if src == 'empty':
        return EMPTY
    parts = src.split(None, 1)
    if len(parts) == 2 and parts[0] == 'file':
        return parse_spec_file(os.path.join(base_dir, parts[1].strip()),
                               logic.profile)
    return None


def parse_fix_decl(line: str, logic) -> FPOperator:
    """Parse `fix <name> <var> (<params>) := <body>` against a logic."""
    if not logic.fp:
        raise DerivationError(
            "logic %s has no fixed-point extension" % logic.name)
    m = _FIX_DECL_RE.match(line)
    if not m:
        raise DerivationError("bad fix declaration: %r" % line)
    params = tuple(p.strip() for p in m.group(3).split(',') if p.strip())
    body = parse_formula(m.group(4), logic.profile)
    return make_operator(m.group(1), m.group(2), params, body, logic.fp_mode)


def parse_derivation(text: str, base_dir: str = '.') -> Derivation:
    logic_id = None
    logic = None
    spec = TOTAL
    spec_src = 'tcs'
    agents = None
    ops = []
    premises = []
    steps = []
    for raw in text.splitlines():
        line = strip_comment(raw).strip()
        if not line:
            continue
        m = _STEP_RE.match(line)
        if m:
            if logic is None:
                raise DerivationError("steps before logic header")
            n = int(m.group(1))
            if n != len(steps) + 1:
                raise DerivationError("step %d out of sequence" % n)
            body = m.group(2)
            parts = _split_top(body, ';')
            if len(parts) < 2:
                raise DerivationError("step %d lacks a justification" % n)
            formula = parse_formula(parts[0].strip(), logic.profile)
            rule, refs, args = _parse_justification(
                ';'.join(parts[1:]).strip(), logic.profile)
            if any(r < 1 or r >= n for r in refs):
                raise DerivationError("step %d cites an unavailable step" % n)
            steps.append(Step(n, formula, rule, refs, args))
            continue
        if line.startswith('logic:'):
            logic_id = line[len('logic:'):].strip()
            logic = get_logic(logic_id)
            continue
        if line.startswith('spec:'):
            spec_src = line[len('spec:'):].strip()
            if spec_src.split()[:1] == ['file'] and logic is None:
                raise DerivationError("spec file before logic header")
            spec = parse_spec_value(spec_src, logic, base_dir)
            if spec is None:
                raise DerivationError("spec must be tcs, empty, or file <path>")
            continue
        if line.startswith('agents:'):
            names = line[len('agents:'):].replace(',', ' ').split()
            # isdigit alone also accepts digits such as '²' that int refuses
            if len(names) == 1 and names[0].isascii() and names[0].isdigit():
                if int(names[0]) > _AGENTS_MAX:
                    raise DerivationError("agent count %s exceeds %d"
                                          % (names[0], _AGENTS_MAX))
                agents = tuple('a%d' % (k + 1) for k in range(int(names[0])))
                continue
            bad = next((a for a in names if not is_ident(a)), None)
            if bad is not None:
                raise DerivationError("agent name %r is not an identifier"
                                      % bad)
            agents = tuple(names)
            continue
        if line.startswith('fix '):
            if logic is None:
                raise DerivationError("fix declaration before logic header")
            ops.append(parse_fix_decl(line, logic))
            continue
        if line.startswith('premise '):
            if logic is None:
                raise DerivationError("premise before logic header")
            name, _, rhs = line[len('premise '):].partition(':')
            if not rhs:
                raise DerivationError("premise needs <name>: <formula>")
            premises.append(Premise(name.strip(),
                                    parse_formula(rhs.strip(), logic.profile)))
            continue
        raise DerivationError("unrecognized line: %r" % line)
    if logic is None:
        raise DerivationError("missing logic header")
    if not steps:
        raise DerivationError("no steps")
    return Derivation(logic_id, spec, spec_src, agents, tuple(ops),
                      tuple(premises), tuple(steps))


def load_derivation(path: str) -> Derivation:
    with open(path) as fh:
        return parse_derivation(fh.read(), os.path.dirname(path) or '.')


# -- serialization -----------------------------------------------------------

def _print_justification(s: Step) -> str:
    if s.rule == 'ax':
        return 'ax' if s.args[0] is None else 'ax %s' % s.args[0]
    if s.rule == 'fp':
        name, args = s.args
        if args:
            return 'fp %s; %s' % (name, ', '.join(print_formula(a)
                                                  for a in args))
        return 'fp %s' % name
    if s.rule in ('gen', 'qnec'):
        return '%s %d %s' % (s.rule, s.refs[0], s.args[0])
    if s.rule == 'e':
        return 'e %d %d' % (s.refs[0], s.args[0])
    if s.rule == 'de':
        return 'de %d %d %d' % (s.refs[0], s.args[0], s.args[1])
    if s.rule == 'admk':
        return 'admk %s %d' % (','.join(str(r) for r in s.refs), s.args[0])
    if s.rule == 'premise':
        return 'premise %s' % s.args[0]
    if s.rule == 'inline':
        form = s.args[0]
        if form in ('lift', 'internalize'):
            return 'inline %s %d' % (form, s.refs[0])
        if form == 'subst':
            return 'inline subst %d %s := %s' % (
                s.refs[0], s.args[1], print_term(s.args[2]))
        return 'inline jd'
    out = s.rule
    if s.refs:
        out += ' ' + ' '.join(str(r) for r in s.refs)
    return out


def print_derivation(d: Derivation) -> str:
    lines = ['logic: %s' % d.logic_id]
    if d.spec_src != 'tcs':
        lines.append('spec: %s' % d.spec_src)
    if d.agents:
        lines.append('agents: %s' % ' '.join(d.agents))
    for op in d.ops:
        lines.append('fix %s %s (%s) := %s' % (
            op.name, op.var, ', '.join(op.params), print_formula(op.body)))
    for p in d.premises:
        lines.append('premise %s: %s' % (p.name, print_formula(p.formula)))
    lines.append('')
    for s in d.steps:
        lines.append('%d. %s ; %s' % (s.index, print_formula(s.formula),
                                      _print_justification(s)))
    return '\n'.join(lines) + '\n'


# -- checking ----------------------------------------------------------------

def _operator(d: Derivation, name: str) -> Optional[FPOperator]:
    for op in d.ops:
        if op.name == name:
            return op
    return None


def make_axiom_test(logic: LogicSpec, ops: Sequence[FPOperator]):
    """Axiomhood test covering registered schemas and declared fixed-point
    operators; fed to spec membership so constants over fixed-point axioms
    are licensed."""
    def is_axiom(f: Formula) -> bool:
        if match_axiom(logic, f) is not None:
            return True
        for op in ops:
            if fp_axiom_instance(op, f) is not None:
                return True
        return False
    return is_axiom


def cone_indices(d: Derivation, i: int) -> list:
    seen = set()
    todo = [i]
    while todo:
        k = todo.pop()
        if k in seen:
            continue
        seen.add(k)
        todo.extend(d.step(k).refs)
    return sorted(seen)


def cone_derivation(d: Derivation, i: int) -> Derivation:
    """Sub-derivation ending at step i, reindexed from 1."""
    idx = cone_indices(d, i)
    remap = {old: new + 1 for new, old in enumerate(idx)}
    steps = []
    for old in idx:
        s = d.step(old)
        steps.append(Step(remap[old], s.formula, s.rule,
                          tuple(remap[r] for r in s.refs), s.args))
    names = {s.args[0] for s in steps if s.rule == 'premise'}
    premises = tuple(p for p in d.premises if p.name in names)
    return Derivation(d.logic_id, d.spec, d.spec_src, d.agents, d.ops,
                      premises, tuple(steps))


# The memo of one scope (see memo_scope): the inline images built in it
# (see inline_image), and the report of each derivation checked in it, keyed
# by id and kept with the derivation so that no id is reused while the
# scope is open.  The scope also holds registry._DECISIONS, the verdicts of
# the tautology, axiom and logic queries asked in it.  All three are None
# outside a scope, so nothing outlives it.
_IMAGES = None
_VERDICTS = None


@contextlib.contextmanager
def memo_scope():
    """Open the memo for the outermost scope and drop it when that scope
    ends or raises; nested scopes share it.  check_derivation and elaborate
    open one per call; the corpus runner and the command line open one per
    entry, so a derivation checked twice in an entry is checked once, and a
    query on the same formula objects is decided once."""
    global _IMAGES, _VERDICTS
    if _IMAGES is not None:
        yield
        return
    _IMAGES, _VERDICTS, registry._DECISIONS = {}, {}, {}
    try:
        yield
    finally:
        _IMAGES = _VERDICTS = registry._DECISIONS = None


@memo_scope()
def check_derivation(d: Derivation) -> CheckReport:
    """Check every step of d.  Within one scope the same Derivation object
    is checked once; a changed copy is a new object and is checked anew."""
    seen = _VERDICTS.get(id(d))
    if seen is None:
        seen = _VERDICTS[id(d)] = (d, _check(d))
    return seen[1]


def _check(d: Derivation) -> CheckReport:
    logic = get_logic(d.logic_id)
    verdicts = []
    deps = {}
    flags = []
    gl = {}           # GLS: which steps are justified without the T axiom
    gls = logic.name.startswith('GLS')
    is_axiom = make_axiom_test(logic, d.ops)
    multi = logic.profile.agents == 'multi'
    if multi and not d.agents:
        raise DerivationError("logic %s requires an agents header"
                              % logic.name)

    for s in d.steps:
        ok, reason, sflags = _check_step(d, logic, s, deps, gl, gls, is_axiom)
        # dependency bookkeeping happens even for failed steps so later
        # diagnostics stay meaningful
        if s.rule == 'premise':
            deps[s.index] = frozenset((s.args[0],))
        elif s.rule in _CLOSED:
            deps[s.index] = frozenset()
        else:
            deps[s.index] = frozenset().union(
                *(deps[r] for r in s.refs)) if s.refs else frozenset()
        if gls:
            gl[s.index] = _gl_status(logic, s, gl)
        verdicts.append(StepVerdict(s.index, ok, reason, tuple(sflags)))
        flags.extend(sflags)
    all_ok = all(v.ok for v in verdicts)
    return CheckReport(all_ok, logic, verdicts, deps,
                       d.final if d.steps else None, tuple(dict.fromkeys(flags)))


def _gl_status(logic, s: Step, gl: dict) -> bool:
    if s.rule == 'ax':
        # every registered schema except reflection preserves provability-law
        # status; reflection is the one non-theorem axiom
        name = s.args[0]
        if name is None:
            m = match_axiom(logic, s.formula)
            name = m[0] if m else None
        return name != 'T'
    if s.rule in ('nec', 'reg'):
        return True
    if s.rule in ('mp', 'prop'):
        return all(gl.get(r, False) for r in s.refs)
    return False


def _check_step(d, logic, s, deps, gl, gls, is_axiom):
    f = s.formula
    flags = []
    try:
        check_profile(f, logic.profile, d.agents or ())
    except ProfileError as e:
        return False, str(e), flags
    if s.rule not in logic.rules:
        return False, "rule %r not available in %s" % (s.rule, logic.name), flags
    if s.rule in _NEC_LIKE:
        for r in s.refs:
            if deps.get(r):
                return False, ("%s applied to step %d, which depends on "
                               "premises %s" % (s.rule, r,
                                                sorted(deps[r]))), flags

    ref = [d.step(r).formula for r in s.refs]

    if s.rule == 'ax':
        name = s.args[0]
        if name is not None:
            schema = next((a for a in logic.axioms if a.name == name), None)
            if schema is None:
                return False, "schema %r not registered in %s" % (
                    name, logic.name), flags
            if schema.match(f) is None:
                return False, "not an instance of %s" % name, flags
            return True, None, flags
        if match_axiom(logic, f) is None:
            return False, "matches no axiom schema of %s" % logic.name, flags
        return True, None, flags

    if s.rule == 'premise':
        name = s.args[0]
        pre = next((p for p in d.premises if p.name == name), None)
        if pre is None:
            return False, "premise %r not declared" % name, flags
        if f != pre.formula:
            return False, "formula differs from premise %r" % name, flags
        return True, None, flags

    if s.rule == 'mp':
        want = Imp(ref[0], f)
        if ref[1] != want:
            return False, ("step %d is not %s" % (s.refs[1],
                                                  print_formula(want))), flags
        return True, None, flags

    if s.rule == 'nec':
        if gls and not gl.get(s.refs[0], False):
            return False, ("necessitation in GLS requires a provability-law "
                           "step, step %d uses reflection" % s.refs[0]), flags
        if f != Box(ref[0]):
            return False, "conclusion is not [] of step %d" % s.refs[0], flags
        return True, None, flags

    if s.rule == 'gen':
        x = s.args[0]
        if f != Forall(x, ref[0]):
            return False, "conclusion is not all %s of step %d" % (
                x, s.refs[0]), flags
        return True, None, flags

    if s.rule == 'qnec':
        x = s.args[0]
        if x in free_vars(ref[0]):
            return False, "%s is free in step %d" % (x, s.refs[0]), flags
        agent = None
        if isinstance(f, Exists) and isinstance(f.a, Just):
            agent = f.a.agent
        if f != Exists(x, Just(Var(x), agent, ref[0])):
            return False, "conclusion is not ex %s . %s : A" % (x, x), flags
        return True, None, flags

    if s.rule in ('ian', 'an'):
        if s.rule == 'an' and d.spec.kind == 'total':
            # single justification prefix over an axiom instance
            if not isinstance(f, Just):
                return False, "an conclusion must be a justification", flags
            want = Prim if logic.spec_kind == 'pts' else Const
            if not isinstance(f.t, want):
                return False, ("an requires a %s justification term"
                               % want.__name__.lower()), flags
            if not is_axiom(f.a):
                return False, "body is not an axiom instance", flags
            return True, None, flags
        if not spec_membership(d.spec, f, logic, is_axiom):
            return False, "not licensed by the specification", flags
        return True, None, flags

    if s.rule == 'mu-cl':
        if SCHEMAS['mu-cl'].match(f) is None:
            return False, "not a closure instance", flags
        return True, None, flags

    if s.rule == 'mu-ind':
        if not (isinstance(f, Imp) and isinstance(f.a, Mu)):
            return False, "conclusion must be (mu p . A) -> B", flags
        m, b = f.a, f.b
        want = Imp(subst_prop(m.a, m.var, b), b)
        if ref[0] != want:
            return False, "step %d is not %s" % (s.refs[0],
                                                 print_formula(want)), flags
        return True, None, flags

    if s.rule == 'e':
        t = s.args[0]
        if t < 0:
            return False, "negative time", flags
        if f != Knows(t, ref[0]):
            return False, "conclusion is not K@%d of step %d" % (
                t, s.refs[0]), flags
        return True, None, flags

    if s.rule == 'de':
        t1, t2 = s.args
        if not t1 < t2:
            return False, "times must increase", flags
        if f != Imp(Knows(t1, ref[0]), Knows(t2, Knows(t1, ref[0]))):
            return False, "conclusion shape mismatch", flags
        return True, None, flags

    if s.rule == 'reg':
        if not isinstance(ref[0], Imp):
            return False, "step %d is not an implication" % s.refs[0], flags
        a, b = ref[0].a, ref[0].b
        if logic.family == 'tmel':
            if not (isinstance(f, Imp) and isinstance(f.a, Knows)
                    and isinstance(f.b, Knows)):
                return False, "conclusion must relate two knowledge times", flags
            if f.a.a != a or f.b.a != b:
                return False, "conclusion bodies differ from step %d" % (
                    s.refs[0]), flags
            if not f.a.time < f.b.time:
                return False, "times must increase", flags
            return True, None, flags
        if gls and not gl.get(s.refs[0], False):
            return False, ("regularity in GLS requires a provability-law "
                           "step, step %d uses reflection" % s.refs[0]), flags
        if f != Imp(Box(a), Box(b)):
            return False, "conclusion is not []A -> []B for step %d" % (
                s.refs[0]), flags
        return True, None, flags

    if s.rule == 'fp':
        name, given = s.args
        op = _operator(d, name)
        if op is None:
            return False, "no operator %r declared" % name, flags
        if given and (not isinstance(f, Iff) or f.a != FixApp(name, given)):
            return False, "stated arguments do not match the conclusion", flags
        if fp_axiom_instance(op, f) is None:
            return False, "not an instance of the %s axiom" % name, flags
        return True, None, flags

    if s.rule == 'prop':
        if not taut_consequence(f, ref):
            return False, "not a tautological consequence of cited steps", flags
        return True, None, flags

    if s.rule == 'admk':
        t = s.args[0]
        flags.append('admissible-knowledge rule used')
        if f != Knows(t, ref[-1]):
            return False, "conclusion is not K@%d of step %d" % (
                t, s.refs[-1]), flags
        prem = frozenset().union(*(deps.get(r, frozenset()) for r in s.refs)) \
            if s.refs else frozenset()
        for name in prem:
            pf = next((p.formula for p in d.premises if p.name == name), None)
            if pf is None or not (isinstance(pf, Knows) and pf.time < t):
                return False, ("premise %s is not knowledge earlier than "
                               "K@%d" % (name, t)), flags
        return True, None, flags

    if s.rule == 'inline':
        return _check_inline(d, logic, s, deps, flags)

    return False, "unknown rule %r" % s.rule, flags


# what a mismatching image of step i is reported as, per cone transform
_INLINE_MISMATCH = {'lift': "lift of step %d proves %s",
                    'internalize': "internalization of step %d proves %s",
                    'subst': "substitution image of step %d is %s"}


def inline_image(d: Derivation, s: Step) -> Derivation:
    """The sub-derivation inline step s stands for, built by its transform,
    which re-checks what it builds.  A cone internalized over the empty
    specification is read under the total one.

    The image depends only on the key below, so within one scope (see
    memo_scope) it is built once; a TransformError is kept and raised
    again.  The cone of step j reindexed inside the cone of step k equals
    the cone of j, so nested steps find the images built for the levels
    below them."""
    from . import transforms
    if s.args[0] == 'jd':
        key = (s.formula, d.logic_id, d.ops)
    else:
        key = (cone_derivation(d, s.refs[0]), s.args)
    images = {} if _IMAGES is None else _IMAGES
    if key not in images:
        try:
            images[key] = _build_image(d, s)
        except transforms.TransformError as e:
            images[key] = e
    img = images[key]
    if isinstance(img, transforms.TransformError):
        raise img.with_traceback(None)
    return img


def _build_image(d: Derivation, s: Step) -> Derivation:
    from . import transforms
    form = s.args[0]
    if form == 'jd':
        f = s.formula
        return transforms.jd_lemma(f.a.t, f.b.a.t, f.a.a.a, d.logic_id,
                                   f.a.agent, d.ops)
    cone = cone_derivation(d, s.refs[0])
    if form == 'lift':
        return transforms.lift(cone).derivation
    if form == 'internalize':
        if d.spec.kind == 'empty':
            cone = replace(cone, spec=TOTAL, spec_src='tcs')
        return transforms.internalize_qlp(cone).derivation
    return transforms.substitute_proof(cone, s.args[1], s.args[2])


def _check_inline(d, logic, s, deps, flags):
    from . import transforms
    form = s.args[0]
    f = s.formula
    if form == 'jd':
        if not (isinstance(f, Imp) and isinstance(f.a, Just)
                and isinstance(f.a.a, Neg) and isinstance(f.b, Neg)
                and isinstance(f.b.a, Just)
                and f.a.agent == f.b.a.agent):
            return False, ("inline jd expects s : ~A -> ~ t : A"), flags
        if f.a.a.a != f.b.a.a:
            return False, "antecedent and consequent bodies differ", flags
        if d.spec.kind != 'total':
            return False, ("inline jd needs a total specification"), flags
    else:
        i = s.refs[0]
        if deps.get(i):
            return False, ("inline %s applied to step %d, which depends on "
                           "premises %s" % (form, i, sorted(deps[i]))), flags
        if form not in _INLINE_MISMATCH:
            return False, "unknown inline transform %r" % form, flags
        if form == 'internalize' and d.spec.kind == 'empty':
            flags.append('internalized under the total specification')
    try:
        img = inline_image(d, s).final
    except transforms.TransformError as e:
        return False, "inline %s failed: %s" % (form, e), flags
    if img == f:
        return True, None, flags
    if form == 'jd':
        return False, "generated lemma proves %s" % print_formula(img), flags
    return False, _INLINE_MISMATCH[form] % (s.refs[0], print_formula(img)), flags


@memo_scope()
def elaborate(d: Derivation) -> Derivation:
    """Expand inline transform steps into their generated sub-derivations.
    The result contains only primitive rules and proves the same final
    formula; premise-bearing steps are untouched (inline steps are always
    premise-free)."""
    if not any(s.rule == 'inline' for s in d.steps):
        return d
    new_steps = []
    remap = {}

    def emit(formula, rule, refs, args):
        new_steps.append(Step(len(new_steps) + 1, formula, rule, refs, args))
        return len(new_steps)

    for s in d.steps:
        if s.rule != 'inline':
            remap[s.index] = emit(s.formula, s.rule,
                                  tuple(remap[r] for r in s.refs), s.args)
            continue
        sub = inline_image(d, s)
        offset = len(new_steps)
        for t in sub.steps:
            if t.rule == 'inline':
                raise DerivationError("transform emitted an inline step")
            emit(t.formula, t.rule, tuple(r + offset for r in t.refs), t.args)
        if sub.steps[-1].formula != s.formula:
            raise DerivationError(
                "elaborated step %d proves a different formula" % s.index)
        remap[s.index] = len(new_steps)
    return Derivation(d.logic_id, d.spec, d.spec_src, d.agents, d.ops,
                      d.premises, tuple(new_steps))


def format_report(rep: CheckReport, verbose: bool = False) -> str:
    lines = []
    if verbose:
        for v in rep.verdicts:
            mark = 'ok' if v.ok else 'FAIL'
            extra = '' if v.ok else '  %s' % v.reason
            lines.append('step %d: %s%s' % (v.index, mark, extra))
    for fl in rep.flags:
        lines.append('note: %s' % fl)
    if rep.ok:
        used = rep.premises_used
        tail = (' [premises: %s]' % ', '.join(sorted(used))) if used else ''
        lines.append('OK: final = %s%s' % (print_formula(rep.final), tail))
    else:
        idx, why = rep.first_failure
        lines.append('FAIL step %d: %s' % (idx, why))
    return '\n'.join(lines)
