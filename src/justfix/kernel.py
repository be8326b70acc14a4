"""Derivation checker and the .drv file format.

A derivation is a header block (see read_lines) followed by numbered steps:

    logic: JT(FP)
    spec: tcs
    fix d p () := ~ x : p
    premise k1: K@1 (E1 | E2)

    1. fix(d) <-> ~ x : fix(d) ; fp d
    2. ...                     ; prop 1

Each step line is  <n>. <formula> ; <rule> [args]  where the separator is
the first semicolon at parenthesis depth zero (formulas may contain
semicolons inside fix(...) argument lists).

Every rule is declared once, as a row of RULES: the grammar of its
arguments and the parse error for malformed ones, how many steps it
cites, whether those must be premise-free (necessitation-like rules, which
keeps the deduction transform total), whether the step carries their
premises, its role in GLS's provability-law bookkeeping, and its check.
A shape rule (nec, reg, gen, qnec, e, de) holds its check as data:
patterns over its formulas, matched as schemas are, and named side
conditions, each with its reason.  The parser and printer read the
grammar, and the checker runs the check after the tests every step
shares: its number and citations (which a derivation built in code may
break), profile, availability and premise-freedom.
The checker tracks which premises each step depends on.  Failed steps do
not abort the run: later steps are checked against the stated formulas,
so one broken citation yields one diagnostic rather than a cascade.
"""

import os
import re
from typing import Callable, Optional, Sequence

from .syntax import (
    Formula, Neg, Imp, Iff, Box, Knows, Just,
    Forall, Exists, Mu, FixApp, FMeta,
    Var, Const, Prim,
    NotFreeFor, ProfileError,
    parse_formula, parse_term, print_formula, print_term,
    check_profile, free_vars, is_ident,
    subst_prop, record, replace,
)
from . import registry
from .registry import (
    LogicSpec, get_logic, match_axiom, match_node, SCHEMAS,
    Spec, TOTAL, EMPTY, spec_membership, taut_consequence, memo_scope,
)
from .fixedpoint import FPOperator, make_operator, fp_axiom_instance


class DerivationError(Exception):
    """Malformed derivation file or headers."""


@record
class Premise:
    name: str
    formula: Formula


@record
class Step:
    index: int
    formula: Formula
    rule: str
    refs: tuple = ()
    args: tuple = ()


@record
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


@record
class StepVerdict:
    index: int
    ok: bool
    reason: Optional[str] = None
    flags: tuple = ()


@record
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


# -- parsing -----------------------------------------------------------------

# numbers are ASCII digits only: \d and int also take other scripts' digits
_STEP_RE = re.compile(r'^([0-9]+)\.\s*(.*)$')
_SUBST_RE = re.compile(r'^([0-9]+)\s+(\S+)\s*:=\s*(.+)$')
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


def read_lines(text: str, headers: Optional['Headers'] = None):
    """The lines of a .drv, .mdl or .spec text, without comments, blank
    lines and surrounding whitespace.  '#' starts a comment when it opens
    a line or follows whitespace, so identifiers may contain '#'.

    Given headers, the lines of the three headers .drv and .mdl files
    share go to it, each holding for the lines after it:

        logic: <id>
        spec: tcs | empty | file <path>
        agents: <n> | <name> ...

    `spec: file <path>` names a .spec file, relative to the naming file's
    directory: one formula per line, read in the logic in force (a .drv
    file must set one first).  `agents: <n>` names a1 ... an, n at most
    _AGENTS_MAX; other names must be identifiers, separated by spaces or
    commas.  After the last line, a file whose logic is single-agent may
    not have declared an agent, whichever header came first.  Errors are
    raised in headers.error, the format's own class."""
    for raw in text.splitlines():
        line = strip_comment(raw).strip()
        if not line:
            continue
        if headers is not None and line.startswith(('logic:', 'spec:',
                                                    'agents:')):
            headers.read(line)
        else:
            yield line
    h = headers
    if h is not None and h.agents and h.logic is not None \
            and h.logic.profile.agents == 'single':
        raise h.error("logic %s is single-agent and takes no agents header"
                      % h.logic.name)


class Headers:
    """What the headers of one file set (see read_lines), and the table
    all its formulas are parsed through, so equal subtrees are one object."""

    def __init__(self, error: type, base_dir: str,
                 logic_id: Optional[str] = None, spec_src: str = 'tcs'):
        self.error, self.base_dir, self.table = error, base_dir, {}
        self.logic_id, self.spec_src, self.agents = logic_id, spec_src, None
        self.logic = get_logic(logic_id) if logic_id else None
        self.spec = parse_spec_value(spec_src, None, base_dir)

    def need_logic(self, what: str) -> LogicSpec:
        """The logic, which the line that what names needs."""
        if self.logic is None:
            raise self.error("%s before logic header" % what)
        return self.logic

    def read(self, line: str) -> None:
        word, _, value = line.partition(':')
        value = value.strip()
        if word == 'logic':
            self.logic_id, self.logic = value, get_logic(value)
        elif word == 'spec':
            if value.split()[:1] == ['file']:
                self.need_logic('spec file')
            self.spec = parse_spec_value(value, self.logic, self.base_dir,
                                         table=self.table, error=self.error)
            self.spec_src = value
        else:
            names = value.replace(',', ' ').split()
            # isdigit alone also accepts digits such as '²' that int refuses
            if len(names) == 1 and names[0].isascii() and names[0].isdigit():
                if int(names[0]) > _AGENTS_MAX:
                    raise self.error("agent count %s exceeds %d"
                                     % (names[0], _AGENTS_MAX))
                names = ['a%d' % (k + 1) for k in range(int(names[0]))]
            bad = next((a for a in names if not is_ident(a)), None)
            if bad is not None:
                raise self.error("agent name %r is not an identifier" % bad)
            self.agents = tuple(names)


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
    """An optional '-' and ASCII digits; int alone also takes '+', '_' and
    other scripts' digits, such as '\u0661'."""
    digits = tok[1:] if tok.startswith('-') else tok
    if not (digits.isascii() and digits.isdigit()):
        raise DerivationError("%s %r is not a number" % (what, tok))
    return int(tok)


def _parse_refs(tokens) -> tuple:
    refs = []
    for tok in tokens:
        for piece in tok.split(','):
            if piece:
                refs.append(_number(piece))
    return tuple(refs)


def _parse_justification(text: str, profile, *,
                         table: Optional[dict] = None) -> tuple:
    """Returns (rule, refs, args), read by the rule's grammar in RULES; its
    formulas and terms are parsed through table (see parse_formula)."""
    head = _split_top(text, ';')
    toks = head[0].split()
    if not toks:
        raise DerivationError("empty justification")
    rule, rest = toks[0], toks[1:]
    if len(head) > 1 and rule != 'fp':
        raise DerivationError("%s takes no ';' part" % rule)
    row = RULES.get(rule)
    if row is None:
        raise DerivationError("unknown rule %r" % rule)
    grammar, usage, args = row.grammar, row.usage, []
    if row.forms:
        # the first word names a form, which has a grammar of its own
        if not rest:
            raise DerivationError(usage)
        if rest[0] not in row.forms:
            raise DerivationError("unknown %s transform %r" % (rule, rest[0]))
        grammar, usage, _ = row.forms[rest[0]]
        args.append(rest.pop(0))
    if grammar is None:                     # inline subst <i> <x> := <term>
        m = _SUBST_RE.match(' '.join(rest))
        if not m:
            raise DerivationError(usage)
        return rule, (int(m.group(1)),), (
            'subst', m.group(2), parse_term(m.group(3), profile, table=table))
    refs = ()
    if 'refs' in grammar:
        # the first slot: every token before the slots that follow
        grammar = grammar[1:]
        k = len(rest) - len(grammar)
        if k > 0:
            refs, rest = _parse_refs(rest[:k]), rest[k:]
        least, most = row.nrefs
        if not least <= len(refs) <= (most or len(refs)):
            raise DerivationError(usage)
    elif not len(grammar) - ('[name]' in grammar) <= len(rest) \
            <= len(grammar):
        raise DerivationError(usage)
    for slot, tok in zip(grammar, rest + [None]):
        if slot == 'ref':
            refs += (_number(tok),)
        else:
            args.append(_number(tok, 'time') if slot == 'time' else tok)
    if rule == 'fp':                # its ';' part: the operator's arguments
        args.append(tuple(parse_formula(p.strip(), profile, table=table)
                          for p in _split_top(';'.join(head[1:]), ',')
                          if p.strip())
                    if len(head) > 1 else ())
    return rule, refs, tuple(args)


def parse_spec_file(path: str, profile, *,
                    table: Optional[dict] = None) -> Spec:
    with open(path) as fh:
        text = fh.read()
    return Spec('explicit', frozenset(parse_formula(line, profile, table=table)
                                      for line in read_lines(text)))


def parse_spec_value(src: str, logic, base_dir: str, *,
                     table: Optional[dict] = None,
                     error: type = DerivationError) -> Spec:
    """The specification a `spec:` header names: tcs, empty, or file <path>
    relative to base_dir, whose formulas are parsed through table; else an
    error of class error."""
    if src == 'tcs':
        return TOTAL
    if src == 'empty':
        return EMPTY
    parts = src.split(None, 1)
    if len(parts) != 2 or parts[0] != 'file':
        raise error("spec must be tcs, empty, or file <path>")
    return parse_spec_file(os.path.join(base_dir, parts[1].strip()),
                           logic.profile, table=table)


def parse_fix_decl(line: str, logic, *,
                   table: Optional[dict] = None) -> FPOperator:
    """Parse `fix <name> <var> (<params>) := <body>` against a logic, the
    body through table."""
    if not logic.fp:
        raise DerivationError(
            "logic %s has no fixed-point extension" % logic.name)
    m = _FIX_DECL_RE.match(line)
    if not m:
        raise DerivationError("bad fix declaration: %r" % line)
    params = tuple(p.strip() for p in m.group(3).split(',') if p.strip())
    body = parse_formula(m.group(4), logic.profile, table=table)
    return make_operator(m.group(1), m.group(2), params, body, logic.fp_mode)


def parse_derivation(text: str, base_dir: str = '.') -> Derivation:
    """The derivation text states, read by read_lines."""
    h = Headers(DerivationError, base_dir)
    ops, premises, steps = [], [], []
    for line in read_lines(text, h):
        m = _STEP_RE.match(line)
        if m:
            profile = h.need_logic('steps').profile
            n = int(m.group(1))
            if n != len(steps) + 1:
                raise DerivationError("step %d out of sequence" % n)
            parts = _split_top(m.group(2), ';')
            if len(parts) < 2:
                raise DerivationError("step %d lacks a justification" % n)
            formula = parse_formula(parts[0].strip(), profile, table=h.table)
            rule, refs, args = _parse_justification(
                ';'.join(parts[1:]).strip(), profile, table=h.table)
            if any(r < 1 or r >= n for r in refs):
                raise DerivationError("step %d cites an unavailable step" % n)
            steps.append(Step(n, formula, rule, refs, args))
        elif line.startswith('fix '):
            ops.append(parse_fix_decl(line, h.need_logic('fix declaration'),
                                      table=h.table))
        elif line.startswith('premise '):
            profile = h.need_logic('premise').profile
            name, _, rhs = line[len('premise '):].partition(':')
            if not rhs:
                raise DerivationError("premise needs <name>: <formula>")
            premises.append(Premise(name.strip(), parse_formula(
                rhs.strip(), profile, table=h.table)))
        else:
            raise DerivationError("unrecognized line: %r" % line)
    if h.logic is None:
        raise DerivationError("missing logic header")
    if not steps:
        raise DerivationError("no steps")
    return Derivation(h.logic_id, h.spec, h.spec_src, h.agents, tuple(ops),
                      tuple(premises), tuple(steps))


def load_derivation(path: str) -> Derivation:
    with open(path) as fh:
        return parse_derivation(fh.read(), os.path.dirname(path) or '.')


# -- serialization -----------------------------------------------------------

def _print_justification(s: Step) -> str:
    row = RULES.get(s.rule, _UNKNOWN)
    words, args, grammar = [s.rule], list(s.args), row.grammar
    if row.forms:
        words.append(args.pop(0))
        grammar = row.forms[words[1]][0]
    if grammar is None:
        return 'inline subst %d %s := %s' % (s.refs[0], s.args[1],
                                             print_term(s.args[2]))
    for slot in grammar:
        if slot == 'refs':      # comma-joined when another slot follows
            words.append((',' if len(grammar) > 1 else ' ').join(
                map(str, s.refs)))
        else:
            words.append(s.refs[0] if slot == 'ref' else args.pop(0))
    out = ' '.join(str(w) for w in words if w not in ('', None))
    if s.rule == 'fp' and s.args[1]:
        out += '; ' + ', '.join(print_formula(a) for a in s.args[1])
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


def _cone(d: Derivation, i: int) -> list:
    """(step, its refs reindexed from 1) for each step of the cone of step
    i, in order."""
    seen = set()
    todo = [i]
    while todo:
        k = todo.pop()
        if k in seen:
            continue
        seen.add(k)
        todo.extend(d.step(k).refs)
    remap = {old: new + 1 for new, old in enumerate(sorted(seen))}
    return [(d.step(k), tuple(remap[r] for r in d.step(k).refs))
            for k in remap]


def cone_derivation(d: Derivation, i: int) -> Derivation:
    """Sub-derivation ending at step i, reindexed from 1."""
    steps = tuple(Step(n, s.formula, s.rule, refs, s.args)
                  for n, (s, refs) in enumerate(_cone(d, i), 1))
    names = {s.args[0] for s in steps if s.rule == 'premise'}
    premises = tuple(p for p in d.premises if p.name in names)
    return replace(d, premises=premises, steps=steps)


def resume(kind: str, d: Derivation, run: tuple):
    """Where a fold of kind over the steps of d may start.  Registers run,
    the caller's state of the fold, whose last item holds one entry per
    step the fold has finished, under kind, the header of d (the logic,
    the agents and the objects of its specification, operators and
    premises) and the formula object of its first step.  Returns (k,
    prior): prior is the run registered before under that key whose first
    k steps match those of d and are finished, with k as large as any such
    run gives; (0, None) when there is none or no scope is open.  Two
    steps match when they have the same formula object, index, rule, refs
    and args, and cite only earlier steps, so a fold that is a function
    of the header and the steps so far is at step k what prior was.  The
    entry keeps d, so no id in the key is reused; a fold that prior holds
    whole is not registered, as it adds nothing to match."""
    table, steps = registry._DECISIONS, d.steps
    if table is None or not steps:
        return 0, None
    runs = table.setdefault(
        ('fold', kind, d.logic_id, id(d.spec), d.agents, id(d.ops),
         tuple(map(id, d.premises)), id(steps[0].formula)), [])
    best, prior = 0, None
    for old, other in runs:
        n, k = min(len(steps), len(other[-1])), 0
        if old is d:        # the same input under the same header
            k = n
        while k < n and _same_step(steps[k], old.steps[k], k + 1):
            k += 1
        if k > best:
            best, prior = k, other
    if best < len(steps):
        runs.append((d, run))
    return best, prior


def _same_step(s: Step, t: Step, n: int) -> bool:
    """Whether s and t, both at position n, match (see resume)."""
    return (s.index == n and all(0 < r < n for r in s.refs)
            and (s is t or s.formula is t.formula and s.index == t.index
                 and s.rule == t.rule and s.refs == t.refs
                 and s.args == t.args))


@record
class _Context:
    """What the checks of one derivation share."""
    d: Derivation
    logic: LogicSpec
    is_axiom: Callable
    deps: dict              # step index -> frozenset of premise names
    gl: Optional[dict]      # GLS only: step index -> proved without T
    flags: list             # the notes raised so far


@memo_scope()
def check_derivation(d: Derivation) -> CheckReport:
    """Check every step of d.  Within one scope a repeat check of the same
    Derivation object, or of one that begins with its steps, resumes from
    the steps checked before (see resume), so only a changed step and the
    steps after it are checked anew."""
    logic = get_logic(d.logic_id)
    if logic.profile.agents == 'multi' and not d.agents:
        raise DerivationError("logic %s requires an agents header"
                              % logic.name)
    c = _Context(d, logic, make_axiom_test(logic, d.ops), {},
                 {} if logic.name.startswith('GLS') else None, [])
    verdicts = []
    k, prior = resume('check', d, (c, verdicts))
    if k:
        was, verdicts[:] = prior[0], prior[1][:k]
        for v in verdicts:
            c.deps[v.index] = was.deps[v.index]
            if c.gl is not None:
                c.gl[v.index] = was.gl[v.index]
            c.flags.extend(v.flags)
    for s in d.steps[k:]:
        n = len(verdicts) + 1               # the position of s
        row, noted = RULES.get(s.rule, _UNKNOWN), len(c.flags)
        reason = _check_step(c, s, row, n)
        # dependency bookkeeping happens even for failed steps so later
        # diagnostics stay meaningful; it is kept by position, and a step
        # malformed as _MALFORMED names has no premises and is no
        # provability-law step
        malformed = reason in _MALFORMED
        if malformed or not row.carries:
            c.deps[n] = frozenset()
        elif row.carries == 'refs':
            c.deps[n] = frozenset().union(*(c.deps[r] for r in s.refs))
        else:
            c.deps[n] = frozenset(s.args[:1])
        if c.gl is not None:
            c.gl[n] = not malformed and _gl_status(c, s, row.gl)
        verdicts.append(StepVerdict(s.index, reason is None, reason,
                                    tuple(c.flags[noted:])))
    return CheckReport(all(v.ok for v in verdicts), logic, verdicts, c.deps,
                       d.final if d.steps else None,
                       tuple(dict.fromkeys(c.flags)))


def _gl_status(c: _Context, s: Step, role: Optional[str]) -> bool:
    """Whether step s is justified without the T axiom, by its rule's role:
    'schema' unless the axiom is reflection, the one non-theorem schema;
    'law' always; 'refs' when its cited steps are."""
    if role == 'schema':
        name = s.args[0]
        if name is None:
            m = match_axiom(c.logic, s.formula)
            name = m[0] if m else None
        return name != 'T'
    if role == 'refs':
        return all(c.gl.get(r, False) for r in s.refs)
    return role == 'law'


def _check_step(c: _Context, s: Step, row, n: int) -> Optional[str]:
    """Why step s, at position n, fails, or None when it holds."""
    if s.index != n:
        return "out of sequence"
    if s.refs and not 0 < min(s.refs) <= max(s.refs) < n:
        return "cites an unavailable step"
    shape = _SHAPES.get((s.rule, s.args[0] if row.forms and s.args
                         else None))
    if shape is not None:
        least, most, nargs, usage = shape
        k = len(s.refs)
        if k < least or most is not None and k > most \
                or len(s.args) != nargs:
            return usage
    try:
        check_profile(s.formula, c.logic.profile, c.d.agents or ())
    except ProfileError as e:
        return str(e)
    if s.rule not in c.logic.rules:
        return "rule %r not available in %s" % (s.rule, c.logic.name)
    if row.premise_free:
        label = s.rule + (' ' + s.args[0] if row.forms else '')
        for r in s.refs:
            if c.deps.get(r):
                return ("%s applied to step %d, which depends on premises %s"
                        % (label, r, sorted(c.deps[r])))
    ref = [c.d.step(r).formula for r in s.refs]
    if type(row.check) is dict:
        return _shaped(c, s, ref, row.check[c.logic.family])
    return row.check(c, s, ref)


# -- the rules: each check takes the context, the step and the formulas of
# the steps it cites, and returns why the step fails or None

def _ax(c, s, ref):
    name, f = s.args[0], s.formula
    if name is None:
        if match_axiom(c.logic, f) is None:
            return "matches no axiom schema of %s" % c.logic.name
        return None
    schema = next((a for a in c.logic.axioms if a.name == name), None)
    if schema is None:
        return "schema %r not registered in %s" % (name, c.logic.name)
    if schema.match(f) is None:
        return "not an instance of %s" % name


def _premise(c, s, ref):
    name = s.args[0]
    pre = next((p for p in c.d.premises if p.name == name), None)
    if pre is None:
        return "premise %r not declared" % name
    if s.formula != pre.formula:
        return "formula differs from premise %r" % name


# _mp and _admk compare the fields of the formulas they are given, as ==
# of a node built from them would, and build none: the field tuples
# compare item by item, an object equal to itself at once

def _mp(c, s, ref):
    g = ref[1]
    if type(g) is not Imp or (g.a, g.b) != (ref[0], s.formula):
        return "step %d is not %s" % (s.refs[1],
                                      print_formula(Imp(ref[0], s.formula)))


def _ian(c, s, ref):
    if not spec_membership(c.d.spec, s.formula, c.logic, c.is_axiom):
        return "not licensed by the specification"


def _an(c, s, ref):
    f = s.formula
    if c.d.spec.kind != 'total':
        return _ian(c, s, ref)
    # single justification prefix over an axiom instance
    if not isinstance(f, Just):
        return "an conclusion must be a justification"
    want = Prim if c.logic.spec_kind == 'pts' else Const
    if not isinstance(f.t, want):
        return "an requires a %s justification term" % want.__name__.lower()
    if not c.is_axiom(f.a):
        return "body is not an axiom instance"


def _mu_cl(c, s, ref):
    if SCHEMAS['mu-cl'].match(s.formula) is None:
        return "not a closure instance"


def _mu_ind(c, s, ref):
    f = s.formula
    if not (isinstance(f, Imp) and isinstance(f.a, Mu)):
        return "conclusion must be (mu p . A) -> B"
    try:
        want = Imp(subst_prop(f.a.a, f.a.var, f.b), f.b)
    except NotFreeFor as ex:
        return "%s is not free for %s in the mu body: %s" % (
            print_formula(f.b), f.a.var, ex)
    if ref[0] != want:
        return "step %d is not %s" % (s.refs[0], print_formula(want))


def _fp(c, s, ref):
    (name, given), f = s.args, s.formula
    op = next((o for o in c.d.ops if o.name == name), None)
    if op is None:
        return "no operator %r declared" % name
    if given and (not isinstance(f, Iff) or f.a != FixApp(name, given)):
        return "stated arguments do not match the conclusion"
    if fp_axiom_instance(op, f) is None:
        return "not an instance of the %s axiom" % name


def _prop(c, s, ref):
    if not taut_consequence(s.formula, ref):
        return "not a tautological consequence of cited steps"


def _admk(c, s, ref):
    t = s.args[0]
    c.flags.append('admissible-knowledge rule used')
    f = s.formula
    if type(f) is not Knows or (f.time, f.a) != (t, ref[-1]):
        return "conclusion is not K@%d of step %d" % (t, s.refs[-1])
    used = frozenset().union(*(c.deps.get(r, frozenset()) for r in s.refs))
    declared = {}
    for p in c.d.premises:
        declared.setdefault(p.name, p.formula)
    # declared premises in declaration order, then undeclared names in name
    # order, so the reason names the same premise under every hash seed
    for name in [n for n in declared if n in used] + sorted(
            used - declared.keys()):
        pf = declared.get(name)
        if pf is None or not (isinstance(pf, Knows) and pf.time < t):
            return ("premise %s is not knowledge earlier than K@%d"
                    % (name, t))


def _inline(c, s, ref):
    from . import transforms
    form, f = s.args[0], s.formula
    if form not in _INLINE_FORMS:
        return "unknown inline transform %r" % form
    if form == 'jd':
        if not (isinstance(f, Imp) and isinstance(f.a, Just)
                and isinstance(f.a.a, Neg) and isinstance(f.b, Neg)
                and isinstance(f.b.a, Just)
                and f.a.agent == f.b.a.agent):
            return "inline jd expects s : ~A -> ~ t : A"
        if f.a.a.a != f.b.a.a:
            return "antecedent and consequent bodies differ"
        if c.d.spec.kind != 'total':
            return "inline jd needs a total specification"
    if form == 'internalize' and c.d.spec.kind == 'empty':
        c.flags.append('internalized under the total specification')
    try:
        img = inline_image(c.d, s).final
    except transforms.TransformError as e:
        return "inline %s failed: %s" % (form, e)
    if img != f:
        return _INLINE_FORMS[form][2].format(*s.refs, f=print_formula(img))


def _shaped(c, s, ref, tests):
    """Why step s fails the first of tests it fails, or None.  A test is
    the name of a side condition in _SIDE, a function of c, s and the
    binding, or the key of a formula in the binding and a pattern that
    registry.match_node matches it against.  The binding starts with the
    cited formulas as FMeta '0' and '1', the conclusion as FMeta 'C' and
    each arg as the slot '?0' or '?1' of either kind, a time or a
    variable.  A reason is formatted with the refs, then the args."""
    b = dict(zip(('F:0', 'F:1'), ref))
    b['F:C'] = s.formula
    for k, a in zip('01', s.args):
        b['i:' + k] = b['v:' + k] = a
    for test, reason in tests:
        if not (_SIDE[test](c, s, b) if type(test) is str
                else match_node(test[1], b[test[0]], b)):
            return reason.format(*s.refs, *s.args)


# the side conditions of the shape rules, by name; 'law' holds outside GLS,
# and in GLS when the cited step is a provability-law step (_gl_status)
_SIDE = {
    'law': lambda c, s, b: c.gl is None or c.gl.get(s.refs[0], False),
    'increasing': lambda c, s, b: b['i:0'] < b['i:1'],
    'not negative': lambda c, s, b: b['i:0'] >= 0,
    'not free': lambda c, s, b: b['v:0'] not in free_vars(b['F:0']),
}
_0, _A, _B, _P, _Q = map(FMeta, '0ABPQ')
_IMPLICATION = (('F:0', Imp(_A, _B)), "step {0} is not an implication")


@record
class Rule:
    """One inference rule.  Its grammar names the argument slots after
    the rule name: refs (first when present: step references, comma- or
    space-separated, as many as nrefs allows), ref (one step reference),
    var, time, name and an optional [name]; refs and ref fill Step.refs
    and the others Step.args, in order.  usage is the parse error for
    malformed arguments.  check is a function of the context, the step
    and its cited formulas; a shape rule's is its tests, with a reason
    each, per logic family that has the rule (see _shaped)."""
    name: str
    grammar: tuple
    usage: str
    check: object
    nrefs: tuple = (0, None)        # least and most references, None: any
    premise_free: bool = False      # cited steps may not depend on premises
    carries: str = ''               # the step depends on the premises of
                                    # its cited steps ('refs'), on the
                                    # premise it names ('name') or on none
    gl: Optional[str] = None        # GLS role, see _gl_status
    forms: Optional[dict] = None    # form word -> (grammar, usage, mismatch)


# inline <form>: grammar (None: subst's `<i> <x> := <term>`), parse error,
# and what a step whose stated formula differs from its image reports
_INLINE_FORMS = {
    'lift': (('ref',), "inline lift takes one step reference",
             "lift of step {0} proves {f}"),
    'internalize': (('ref',), "inline internalize takes one step reference",
                    "internalization of step {0} proves {f}"),
    'subst': (None, "inline subst syntax: subst <i> <x> := <term>",
              "substitution image of step {0} is {f}"),
    'jd': ((), "inline jd takes no arguments", "generated lemma proves {f}"),
}

RULES = {r.name: r for r in (
    Rule('ax', ('[name]',), "ax takes at most one schema id", _ax,
         gl='schema'),
    Rule('premise', ('name',), "premise takes a name", _premise,
         carries='name'),
    Rule('mp', ('refs',), "mp takes two step references", _mp, nrefs=(2, 2),
         carries='refs', gl='refs'),
    Rule('prop', ('refs',), "prop takes step references", _prop,
         carries='refs', gl='refs'),
    Rule('nec', ('refs',), "nec takes one step reference", {'modal': (
        ('law', "necessitation in GLS requires a provability-law step, "
                "step {0} uses reflection"),
        (('F:C', Box(_0)), "conclusion is not [] of step {0}"))},
         nrefs=(1, 1), premise_free=True, gl='law'),
    Rule('reg', ('refs',), "reg takes one step reference", {
        'modal': (_IMPLICATION,
                  ('law', "regularity in GLS requires a provability-law "
                          "step, step {0} uses reflection"),
                  (('F:C', Imp(Box(_A), Box(_B))),
                   "conclusion is not []A -> []B for step {0}")),
        'tmel': (_IMPLICATION,
                 (('F:C', Imp(Knows('?0', _P), Knows('?1', _Q))),
                  "conclusion must relate two knowledge times"),
                 (('F:C', Imp(Knows('?0', _A), Knows('?1', _B))),
                  "conclusion bodies differ from step {0}"),
                 ('increasing', "times must increase"))},
         nrefs=(1, 1), premise_free=True, gl='law'),
    Rule('gen', ('ref', 'var'), "gen takes a step reference and a variable",
         {'qlp': ((('F:C', Forall('?0', _0)),
                   "conclusion is not all {1} of step {0}"),)},
         premise_free=True),
    Rule('qnec', ('ref', 'var'),
         "qnec takes a step reference and a variable", {'qlp': (
             ('not free', "{1} is free in step {0}"),
             (('F:C', Exists('?0', Just(Var('?0'), '?g', _0))),
              "conclusion is not ex {1} . {1} : A"))},
         premise_free=True),
    Rule('ian', (), "ian takes no arguments", _ian),
    Rule('an', (), "an takes no arguments", _an),
    Rule('e', ('ref', 'time'), "e takes a step reference and a time", {
        'tmel': (('not negative', "negative time"),
                 (('F:C', Knows('?0', _0)),
                  "conclusion is not K@{1} of step {0}"))},
         premise_free=True),
    Rule('de', ('ref', 'time', 'time'),
         "de takes a step reference and two times", {'tmel': (
             ('increasing', "times must increase"),
             (('F:C', Imp(Knows('?0', _0), Knows('?1', Knows('?0', _0)))),
              "conclusion shape mismatch"))},
         premise_free=True),
    Rule('admk', ('refs', 'time'), "admk takes step references and a time",
         _admk, nrefs=(1, None), carries='refs'),
    Rule('fp', ('name',), "fp takes an operator name", _fp),
    Rule('mu-cl', (), "mu-cl takes no arguments", _mu_cl),
    Rule('mu-ind', ('refs',), "mu-ind takes one step reference", _mu_ind,
         nrefs=(1, 1), premise_free=True),
    Rule('inline', (), "inline requires a transform name", _inline,
         premise_free=True, forms=_INLINE_FORMS),
)}
# a step built in code under a name no logic has: it fails as unavailable,
# carries its cited steps' premises and prints as its name and references
_UNKNOWN = Rule('', ('refs',), '', None, carries='refs')


def _shape(grammar: Optional[tuple], nrefs: tuple, words: int,
           usage: str) -> tuple:
    """(least refs, most refs or None, args, usage) of the steps
    parse_derivation reads by grammar (None: inline subst's `<i> <x> :=
    <term>`); words counts the args beside the grammar's slots, the form
    word of an inline step and the operator arguments of an fp step."""
    if grammar is None:
        return 1, 1, 2 + words, usage
    if 'refs' in grammar:
        return (*nrefs, len(grammar) - 1 + words, usage)
    refs = grammar.count('ref')
    return refs, refs, len(grammar) - refs + words, usage


# (rule, form word or None) -> its shape: a step built in code whose refs
# or args break its grammar fails with the usage before its rule runs
_SHAPES = {(r.name, None): _shape(r.grammar, r.nrefs, (r.name == 'fp')
                                  + bool(r.forms), r.usage)
           for r in RULES.values()}
for r in RULES.values():
    for word, (grammar, usage, _) in (r.forms or {}).items():
        _SHAPES[r.name, word] = _shape(grammar, r.nrefs, 1, usage)
# why a step built in code fails before any rule runs: parse_derivation
# refuses each, so no .drv file reaches them, and no rule's check gives
# one of these reasons
_MALFORMED = frozenset({"out of sequence", "cites an unavailable step",
                        *(shape[-1] for shape in _SHAPES.values())})


def inline_image(d: Derivation, s: Step) -> Derivation:
    """The sub-derivation inline step s stands for, built by its transform,
    which re-checks what it builds.  A cone internalized over the empty
    specification is read under the total one.

    The image depends only on the key below, so within one scope (see
    memo_scope) it is built once; a TransformError is kept and raised
    again.  The key holds the header of d, by the ids of its
    specification and operators, and each step of the cone of s by the
    id of its formula, its rule, its refs reindexed as in the cone and
    its args, with the premises the cone names; the entry keeps d, so no
    id is reused.  Only a miss builds the cone.  The cone of step j
    reindexed inside the cone of step k is the cone of j, so nested steps
    find the images built for the levels below them."""
    from . import transforms
    if s.args[0] == 'jd':
        key = (s.formula, d.logic_id, d.ops)
    else:
        key = (s.args, d.logic_id, id(d.spec), d.spec_src, d.agents,
               id(d.ops), *_cone_key(d, s.refs[0]))
    img = registry._decide(('image', key), d, _build_image, d, s)
    if isinstance(img, transforms.TransformError):
        # a fresh error: raising the kept one would give it a traceback
        # through this frame, whose img holds it, a reference cycle
        raise transforms.TransformError(*img.args)
    return img


def _cone_key(d: Derivation, i: int) -> tuple:
    """The steps of the cone of step i and the premises they name, keyed
    by the ids of their formulas (see inline_image)."""
    cone = _cone(d, i)
    names = {s.args[0] for s, _ in cone if s.rule == 'premise'}
    return (tuple((id(s.formula), s.rule, refs, s.args) for s, refs in cone),
            tuple((p.name, id(p.formula)) for p in d.premises
                  if p.name in names))


def _build_image(d: Derivation, s: Step):
    """The image of inline step s, or the TransformError building it
    raised."""
    from . import transforms
    form, f = s.args[0], s.formula
    try:
        if form == 'jd':
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
    except transforms.TransformError as e:
        # kept without its traceback, whose frames reach inline_image's
        return e.with_traceback(None)


@memo_scope()
def elaborate(d: Derivation) -> Derivation:
    """Expand inline transform steps into their generated sub-derivations.
    The result contains only primitive rules and proves the same final
    formula; premise-bearing steps are untouched (inline steps are always
    premise-free).  An internalization over the empty specification
    expands into steps that only the total one licenses, as inline_image
    reads its cone, so the result then states the total specification.

    What a step emits depends only on the header and the steps up to it,
    so within one scope elaborating a derivation that begins with the
    steps of one elaborated before starts where that fold ended, with the
    Step objects it emitted (see resume); the folds that read the result,
    a check and an internalization, then resume over the same objects."""
    if not any(s.rule == 'inline' for s in d.steps):
        return d
    new_steps = []
    remap = {}
    marks = []      # after each step of d: (steps emitted, total)
    total = False
    k, prior = resume('elaborate', d, (new_steps, remap, marks))
    if k:
        psteps, premap, pmarks = prior
        n, total = pmarks[k - 1]
        new_steps[:] = psteps[:n]
        remap.update((s.index, premap[s.index]) for s in d.steps[:k])
        marks += pmarks[:k]

    def emit(formula, rule, refs, args):
        new_steps.append(Step(len(new_steps) + 1, formula, rule, refs, args))
        return len(new_steps)

    for s in d.steps[k:]:
        if s.rule != 'inline':
            remap[s.index] = emit(s.formula, s.rule,
                                  tuple(remap[r] for r in s.refs), s.args)
        else:
            sub = inline_image(d, s)
            total = total or s.args[0] == 'internalize'
            offset = len(new_steps)
            for t in sub.steps:
                if t.rule == 'inline':
                    raise DerivationError("transform emitted an inline step")
                emit(t.formula, t.rule, tuple(r + offset for r in t.refs),
                     t.args)
            if sub.steps[-1].formula != s.formula:
                raise DerivationError(
                    "elaborated step %d proves a different formula"
                    % s.index)
            remap[s.index] = len(new_steps)
        marks.append((len(new_steps), total))
    if total and d.spec.kind == 'empty':
        return replace(d, spec=TOTAL, spec_src='tcs', steps=tuple(new_steps))
    return replace(d, steps=tuple(new_steps))


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
