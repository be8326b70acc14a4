"""Span recorder for the traced run, installed from outside the program.

Each public entry point listed in ENTRY_POINTS is wrapped in every
`justfix.*` module namespace that binds it: kernel, transforms and
fixedpoint import registry and syntax functions by name, so patching only
the defining module would miss their calls.  Per-node recursions (`walk`,
`force`, `subst_*`) are deliberately not wrapped; a wrapper per node would
swamp what it measures.

A span is (entry point, start, end, parent span, request, value), stored
in flat arrays in memory and written out when the pass ends.  The request
is the index of the input being decided; the value carries the one number
a layer ratio needs (steps checked, steps loaded, accepted, matched).
"""

from __future__ import annotations

import array
import json
import sys
import time

ENTRY_POINTS = (
    ('syntax', 'parse_formula'),
    ('syntax', 'print_formula'),
    ('syntax', 'check_profile'),
    ('kernel', 'load_derivation'),
    ('kernel', 'check_derivation'),
    ('kernel', 'elaborate'),
    ('registry', 'taut_consequence'),
    ('registry', 'is_tautology'),
    ('registry', 'match_axiom'),
    ('registry', 'get_logic'),
    ('registry', 'spec_membership'),
    ('registry', 'sigma_match'),
    ('registry', 'infer_term'),
    ('fixedpoint', 'fp_axiom_instance'),
    ('transforms', 'deduction'),
    ('transforms', 'lift'),
    ('transforms', 'internalize_qlp'),
    ('transforms', 'substitute_proof'),
    ('transforms', 'project_derivation'),
    ('transforms', 'collapse_derivation'),
    ('transforms', 'jd_lemma'),
    ('semantics', 'load_model'),
    ('semantics', 'check_model'),
    ('semantics', 'is_valid'),
    ('corpus', 'run_entry'),
)

NAMES = tuple('%s.%s' % ep for ep in ENTRY_POINTS)

# array typecodes, in file order
_FIELDS = (('name', 'H'), ('parent', 'q'), ('request', 'q'),
           ('value', 'q'), ('start', 'd'), ('end', 'd'))


class Spans:
    """Flat span arrays; index order is call order."""

    def __init__(self):
        for field, code in _FIELDS:
            setattr(self, field, array.array(code))

    def __len__(self):
        return len(self.start)

    def add(self, name, parent, start, end, value=0, request=-1):
        """Append one span and return its index."""
        self.name.append(name)
        self.parent.append(parent)
        self.request.append(request)
        self.value.append(value)
        self.start.append(start)
        self.end.append(end)
        return len(self.start) - 1

    def write(self, path: str, meta: dict) -> None:
        with open(path + '.bin', 'wb') as fh:
            for field, _ in _FIELDS:
                getattr(self, field).tofile(fh)
        with open(path + '.json', 'w') as fh:
            json.dump(dict(meta, count=len(self)), fh)

    @classmethod
    def read(cls, path: str) -> tuple[Spans, dict]:
        with open(path + '.json') as fh:
            meta = json.load(fh)
        spans = cls()
        with open(path + '.bin', 'rb') as fh:
            for field, _ in _FIELDS:
                getattr(spans, field).fromfile(fh, meta['count'])
        return spans, meta


def self_times(spans: Spans) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover.  Children must appear in start order, as recorded spans
    do; overlapping children are merged, not double counted."""
    n = len(spans)
    start, end, parent = spans.start, spans.end, spans.parent
    covered = [0.0] * n
    reach = {}                      # parent -> end of its covered prefix
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], start[p], reach.get(p, start[p]))
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [end[i] - start[i] - covered[i] for i in range(n)]


def summarize(spans: Spans, scale=None) -> dict:
    """Per entry point: calls, summed self time and summed value.  Self
    times of request k are multiplied by scale[k] when scale is given."""
    out = {name: {'calls': 0, 'self_s': 0.0, 'value': 0} for name in NAMES}
    for i, own in enumerate(self_times(spans)):
        row = out[NAMES[spans.name[i]]]
        row['calls'] += 1
        row['self_s'] += own * (scale[spans.request[i]] if scale else 1.0)
        row['value'] += spans.value[i]
    return out


def _steps_checked(args, kwargs, result):
    return len((args[0] if args else kwargs['d']).steps)


def _steps_loaded(args, kwargs, result):
    return len(result.steps)


def _truth(args, kwargs, result):
    return int(bool(result))


def _matched(args, kwargs, result):
    return int(result is not None)


_VALUES = {
    'kernel.check_derivation': _steps_checked,
    'kernel.load_derivation': _steps_loaded,
    'registry.taut_consequence': _truth,
    'registry.match_axiom': _matched,
}


class Tracer:
    """Wraps the entry points while installed; `request` names the input
    being decided."""

    def __init__(self):
        self.spans = Spans()
        self.profiled = []          # check_profile formulas, in call order
        self.request = -1
        self._stack = [-1]
        self._saved = []

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == 'justfix' or name.startswith('justfix.')]
        for nid, (mod, fn) in enumerate(ENTRY_POINTS):
            orig = getattr(sys.modules['justfix.' + mod], fn)
            wrapper = self._wrap(nid, orig)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        self._saved.append((m, attr, orig))
                        setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            m, attr, orig = self._saved.pop()
            setattr(m, attr, orig)

    def distinct_profiled(self) -> int:
        return len(set(self.profiled))

    def _wrap(self, nid: int, orig):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        value = _VALUES.get(NAMES[nid])
        profiled = self.profiled if NAMES[nid] == 'syntax.check_profile' \
            else None

        def wrapper(*args, **kwargs):
            i = spans.add(nid, stack[-1], 0.0, 0.0, 0, self.request)
            stack.append(i)
            spans.start[i] = clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                spans.end[i] = clock()
                stack.pop()
            if value is not None:
                spans.value[i] = value(args, kwargs, result)
            if profiled is not None:
                profiled.append(args[0])
            return result

        wrapper.__wrapped__ = orig
        return wrapper
