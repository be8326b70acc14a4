"""Reference workload for scaling times to one machine speed.

The machine this benchmark was defined on runs the same Python code up to
1.6 times slower for stretches of seconds to minutes, because of load
outside the container.  No statistic taken within one run removes a
slowdown that lasts the whole run.  So each pass runs this fixed
computation before every input and after the last, and scales each
verdict time by REFERENCE_S over the reference time measured around it.

The reference is a Quine-splitting tautology check of a 7-atom parity
equivalence over tuples: allocation-heavy recursion like the checker's,
which tracks the slowdowns far better than an arithmetic loop does.  It
imports nothing from justfix, so no change to the program changes it,
and it runs with the garbage collector off, so objects the program keeps
alive cannot slow it.
"""

import gc
import time

# Reference time at the speed all times are scaled to: a round figure
# near the reference time on the machine the benchmark was defined on
# (2 vCPUs, Python 3.11.7), so scaled times read close to its wall times.
REFERENCE_S = 1.0e-3

_TRUE, _FALSE = ('1',), ('0',)


def _reduce(e):
    op = e[0]
    if op in ('v', '0', '1'):
        return e
    if op == '-':
        a = _reduce(e[1])
        if a in (_TRUE, _FALSE):
            return _FALSE if a == _TRUE else _TRUE
        return ('-', a)
    a, b = _reduce(e[1]), _reduce(e[2])
    # xor or iff with one constant side: the other side or its negation
    for const, other in ((a, b), (b, a)):
        if const in (_TRUE, _FALSE):
            negate = (const == _TRUE) == (op == '^')
            return _reduce(('-', other)) if negate else other
    return (op, a, b)


def _assign(e, k, value):
    op = e[0]
    if op == 'v':
        return (_TRUE if value else _FALSE) if e[1] == k else e
    if op in ('0', '1'):
        return e
    if op == '-':
        return ('-', _assign(e[1], k, value))
    return (op, _assign(e[1], k, value), _assign(e[2], k, value))


def _taut(e, k=0):
    e = _reduce(e)
    if e in (_TRUE, _FALSE):
        return e == _TRUE
    return _taut(_assign(e, k, False), k + 1) \
        and _taut(_assign(e, k, True), k + 1)


def _xor_chain(atoms):
    e = ('v', atoms[0])
    for k in atoms[1:]:
        e = ('^', e, ('v', k))
    return e


_ATOMS = list(range(7))
_GOAL = ('=', _xor_chain(_ATOMS), _xor_chain(_ATOMS[::-1]))


def reference_seconds() -> float:
    """Time one run of the reference computation."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        ok = _taut(_GOAL)
        elapsed = time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    if not ok:
        raise RuntimeError('reference computation gave a wrong answer')
    return elapsed


def scale_factors(refs: list[float]) -> list[float]:
    """Per input k: REFERENCE_S over the median of the reference times
    taken within three positions of it.  `refs` has one more entry than
    there are inputs (before each input, and after the last)."""
    out = []
    for k in range(len(refs) - 1):
        near = sorted(refs[max(0, k - 3):k + 5])
        out.append(REFERENCE_S / near[len(near) // 2])
    return out
