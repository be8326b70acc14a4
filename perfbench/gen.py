"""Seeded inputs for the benchmark workloads.

Each input is the text of a .drv derivation together with the verdict it
must get, known by construction: accepted, or rejected first at a pinned
step.  Nothing here imports justfix.  The lift and internalize terms that
the inline derivations state are frozen output of the transforms, kept in
data/inline_terms.json; they depend only on the rule structure of the
lifted cone, not on its formulas, logic or specification.

The seed picks atom names and their order, the order and orientation of
excluded-middle disjuncts, and which atoms are opaque.  The shape of each
input set (sizes, depths, logics, which inputs are mutants and at which
step) is fixed, so every seed gives the same amount of work to within
noise.

Formulas stay at the nesting depth the workload definitions give; the
parser's depth limit is out of scope (see README.md).
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import random

DATA = pathlib.Path(__file__).resolve().parent / 'data'

# atom names start outside 's'..'z' (justification variables) and avoid
# the keywords and the K@n operator
_HEADS = 'abcdeghmnpqr'


@dataclasses.dataclass(frozen=True)
class Input:
    id: str
    text: str                  # .drv source
    fail_step: int | None      # None: accepted; else first rejected step
    deduce: bool = False       # deduction round trip after the check


def corpus_entries() -> list[dict]:
    """The corpus manifest entries with their post-obligations, frozen."""
    with open(DATA / 'corpus_entries.json') as fh:
        return json.load(fh)


def corpus_expected_line(entry: dict) -> str:
    if entry['kind'] == 'mdl':
        return '%s: ok model' % entry['id']
    return '%s: ok final=%s' % (entry['id'], entry['final'])


def _terms() -> dict:
    with open(DATA / 'inline_terms.json') as fh:
        return json.load(fh)


def _atoms(rnd: random.Random, n: int) -> list[str]:
    pool = ['%s%d' % (h, k) for h in _HEADS for k in range(1, 10)]
    return rnd.sample(pool, n)


def _render(header: list[str], steps: list[str]) -> str:
    body = ['%d. %s' % (i + 1, s) for i, s in enumerate(steps)]
    return '\n'.join(header + [''] + body) + '\n'


# -- prop ---------------------------------------------------------------------
#
# Three steps over one n-atom skeleton: a `prop` tautology, an anonymous
# `ax` tautology (matched by the last-resort taut schema), and a `prop`
# consequence of step 1.  One of step 1 and step 2 is a shuffled
# excluded-middle conjunction, the other a xor-parity equivalence; step 3
# reorders step 1.  A mutant breaks one step: a crossed excluded-middle
# disjunct, or a parity atom dropped from one side.  Every other step
# stays a tautology, so the broken step is the first and only rejection.

# (atoms, mutated step or 0, excluded middle first).  Twenty-five inputs,
# about half mutants; sorted by cost, the median falls inside a run of
# similar 12- and 13-atom inputs and the 90th percentile inside the four
# valid 14-atom ones, so neither sits on a jump between two sizes.
PROP_SHAPES = (
    (14, 0, True), (14, 0, True), (14, 0, True), (14, 0, True),
    (14, 1, True),
    (13, 0, True), (13, 0, False), (13, 1, True), (13, 2, True),
    (13, 3, False), (13, 2, False),
    (12, 0, True), (12, 0, False), (12, 0, True), (12, 0, False),
    (12, 3, True), (12, 1, False),
    (11, 2, True), (11, 3, False), (11, 0, True), (11, 0, False),
    (11, 1, True), (10, 0, False), (10, 1, True), (10, 2, False),
)


def _em(rnd: random.Random, atoms: list[str], crossed: bool) -> str:
    """Excluded-middle conjunction in shuffled order.  Crossed, the first
    atom's conjunct negates the second atom instead; the splitting order
    then depends only on atom counts, so a mutant costs the same for
    every seed."""
    parts = []
    for k, a in enumerate(atoms):
        neg = atoms[1] if crossed and k == 0 else a
        if rnd.random() < 0.5:
            parts.append('(%s | ~%s)' % (a, neg))
        else:
            parts.append('(~%s | %s)' % (neg, a))
    rnd.shuffle(parts)
    return ' & '.join(parts)


def _parity(atoms: list[str], dropped: bool, turn: int) -> str:
    """Parity equivalence: the atoms turned by `turn` places, against the
    same order reversed; dropped, the right side loses its last atom.  A
    random order on each side would change the proof's cost by up to 20 %;
    the seed already orders the atoms."""
    left = atoms[turn:] + atoms[:turn]
    right = left[::-1][:-1] if dropped else left[::-1]
    return '(%s) <-> (%s)' % (' xor '.join(left), ' xor '.join(right))


def prop_inputs(seed: int) -> list[Input]:
    rnd = random.Random('prop:%d' % seed)
    out = []
    for k, (n, bad, em_first) in enumerate(PROP_SHAPES):
        logic = ('K', 'tS4')[k % 2]
        atoms = _atoms(rnd, n)
        for pos in rnd.sample(range(n), (n + 4) // 5):
            if logic == 'K':
                atoms[pos] = '[]' + atoms[pos]
            else:
                atoms[pos] = 'K@%d %s' % (rnd.randrange(10), atoms[pos])
        if em_first:
            forms = [_em(rnd, atoms, bad == 1),
                     _parity(atoms, bad == 2, 0),
                     _em(rnd, atoms, bad == 3)]
        else:
            forms = [_parity(atoms, bad == 1, 0),
                     _em(rnd, atoms, bad == 2),
                     _parity(atoms, bad == 3, n // 2)]
        steps = ['%s ; %s' % (f, rule)
                 for f, rule in zip(forms, ('prop', 'ax', 'prop 1'))]
        out.append(Input('prop-%02d-n%d' % (k, n),
                         _render(['logic: %s' % logic], steps), bad or None))
    return out


# -- inline -------------------------------------------------------------------
#
# Chains of nested inline steps: step i+1 states  T_i : F_i  where F_i is
# the formula of step i and T_i the frozen term, justified by
# `inline lift i` (JL) or `inline internalize i` (QLP).  A mutant states a
# body that differs from the cone being lifted at one pinned inline step;
# later steps keep the unbroken text, so the pinned step is the first
# rejection.  Premise-bearing inputs add premise, mp and prop steps after
# the chain and ask for the deduction round trip.

_JL_LOGICS = ('J', 'JT', 'JD', 'J4', 'LP', 'JD4', 'JT45')
_QLP_LOGICS = ('QLP', 'QLP(FP)', 'QLP-')

# (family, depth, mutated chain level or 0); level k is the k-th inline
# step.  Twenty-nine inputs, an odd count, so that sorted by cost the
# median falls inside one input's samples among inputs near 20-30 ms, and
# the 95th percentile inside the depth-7 lift chains.
INLINE_SHAPES = (
    ('lift', 7, 0), ('lift', 7, 0), ('lift', 7, 0), ('lift', 7, 0),
    ('lift', 7, 7), ('lift', 6, 0), ('lift', 6, 3), ('lift', 6, 3),
    ('lift', 5, 0), ('lift', 5, 0), ('lift', 5, 0), ('lift', 5, 5),
    ('lift', 4, 0), ('lift', 3, 2),
    ('lift_mp', 4, 0), ('lift_mp', 4, 4), ('lift_mp', 3, 0),
    ('lift_mp', 3, 0),
    ('internalize_gen', 4, 0), ('internalize_gen', 4, 2),
    ('internalize_gen', 3, 0), ('internalize_gen', 3, 0),
    ('internalize_gen', 2, 2),
    ('internalize', 5, 0), ('internalize', 5, 5), ('internalize', 3, 0),
    ('premise', 5, 0), ('premise', 5, 0), ('premise', 4, 3),
)


def _taut3(shape: int, a: str, b: str) -> tuple[str, str]:
    """A tautology over two atoms and a variant with a different body (the
    mutant's stated formula)."""
    if shape == 0:
        return '%s -> %s | %s' % (a, a, b), '%s -> %s | %s' % (a, b, a)
    if shape == 1:
        return '%s & %s -> %s' % (a, b, b), '%s & %s -> %s' % (b, a, b)
    if shape == 2:
        return ('(%s -> %s) -> (~%s -> ~%s)' % (a, b, b, a),
                '(%s -> %s) -> (~%s -> ~%s)' % (b, a, a, b))
    return '%s -> (%s -> %s)' % (a, b, a), '%s -> (%s -> %s)' % (b, a, b)


def _chain(base: list[str], top: str, bad_top: str, terms: list[str],
           form: str, depth: int, bad: int) -> list[str]:
    """Append `depth` nested inline steps over the last base step, whose
    formula is `top`; level `bad` states `bad_top` in place of `top`."""
    steps = list(base)
    body, bad_body = top, bad_top
    for level in range(1, depth + 1):
        body = '(%s) : (%s)' % (terms[level - 1], body)
        bad_body = '(%s) : (%s)' % (terms[level - 1], bad_body)
        stated = bad_body if level == bad else body
        steps.append('%s ; inline %s %d' % (stated, form, len(steps)))
    return steps


def inline_inputs(seed: int) -> list[Input]:
    rnd = random.Random('inline:%d' % seed)
    terms = _terms()
    out = []
    for k, (family, depth, bad) in enumerate(INLINE_SHAPES):
        # logic, specification and formula shape change the cost of a
        # chain, so they follow the shape index, not the seed; five
        # neighbouring shapes share a formula shape, so the five depth-7
        # lift chains cost alike
        jl = 'logic: %s' % _JL_LOGICS[k % len(_JL_LOGICS)]
        qlp = 'logic: %s' % _QLP_LOGICS[k % len(_QLP_LOGICS)]
        qlp_uf = 'logic: %s' % _QLP_LOGICS[k % 2]    # Gen needs uf: no QLP-
        spec = 'spec: %s' % ('tcs', 'empty')[k // 2 % 2]
        a, b, c = _atoms(rnd, 3)
        good, other = _taut3(k // 5 % 4, a, b)
        deduce = False
        if family in ('lift', 'premise'):
            header = [jl, 'spec: tcs']
            base = ['%s ; prop' % good]
            top, bad_top = good, other
            form, tk = 'lift', terms['lift']
        elif family == 'lift_mp':
            header = [jl, 'spec: tcs']
            top = '%s -> (%s)' % (c, good)
            bad_top = '%s -> (%s)' % (c, other)
            base = ['%s ; prop' % good,
                    '(%s) -> (%s) ; prop' % (good, top),
                    '%s ; mp 1 2' % top]
            form, tk = 'lift', terms['lift_mp']
        elif family == 'internalize_gen':
            header = [qlp_uf, spec]
            inner = 'x : (%s) -> (%s)' % (good, good)
            top = 'all x . (%s)' % inner
            bad_top = 'all x . (x : (%s) -> (%s))' % (other, other)
            base = ['%s ; ax jt' % inner, '%s ; gen 1 x' % top]
            form, tk = 'internalize', terms['internalize_gen']
        else:
            header = [qlp, spec]
            base = ['%s ; prop' % good]
            top, bad_top = good, other
            form, tk = 'internalize', terms['internalize']
        steps = _chain(base, top, bad_top, tk, form, depth, bad)
        if family == 'premise':
            # h1: c,  h2: c -> a;  then a by mp and (a | b) & c by prop
            header += ['premise h1: %s' % c, 'premise h2: %s -> %s' % (c, a)]
            n = len(steps)
            steps += ['%s ; premise h1' % c,
                      '%s -> %s ; premise h2' % (c, a),
                      '%s ; mp %d %d' % (a, n + 1, n + 2),
                      '(%s | %s) & %s ; prop %d %d' % (a, b, c, n + 3, n + 1)]
            deduce = True
        fail = len(base) + bad if bad else None
        out.append(Input('inline-%02d-%s-d%d' % (k, family, depth),
                         _render(header, steps), fail, deduce))
    return out


GENERATORS = {'prop': prop_inputs, 'inline': inline_inputs}
