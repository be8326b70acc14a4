"""Each memo switched off in turn: no verdict may move.

The kernel skips work it has done before in four ways.  Each is turned
off here by monkeypatching, with no switch in src:

    decide  registry._decide computes every time (the axiom, logic and
            inline image memos);
    resume  kernel.resume returns (0, None), so every fold starts at
            step 1;
    group   syntax._GROUP_MIN is huge, so the parser's group memo
            stores nothing;
    bdd     registry._consequence_bdd builds each query on a fresh BDD,
            not on the scope's.

With any one of them off, these must give the run_entry lines, the
verbose reports and the command output that they give with all of them
on: every corpus entry; one pass of the benchmark's prop and inline inputs
(seed 5, made by perfbench/gen.py, read only); the corpus derivations
checked across logics, and mutated, in one scope; and a sample of the
crash fuzzer's mutants.
"""

import os
import pathlib
import re

import pytest
from hypothesis import given, settings

from justfix import kernel, registry, syntax
from justfix.corpus import MANIFEST, CorpusEntry, corpus_dir, run_entry
from justfix.kernel import (DerivationError, check_derivation, format_report,
                            load_derivation, parse_derivation)
from justfix.registry import memo_scope
from justfix.syntax import replace

from conftest import CORPUS, corpus_paths, perfbench_gen
from test_cli import _mutants, _run_mutant

SWITCHES = {
    'decide': lambda m: m.setattr(
        registry, '_decide', lambda key, keep, compute, *args: compute(*args)),
    'resume': lambda m: m.setattr(kernel, 'resume',
                                  lambda kind, d, run: (0, None)),
    'group': lambda m: m.setattr(syntax, '_GROUP_MIN', 10**9),
    'bdd': lambda m: m.setattr(
        registry, '_consequence_bdd',
        lambda goal, premises, fn=registry._implication:
        fn(registry._BDD(), goal, premises)),
}


@pytest.fixture(scope='module')
def inputs(tmp_path_factory):
    """(entry, root) for every corpus entry and every prop and inline
    input of one benchmark pass."""
    rows = [(e, str(corpus_dir())) for e in MANIFEST]
    gen = perfbench_gen('memos_off_gen')
    for workload in ('prop', 'inline'):
        root = tmp_path_factory.mktemp(workload)
        for inp in gen.GENERATORS[workload](5):
            (root / (inp.id + '.drv')).write_text(inp.text)
            rows.append((CorpusEntry(inp.id, inp.id + '.drv', 'drv',
                                     post=(('deduce',),) if inp.deduce
                                     else ()), str(root)))
    return rows


def _report(d) -> str:
    try:
        return format_report(check_derivation(d), verbose=True)
    except DerivationError as ex:
        return 'error: %s' % ex


def _verdicts(rows) -> list:
    """Per input, in one memo scope: the verbose report of its check, then
    its run_entry line, which re-loads it and checks it again."""
    out = []
    for e, root in rows:
        with memo_scope():
            if e.kind == 'drv':
                out.append(_report(load_derivation(os.path.join(root,
                                                                e.path))))
            out.append(run_entry(e, root).line)
    return out


def _across_logics() -> list:
    """Each corpus derivation with its axiom names dropped, so that every
    axiom step asks match_axiom, checked in one memo scope under its own
    logic and then under each logic of the corpus: the verbose reports.  A
    memo that kept an answer across logics would show here."""
    texts = [re.sub(r'; ax \S+', '; ax', pathlib.Path(p).read_text())
             for p in corpus_paths()]
    logics = sorted({parse_derivation(t, CORPUS).logic_id for t in texts})
    out = []
    for text in texts:
        with memo_scope():
            d = parse_derivation(text, CORPUS)
            out += [_report(replace(d, logic_id=logic))
                    for logic in (d.logic_id, *logics)]
    return out


def _mutated_in_scope() -> list:
    """Each corpus derivation, then each of its copies whose step k states
    the formula object of step k - 1, checked in one memo scope: the
    verbose reports.  A copy begins with the steps of the original, so a
    check resumes from them; a memo that kept an answer past the changed
    step would show here."""
    out = []
    for path in corpus_paths():
        d = load_derivation(path)
        with memo_scope():
            out.append(_report(d))
            for k in range(1, len(d.steps)):
                steps = list(d.steps)
                steps[k] = replace(steps[k], formula=steps[k - 1].formula)
                out.append(_report(replace(d, steps=tuple(steps))))
    return out


@pytest.fixture(scope='module')
def expected(inputs):
    return _verdicts(inputs), _across_logics(), _mutated_in_scope()


def test_every_input_is_decided(inputs, expected):
    # the benchmark inputs include mutated steps, so verdicts of both kinds
    # are compared below
    assert len(inputs) == len(MANIFEST) + 25 + 29
    assert any('FAIL' in line for line in expected[0])
    # 22 derivations, each under its own logic and the corpus's 14
    assert len(expected[1]) == 22 * 15
    assert len(expected[2]) == sum(len(load_derivation(p).steps)
                                   for p in corpus_paths())


@pytest.mark.parametrize('switch', sorted(SWITCHES))
def test_verdicts_with_one_memo_off(switch, inputs, expected, monkeypatch):
    SWITCHES[switch](monkeypatch)
    assert _verdicts(inputs) == expected[0]
    assert _across_logics() == expected[1]
    assert _mutated_in_scope() == expected[2]


@pytest.mark.parametrize('switch', sorted(SWITCHES))
@settings(max_examples=25, deadline=None)
@given(case=_mutants())
def test_mutant_output_with_one_memo_off(switch, case):
    argv, suffix, text = case
    if argv == ['check']:
        argv = ['check', '--verbose']
    want = _run_mutant(argv, suffix, text)
    with pytest.MonkeyPatch.context() as m:
        SWITCHES[switch](m)
        got = _run_mutant(argv, suffix, text)
    assert got == want
