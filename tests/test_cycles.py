"""A check leaves no cyclic garbage.

An object in a reference cycle lives until the garbage collector runs,
and with it everything it reaches: a transform's build, its tables, the
steps it made.  So run_entry on every corpus entry, and one pass of the
benchmark's prop and inline inputs (seed 5, made by perfbench/gen.py,
read only), must free every object they make by reference counts alone:
with gc.DEBUG_SAVEALL set, a collection after them finds nothing.
"""

import gc

import pytest

from justfix.corpus import MANIFEST, CorpusEntry, corpus_dir, run_entry

from conftest import perfbench_gen


@pytest.fixture(scope='module')
def passes(tmp_path_factory):
    """workload -> [(entry, root)] of one pass, corpus, prop and inline."""
    rows = {'corpus': [(e, str(corpus_dir())) for e in MANIFEST]}
    gen = perfbench_gen('cycles_gen')
    for workload in ('prop', 'inline'):
        root = tmp_path_factory.mktemp(workload)
        rows[workload] = []
        for inp in gen.GENERATORS[workload](5):
            (root / (inp.id + '.drv')).write_text(inp.text)
            rows[workload].append((CorpusEntry(
                inp.id, inp.id + '.drv', 'drv',
                post=(('deduce',),) if inp.deduce else ()), str(root)))
    return rows


def _garbage(rows) -> list:
    """The type names of the cyclic garbage one pass over rows leaves."""
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        lines = [run_entry(e, root).line for e, root in rows]
        gc.collect()
        found = sorted({type(o).__name__ for o in gc.garbage})
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        gc.collect()
    assert lines
    return found


@pytest.mark.parametrize('workload', ('corpus', 'prop', 'inline'))
def test_a_pass_leaves_no_cyclic_garbage(passes, workload):
    assert _garbage(passes[workload]) == []


def test_detector_sees_a_cycle(monkeypatch):
    from justfix import corpus

    def leaky(entry, root=None, fn=corpus.run_entry):
        cycle = []
        cycle.append(cycle)
        return fn(entry, root)

    monkeypatch.setattr('test_cycles.run_entry', leaky)
    assert _garbage([(MANIFEST[0], str(corpus_dir()))]) == ['list']
