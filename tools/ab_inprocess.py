"""In-process A/B timing: two justfix trees in one interpreter.

    python3 tools/ab_inprocess.py BASE_TREE [--tree TREE]
        [--workload prop|corpus|inline] [--seed N] [--rounds N]
        [--per-input] [--memory]

Loads the justfix package of BASE_TREE (a checkout, for example one
written by `git archive`) and that of TREE (default: this repository)
under the package names justfix_base and justfix_tree, so both live in one
process.  The inputs are the workload's, made by this repository's
perfbench/gen.py from the seed (default 5) and decided through each side's
corpus.run_entry, as one benchmark pass decides them.  The script first
runs one untimed pass per side and checks that both sides print the same
verdict line for every input, and the same elaborated derivation (the
text of kernel.print_derivation after kernel.elaborate, which runs every
inline transform, or the error it raises) for every .drv input; it
stops, printing the inputs that differ, if they do not.  So it is also a
differential oracle for a change to the transforms.  It then times one
pass of all the inputs per side and round, alternating which side goes
first, for N rounds (default 20).  It prints one JSON line per side: its
min and median pass time in ms and the rounds it won (a tie counts for
neither side).  With --per-input it also times each input apart and then
prints one JSON line per input, in pass order: its id and each side's min
time over the rounds in ms, which shows where a change in the pass time
lands.

With --memory it then runs one more pass per side under tracemalloc,
untimed, and adds each side's traced peak in KB to its line: the most
memory the pass's own allocations held at once, above what was held when
it began.  With --per-input as well, each input's line also gets each
side's traced peak for that input, above what was held when the input
began.  Tracing covers Python's allocations only, so the process's peak
resident set, which also holds the interpreter, the imported modules and
the heap that freed memory leaves mapped, can move the other way.

Separate processes on a shared host can drift far more than the few per
cent a change moves; alternating passes in one interpreter share the
host's state at each moment, so they resolve smaller steps.  Standard
library only.
"""

import argparse
import gc
import importlib.util
import itertools
import json
import os
import pathlib
import statistics
import sys
import tempfile
import time
import tracemalloc

ROOT = pathlib.Path(__file__).resolve().parent.parent
SIDES = ('base', 'tree')


def load(tree: pathlib.Path, name: str):
    """The corpus module of tree's justfix package, imported under the
    package name after its cli module, as a benchmark pass imports them."""
    pkg = tree / 'src' / 'justfix'
    spec = importlib.util.spec_from_file_location(
        name, pkg / '__init__.py', submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    importlib.import_module(name + '.cli')
    return importlib.import_module(name + '.corpus')


def inputs(workload: str, seed: int, work: pathlib.Path) -> list:
    """(entry fields, root) per input, in pass order."""
    sys.path.insert(0, str(ROOT / 'perfbench'))
    import gen
    if workload == 'corpus':
        return [(e, ROOT / 'corpus') for e in gen.corpus_entries()]
    rows = []
    for inp in gen.GENERATORS[workload](seed):
        (work / (inp.id + '.drv')).write_text(inp.text)
        rows.append(({'id': inp.id, 'path': inp.id + '.drv', 'kind': 'drv',
                      'final': None, 'falsum': False,
                      'post': [['deduce']] if inp.deduce else []}, work))
    return rows


def entries(corpus, rows) -> list:
    return [(corpus.CorpusEntry(e['id'], e['path'], e['kind'], e['final'],
                                e['falsum'], tuple(map(tuple, e['post']))),
             str(root)) for e, root in rows]


def elaborated(corpus, todo) -> list:
    """(id, text) per .drv input of todo: its elaborated derivation as
    print_derivation prints it, or the error elaborating it raised."""
    kernel = importlib.import_module(corpus.__package__ + '.kernel')
    transforms = importlib.import_module(corpus.__package__ + '.transforms')
    out = []
    for e, root in todo:
        if e.kind != 'drv':
            continue
        d = kernel.load_derivation(os.path.join(root, e.path))
        try:
            text = kernel.print_derivation(kernel.elaborate(d))
        except (kernel.DerivationError, transforms.TransformError) as ex:
            text = 'error: %s: %s' % (type(ex).__name__, ex)
        out.append((e.id, text))
    return out


def first_difference(a: str, b: str) -> tuple:
    """The first line at which texts a and b differ, from each."""
    for x, y in itertools.zip_longest(a.splitlines(), b.splitlines(),
                                      fillvalue='<end>'):
        if x != y:
            return x, y
    return '', ''


def one_pass(corpus, todo, per_input=None) -> tuple:
    """(seconds, verdict lines) of one pass over todo.  per_input, when
    given, is a list of one list per input, to which each input's time is
    appended."""
    t0 = time.perf_counter()
    if per_input is None:
        lines = [corpus.run_entry(e, root).line for e, root in todo]
    else:
        lines = []
        for (e, root), took in zip(todo, per_input):
            t = time.perf_counter()
            lines.append(corpus.run_entry(e, root).line)
            took.append(time.perf_counter() - t)
    return time.perf_counter() - t0, lines


def traced_peaks(corpus, todo) -> tuple:
    """(pass peak, [peak per input]) in bytes of one pass over todo under
    tracemalloc: each the traced peak above the memory traced when the
    pass, or the input, began."""
    gc.collect()
    tracemalloc.start()
    try:
        start, each = tracemalloc.get_traced_memory()[0], []
        top = start
        for e, root in todo:
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            corpus.run_entry(e, root)
            peak = tracemalloc.get_traced_memory()[1]
            each.append(peak - held)
            top = max(top, peak)
    finally:
        tracemalloc.stop()
    return top - start, each


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument('base', type=pathlib.Path)
    ap.add_argument('--tree', type=pathlib.Path, default=ROOT)
    ap.add_argument('--workload', default='prop',
                    choices=('corpus', 'prop', 'inline'))
    ap.add_argument('--seed', type=int, default=5)
    ap.add_argument('--rounds', type=int, default=20)
    ap.add_argument('--per-input', action='store_true',
                    help='also print each input\'s min time per side')
    ap.add_argument('--memory', action='store_true',
                    help='also print each side\'s traced peak per pass')
    args = ap.parse_args(argv)
    corpora = {side: load(tree.resolve(), 'justfix_' + side)
               for side, tree in zip(SIDES, (args.base, args.tree))}
    with tempfile.TemporaryDirectory() as tmp:
        rows = inputs(args.workload, args.seed, pathlib.Path(tmp))
        todo = {side: entries(corpora[side], rows) for side in SIDES}
        lines = {side: one_pass(corpora[side], todo[side])[1]
                 for side in SIDES}
        if lines['base'] != lines['tree']:
            for a, b in zip(lines['base'], lines['tree']):
                if a != b:
                    print('verdicts differ:\n  base: %s\n  tree: %s' % (a, b))
            return 1
        texts = {side: elaborated(corpora[side], todo[side])
                 for side in SIDES}
        if texts['base'] != texts['tree']:
            for (name, a), (_, b) in zip(texts['base'], texts['tree']):
                if a != b:
                    print('elaborations differ: %s\n  base: %s\n  tree: %s'
                          % (name, *first_difference(a, b)))
            return 1
        times = {side: [] for side in SIDES}
        each = {side: [[] for _ in rows] if args.per_input else None
                for side in SIDES}
        wins = dict.fromkeys(SIDES, 0)
        for k in range(args.rounds):
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            took = {}
            for side in order:
                gc.collect()
                took[side] = one_pass(corpora[side], todo[side],
                                      each[side])[0]
                times[side].append(took[side])
            if took['base'] != took['tree']:
                wins[min(took, key=took.get)] += 1
        peaks = {side: traced_peaks(corpora[side], todo[side])
                 for side in SIDES if args.memory}
    for side, tree in zip(SIDES, (args.base, args.tree)):
        print(json.dumps({
            'side': side, 'tree': str(tree), 'workload': args.workload,
            'inputs': len(rows), 'rounds': args.rounds,
            'min_ms': round(min(times[side]) * 1e3, 3),
            'median_ms': round(statistics.median(times[side]) * 1e3, 3),
            'won': wins[side],
            **({'peak_kb': round(peaks[side][0] / 1024, 1)} if peaks
               else {})}))
    if args.per_input:
        for k, (e, _) in enumerate(rows):
            print(json.dumps({'input': e['id'], **{
                side + '_min_ms': round(min(each[side][k]) * 1e3, 3)
                for side in SIDES}, **{
                side + '_peak_kb': round(peaks[side][1][k] / 1024, 1)
                for side in peaks}}))
    return 0


if __name__ == '__main__':
    sys.exit(main())
