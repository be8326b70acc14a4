"""Alternating benchmark pairs: a base commit against the working tree.

    python3 tools/bench_pairs.py --base REV --out BENCH_<n>.json [--pairs N]

Exports REV with `git archive` into a temporary directory (no worktree is
registered in the repository), then for each workload of BENCHMARK.json
runs the unchanged perfbench/run.py of each side, the base and the working
tree, for N pairs (default 10), alternating which side runs first.  Every
run lasts BENCHMARK.json's run_seconds and uses the one seed SEED.  Each
side's run.py measures the justfix source of its own tree.

Every run of both sides gets PYTHONPYCACHEPREFIX set to one fresh
temporary directory, so neither side loads bytecode that an earlier run
left in its own __pycache__ directories.  A prefix moves the standard
library's bytecode too, so before the pairs of each workload one run of
each side writes the bytecode of all it imports there, and the bytecode
of the two trees is then removed (warm).  The timed runs load the
standard library's bytecode, as runs without a prefix do; with
PYTHONDONTWRITEBYTECODE set both sides compile their own source on every
run, and without it each side writes its bytecode on its first timed run
and loads it after.

Writes one JSON file: every pair's end-to-end metrics, and per metric
each side's median and quartiles and how many pairs the working tree won
(ties count for neither side), with the direction and bound of each
metric taken from BENCHMARK.json.  Runs one benchmark process at a time;
standard library only.
"""

import argparse
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 600
SEED = 5


def git(*args) -> str:
    return subprocess.run(['git', *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev: str, into: pathlib.Path) -> None:
    """The tree of rev, written under into."""
    archive = subprocess.run(['git', 'archive', '--format=tar', rev],
                             cwd=ROOT, check=True, capture_output=True)
    subprocess.run(['tar', '-x', '-C', str(into)], input=archive.stdout,
                   check=True)


def run_once(tree: pathlib.Path, workload: str, seconds: float,
             pycache: str, write: bool = False) -> dict:
    """The last line perfbench/run.py prints in tree, run with the
    bytecode cache prefix pycache, and writing bytecode there even under
    PYTHONDONTWRITEBYTECODE when write is true: correctness and the
    end-to-end metrics, as {name: value}."""
    env = dict(os.environ, PYTHONPYCACHEPREFIX=pycache)
    if write:
        env.pop('PYTHONDONTWRITEBYTECODE', None)
    proc = subprocess.run(
        [sys.executable, str(tree / 'perfbench' / 'run.py'),
         '--workload', workload, '--seed', str(SEED),
         '--seconds', str(seconds)],
        cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
        env=env)
    if proc.returncode != 0:
        raise RuntimeError('%s run in %s exited with %d:\n%s' % (
            workload, tree, proc.returncode, proc.stderr[-2000:]))
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return {'correct': out['correct'], 'attempted': out['attempted'],
            'failed': out['failed'],
            'metrics': {k: v['value'] for k, v in out['metrics'].items()}}


def warm(trees: list, workload: str, pycache: str) -> None:
    """Leave under the prefix pycache the bytecode of the standard library
    modules that a run of workload imports, and none of the trees': each
    tree's run writes the bytecode of all it imports, and the mirror of
    each tree under pycache is then removed."""
    for tree in trees:
        run_once(tree, workload, 0, pycache, write=True)
        shutil.rmtree(pathlib.Path(pycache).joinpath(
            *tree.resolve().parts[1:]), ignore_errors=True)


def spread(xs: list) -> dict:
    q1, med, q3 = (statistics.quantiles(xs, n=4, method='inclusive')
                   if len(xs) > 1 else (xs[0],) * 3)
    return {'median': med, 'q1': q1, 'q3': q3}


def summarize(pairs: list, metrics: list) -> dict:
    """Per metric: each side's median and quartiles, the change of the
    medians as a fraction of the base median, and the pairs won."""
    out = {}
    for m in metrics:
        name, lower = m['name'], m['better'] == 'lower'
        base = [p['base']['metrics'][name] for p in pairs]
        work = [p['work']['metrics'][name] for p in pairs]
        won = sum((w < b) if lower else (w > b) for b, w in zip(base, work))
        lost = sum((w > b) if lower else (w < b) for b, w in zip(base, work))
        b, w = spread(base), spread(work)
        out[name] = {
            'unit': m['unit'], 'better': m['better'], 'bound': m['bound'],
            'base': b, 'work': w,
            'median_change_frac': (w['median'] - b['median']) / b['median']
            if b['median'] else None,
            'base_iqr': b['q3'] - b['q1'],
            'work_won': won, 'work_lost': lost, 'pairs': len(pairs),
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog='tools/bench_pairs.py')
    ap.add_argument('--base', required=True, help='commit to compare with')
    ap.add_argument('--out', required=True, help='JSON file to write')
    ap.add_argument('--pairs', type=int, default=10,
                    help='pairs per workload (default 10)')
    args = ap.parse_args(argv)
    with open(ROOT / 'BENCHMARK.json') as fh:
        bench = json.load(fh)
    metrics, seconds = bench['end_to_end'], bench['run_seconds']
    record = {
        'base': git('rev-parse', args.base),
        'work': 'working tree over %s%s' % (
            git('rev-parse', 'HEAD'),
            ' with uncommitted changes' if git('status', '--porcelain',
                                               '--untracked-files=no')
            else ''),
        'seed': SEED, 'seconds': seconds,
        'python': platform.python_version(), 'nproc': os.cpu_count(),
        'workloads': {},
    }
    with tempfile.TemporaryDirectory(prefix='bench-base-') as tmp, \
            tempfile.TemporaryDirectory(prefix='bench-pycache-') as pycache:
        base_tree = pathlib.Path(tmp)
        export(args.base, base_tree)
        for workload in (w['name'] for w in bench['workloads']):
            warm([base_tree, ROOT], workload, pycache)
            pairs = []
            for k in range(args.pairs):
                first = 'base' if k % 2 == 0 else 'work'
                order = [first, 'work' if first == 'base' else 'base']
                pair = {'first': first}
                for side in order:
                    tree = base_tree if side == 'base' else ROOT
                    pair[side] = run_once(tree, workload, seconds, pycache)
                pairs.append(pair)
                shown = {s: pair[s]['metrics'] for s in ('base', 'work')}
                print('%s pair %d/%d: %s' % (workload, k + 1, args.pairs,
                                             json.dumps(shown)), flush=True)
            record['workloads'][workload] = {
                'pairs': pairs, 'summary': summarize(pairs, metrics)}
            # written after each workload, so a cut run keeps what it has
            with open(args.out, 'w') as fh:
                json.dump(record, fh, indent=1, sort_keys=True)
                fh.write('\n')
    return 0


if __name__ == '__main__':
    sys.exit(main())
