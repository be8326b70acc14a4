"""The justfix benchmark.

    python3 perfbench/run.py --workload corpus|prop|inline --seed N \
        --seconds S --trace 0|1

Builds the workload's inputs from the seed, then runs passes one at a
time until S seconds have been measured: each pass is a fresh interpreter
(passrun.py) that imports justfix and decides every input once, the way
`justfix check` and `justfix corpus run` are used.  Every verdict is
compared with the answer known by construction.  Every time is scaled to
one machine speed by the reference computation in reference.py.  See
README.md for the workloads and metrics.

The last line printed is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  With --trace 0 the metrics are the end-to-end
ones; with --trace 1 traced and untraced passes alternate and the metrics
are the per-layer ones plus the tracing overhead.  The line before it
gives details: tail percentile, sample counts, unscaled times, the
failure share, the Python version and the processor count.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import time

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import tracer  # noqa: E402
from reference import scale_factors  # noqa: E402

WORKLOADS = ('corpus', 'prop', 'inline')

# Tail percentile per workload: the highest of 90, 95 and 99 that has at
# least ten samples beyond it at the nominal run length (BENCHMARK.json).
# It is fixed so that runs of different commits report the same
# percentile; a run continues past --seconds until it has those ten.
TAIL_PCT = {'corpus': 99, 'prop': 90, 'inline': 95}
MIN_PASSES = 3
MAX_MEASURE_S = 120         # stop measuring here even short of the samples
PASS_TIMEOUT_S = 100

# (entry point, fields) reported by the traced run, then derived ratios
LAYER_FIELDS = (
    ('syntax.parse_formula', ('calls', 'self_s')),
    ('syntax.print_formula', ('calls', 'self_s')),
    ('syntax.check_profile', ('calls', 'self_s', 'distinct_frac')),
    ('kernel.load_derivation', ('self_s',)),
    ('kernel.check_derivation', ('calls', 'self_s')),
    ('kernel.elaborate', ('calls', 'self_s')),
    ('registry.taut_consequence', ('calls', 'self_s', 'accept_frac')),
    ('registry.is_tautology', ('calls', 'self_s')),
    ('registry.match_axiom', ('calls', 'self_s', 'hit_frac')),
    ('registry.get_logic', ('calls', 'self_s')),
    ('registry.spec_membership', ('calls', 'self_s')),
    ('registry.sigma_match', ('calls', 'self_s')),
    ('registry.infer_term', ('calls', 'self_s')),
    ('fixedpoint.fp_axiom_instance', ('calls', 'self_s')),
    ('transforms.deduction', ('calls', 'self_s')),
    ('transforms.lift', ('calls', 'self_s')),
    ('transforms.internalize_qlp', ('calls', 'self_s')),
    ('transforms.substitute_proof', ('calls', 'self_s')),
    ('transforms.project_derivation', ('calls', 'self_s')),
    ('transforms.collapse_derivation', ('calls', 'self_s')),
    ('transforms.jd_lemma', ('calls', 'self_s')),
    ('semantics.load_model', ('calls', 'self_s')),
    ('semantics.check_model', ('calls', 'self_s')),
    ('semantics.is_valid', ('calls', 'self_s')),
    ('corpus.run_entry', ('self_s',)),
)
_RATIO_VALUE = {'accept_frac', 'hit_frac'}
_UNITS = {'calls': 'count', 's': 's', 'frac': 'ratio'}

END_TO_END = (('setup_s', 's'), ('verdict_p50_ms', 'ms'),
              ('verdict_tail_ms', 'ms'), ('verdicts_per_s', '1/s'),
              ('peak_rss_mb', 'MB'))


def layer_names() -> list[tuple[str, str]]:
    """(metric, unit) for every per-layer metric, in report order."""
    out = []
    for entry, fields in LAYER_FIELDS:
        for f in fields:
            out.append(('%s.%s' % (entry, f), _UNITS[f.rsplit('_', 1)[-1]]))
    out += [('kernel.recheck_factor', 'ratio'), ('trace.overhead_s', 's'),
            ('trace.overhead_frac', 'ratio')]
    return out


def layer_values(summary: dict, meta: dict) -> dict:
    """Per-layer metrics of one traced pass."""
    out = {}
    for entry, fields in LAYER_FIELDS:
        row = summary[entry]
        for f in fields:
            if f in ('calls', 'self_s'):
                v = row[f]
            elif f in _RATIO_VALUE:
                v = row['value'] / row['calls'] if row['calls'] else 0.0
            else:                   # distinct_frac
                v = meta['profiled_distinct'] / row['calls'] \
                    if row['calls'] else 0.0
            out['%s.%s' % (entry, f)] = v
    loaded = summary['kernel.load_derivation']['value']
    checked = summary['kernel.check_derivation']['value']
    out['kernel.recheck_factor'] = checked / loaded if loaded else 0.0
    return out


def percentile(xs: list[float], p: float) -> float:
    """Linear interpolation between closest ranks."""
    s = sorted(xs)
    pos = (len(s) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def min_samples(p: float) -> int:
    return math.ceil(10 / (1 - p / 100.0))


# -- inputs -------------------------------------------------------------------

def prepare(workload: str, seed: int, work: pathlib.Path):
    """Pass-file rows and, per input id, the expected verdict: the exact
    line (corpus) or the first rejected step, None for accepted."""
    rows, expect = [], {}
    if workload == 'corpus':
        # manifest order, as `justfix corpus run` decides them; the seed
        # changes nothing here
        for e in gen.corpus_entries():
            rows.append(dict(e, root=str(ROOT / 'corpus')))
            expect[e['id']] = gen.corpus_expected_line(e)
        return rows, expect
    for inp in gen.GENERATORS[workload](seed):
        name = inp.id + '.drv'
        (work / name).write_text(inp.text)
        rows.append({'id': inp.id, 'path': name, 'kind': 'drv',
                     'final': None, 'falsum': False,
                     'post': [['deduce']] if inp.deduce else [],
                     'root': str(work)})
        expect[inp.id] = inp.fail_step
    return rows, expect


def verdict_matches(ident: str, line: str, want) -> bool:
    if isinstance(want, str):
        return line == want
    if want is None:
        return line.startswith('%s: ok' % ident)
    return line.startswith('%s: FAIL step %d: ' % (ident, want))


# -- passes -------------------------------------------------------------------

def run_pass(pass_file: pathlib.Path, trace: bool) -> dict:
    cmd = [sys.executable, str(BENCH / 'passrun.py'), str(ROOT / 'src'),
           str(pass_file), '1' if trace else '0']
    env = dict(os.environ, PYTHONHASHSEED='0')
    spawned = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError('pass exited with %d:\n%s'
                           % (proc.returncode, proc.stderr[-2000:]))
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out['scale'] = scale_factors(out['refs'])
    out['setup_s'] = (out['ready'] - spawned) * out['scale'][0]
    out['times_s'] = [dt * f for (_, _, dt), f in zip(out['verdicts'],
                                                      out['scale'])]
    return out


class Tally:
    def __init__(self, expect: dict):
        self.expect = expect
        self.attempted = 0
        self.failed = 0
        self.bad = []

    def check(self, res: dict) -> None:
        for ident, line, _ in res['verdicts']:
            self.attempted += 1
            if not verdict_matches(ident, line, self.expect[ident]):
                self.failed += 1
                self.bad.append(line)


def measure(workload: str, seed: int, seconds: float, trace: bool):
    work = ROOT / '.perfbench_work' / ('%s-%d-%d' % (workload, seed,
                                                     os.getpid()))
    work.mkdir(parents=True)
    try:
        rows, expect = prepare(workload, seed, work)
        pass_file = work / 'pass.json'
        spans_path = str(work / 'spans')
        pass_file.write_text(json.dumps({'inputs': rows,
                                         'bench_dir': str(BENCH),
                                         'spans': spans_path}))
        # warm-up: bytecode and file caches, on the first input alone
        warm_file = work / 'warm.json'
        warm_file.write_text(json.dumps({'inputs': rows[:1],
                                         'bench_dir': str(BENCH)}))
        tally = Tally(expect)
        tally.check(run_pass(warm_file, False))
        if trace:
            metrics, detail = measure_traced(pass_file, spans_path, seconds,
                                             tally, len(rows))
        else:
            metrics, detail = measure_plain(workload, pass_file, seconds,
                                            tally, len(rows))
        return metrics, detail, tally
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def measure_plain(workload, pass_file, seconds, tally, n_inputs):
    pct = TAIL_PCT[workload]
    need = min_samples(pct)
    passes, times, raw = [], [], []
    t0 = time.monotonic()
    while True:
        res = run_pass(pass_file, False)
        tally.check(res)
        passes.append(res)
        times += [t * 1e3 for t in res['times_s']]
        raw += [dt * 1e3 for _, _, dt in res['verdicts']]
        spent = time.monotonic() - t0
        if spent >= MAX_MEASURE_S:
            break
        if spent >= seconds and len(times) >= need \
                and len(passes) >= MIN_PASSES:
            break
    tail = percentile(times, pct)
    metrics = {
        'setup_s': statistics.median(p['setup_s'] for p in passes),
        'verdict_p50_ms': statistics.median(times),
        'verdict_tail_ms': tail,
        'verdicts_per_s': len(times) / sum(sum(p['times_s'])
                                           for p in passes),
        'peak_rss_mb': statistics.median(p['maxrss_kb'] for p in passes)
        / 1024.0,
    }
    detail = {
        'passes': len(passes), 'inputs_per_pass': n_inputs,
        'samples': len(times), 'tail_percentile': pct,
        'samples_beyond_tail': sum(t > tail for t in times),
        'unscaled_p50_ms': statistics.median(raw),
        'unscaled_tail_ms': percentile(raw, pct),
        'median_scale': statistics.median(f for p in passes
                                          for f in p['scale']),
    }
    units = dict(END_TO_END)
    return {k: (v, units[k]) for k, v in metrics.items()}, detail


def measure_traced(pass_file, spans_path, seconds, tally, n_inputs):
    plain, traced = [], []
    t0 = time.monotonic()
    while True:
        res = run_pass(pass_file, False)
        tally.check(res)
        plain.append(sum(res['times_s']))
        res = run_pass(pass_file, True)
        tally.check(res)
        spans, meta = tracer.Spans.read(spans_path)
        summary = tracer.summarize(spans, res['scale'])
        traced.append((sum(res['times_s']), layer_values(summary, meta)))
        spent = time.monotonic() - t0
        if spent >= MAX_MEASURE_S or (spent >= seconds
                                      and len(traced) >= MIN_PASSES):
            break
    plain_s = statistics.median(plain)
    traced_s = statistics.median(t for t, _ in traced)
    values = {name: statistics.median(v[name] for _, v in traced)
              for name in traced[0][1]}
    values['trace.overhead_s'] = traced_s - plain_s
    values['trace.overhead_frac'] = (traced_s - plain_s) / plain_s
    detail = {'passes': len(plain) + len(traced),
              'inputs_per_pass': n_inputs,
              'untraced_pass_s': plain_s, 'traced_pass_s': traced_s}
    units = dict(layer_names())
    return {k: (values[k], units[k]) for k in units}, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog='perfbench/run.py')
    ap.add_argument('--workload', required=True, choices=WORKLOADS)
    ap.add_argument('--seed', type=int, required=True)
    ap.add_argument('--seconds', type=float, required=True)
    ap.add_argument('--trace', type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / 'src' / 'justfix' / '__init__.py').is_file() \
            or not (ROOT / 'corpus').is_dir():
        print('error: %s holds no justfix checkout (src/justfix, corpus/)'
              % ROOT, file=sys.stderr)
        return 2
    metrics, detail, tally = measure(args.workload, args.seed, args.seconds,
                                     bool(args.trace))
    detail.update(workload=args.workload, seed=args.seed,
                  verdict_fail_frac=tally.failed / tally.attempted,
                  mismatched=tally.bad[:5],
                  python=platform.python_version(), nproc=os.cpu_count())
    print(json.dumps(detail))
    print(json.dumps({
        'correct': tally.failed == 0,
        'attempted': tally.attempted,
        'failed': tally.failed,
        'metrics': {k: {'value': v, 'unit': u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == '__main__':
    sys.exit(main())
