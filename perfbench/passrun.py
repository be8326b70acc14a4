"""One pass of a workload, in a fresh interpreter.

    python3 passrun.py <src dir> <pass file> <trace 0|1>

Imports justfix from <src dir> and stamps the monotonic clock when it is
ready, then decides every input listed in <pass file> in order through
`corpus.run_entry` and prints one JSON line: the ready stamp, each
verdict line with its time, the reference times taken before each input
and after the last (reference.py), and the peak resident memory.  With
trace 1 the entry points are wrapped while the inputs run and the spans
are written next to the pass file.
"""

import json
import resource
import sys
import time


def main(argv) -> int:
    src, pass_file, trace = argv[1], argv[2], argv[3] == '1'
    sys.path.insert(0, src)
    import justfix.cli  # noqa: F401  (what `justfix corpus run` loads)
    from justfix import corpus
    ready = time.monotonic()

    with open(pass_file) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec['bench_dir'])
    from reference import reference_seconds
    entries = [(corpus.CorpusEntry(e['id'], e['path'], e['kind'], e['final'],
                                   e['falsum'], tuple(map(tuple, e['post']))),
                e['root']) for e in spec['inputs']]
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    verdicts, refs = [], []
    try:
        for k, (entry, root) in enumerate(entries):
            refs.append(reference_seconds())
            if tracer:
                tracer.request = k
            t0 = time.perf_counter()
            res = corpus.run_entry(entry, root)
            verdicts.append((entry.id, res.line, time.perf_counter() - t0))
        refs.append(reference_seconds())
    finally:
        if tracer:
            tracer.uninstall()
    if tracer:
        tracer.spans.write(spec['spans'], {
            'profiled_distinct': tracer.distinct_profiled()})
    print(json.dumps({
        'ready': ready,
        'refs': refs,
        'maxrss_kb': resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        'verdicts': verdicts,
    }))
    return 0


if __name__ == '__main__':
    sys.exit(main(sys.argv))
