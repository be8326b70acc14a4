"""Self-checks of the benchmark: span arithmetic, generator determinism,
pinned mutants, and agreement with BENCHMARK.json.

    python3 -m pytest perfbench/tests -q
"""

import json
import pathlib
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / 'src')]

import gen  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

CHECK = tracer.NAMES.index('kernel.check_derivation')
TAUT = tracer.NAMES.index('registry.taut_consequence')
LIFT = tracer.NAMES.index('transforms.lift')


# -- self time ----------------------------------------------------------------

def _recursive_tree() -> tracer.Spans:
    """check [0, 10] -> lift [1, 8] -> check [2, 7] -> taut [3, 4]
    and taut [5, 6.5]; then the outer check calls taut [8.5, 9]."""
    s = tracer.Spans()
    outer = s.add(CHECK, -1, 0.0, 10.0, value=4)
    lift = s.add(LIFT, outer, 1.0, 8.0)
    inner = s.add(CHECK, lift, 2.0, 7.0, value=2)
    s.add(TAUT, inner, 3.0, 4.0, value=1)
    s.add(TAUT, inner, 5.0, 6.5, value=0)
    s.add(TAUT, outer, 8.5, 9.0, value=1)
    return s


def test_self_time_subtracts_children_through_recursion():
    own = tracer.self_times(_recursive_tree())
    assert own == pytest.approx([10 - 7 - 0.5, 7 - 5, 5 - 2.5, 1, 1.5, 0.5])


def test_summary_adds_recursive_spans_once():
    summary = tracer.summarize(_recursive_tree())
    check = summary['kernel.check_derivation']
    assert check['calls'] == 2
    assert check['self_s'] == pytest.approx(2.5 + 2.5)
    assert check['value'] == 6
    assert summary['registry.taut_consequence']['calls'] == 3
    assert summary['registry.taut_consequence']['self_s'] == pytest.approx(3)
    # the self times partition the root span
    assert sum(r['self_s'] for r in summary.values()) == pytest.approx(10)


def test_overlapping_children_are_not_counted_twice():
    s = tracer.Spans()
    root = s.add(CHECK, -1, 0.0, 10.0)
    s.add(TAUT, root, 1.0, 5.0)
    s.add(TAUT, root, 4.0, 6.0)       # overlaps the previous child
    s.add(TAUT, root, 9.0, 12.0)      # runs past its parent
    assert tracer.self_times(s)[0] == pytest.approx(10 - 5 - 1)


def test_summary_scales_self_time_per_request():
    s = tracer.Spans()
    s.add(CHECK, -1, 0.0, 4.0, request=0)
    s.add(CHECK, -1, 4.0, 5.0, request=1)
    summary = tracer.summarize(s, scale=[0.5, 3.0])
    assert summary['kernel.check_derivation']['self_s'] == pytest.approx(5)


# -- reference scaling --------------------------------------------------------

def test_reference_computation_runs():
    assert 0 < reference.reference_seconds() < 1


def test_scale_factors_use_the_median_of_nearby_reference_times():
    ref = reference.REFERENCE_S
    # one slow outlier among fast readings, then a slow stretch
    refs = [ref, ref, 9 * ref, ref, ref, 2 * ref, 2 * ref, 2 * ref, 2 * ref,
            2 * ref, 2 * ref]
    factors = reference.scale_factors(refs)
    assert len(factors) == len(refs) - 1
    assert factors[0] == pytest.approx(1.0)
    assert factors[-1] == pytest.approx(0.5)


def test_spans_round_trip_through_files(tmp_path):
    s = _recursive_tree()
    s.write(str(tmp_path / 'spans'), {'profiled_distinct': 3})
    back, meta = tracer.Spans.read(str(tmp_path / 'spans'))
    assert meta['profiled_distinct'] == 3 and meta['count'] == len(s)
    assert list(back.end) == list(s.end)
    assert list(back.parent) == list(s.parent)


# -- generator ----------------------------------------------------------------

@pytest.mark.parametrize('workload', sorted(gen.GENERATORS))
def test_same_seed_gives_identical_text(workload):
    make = gen.GENERATORS[workload]
    first, again, other = make(7), make(7), make(8)
    assert [i.text for i in first] == [i.text for i in again]
    assert [i.fail_step for i in first] == [i.fail_step for i in again]
    assert [i.text for i in first] != [i.text for i in other]
    assert len({i.id for i in first}) == len(first)


def test_generated_sizes_follow_the_workload_definitions():
    for inp in gen.prop_inputs(3):
        steps = [ln for ln in inp.text.splitlines() if ln[:1].isdigit()]
        assert len(steps) == 3
    depths = [d for fam, d, _ in gen.INLINE_SHAPES]
    assert max(d for fam, d, _ in gen.INLINE_SHAPES if fam == 'lift') == 7
    assert max(d for fam, d, _ in gen.INLINE_SHAPES
               if fam.startswith('internalize')) <= 5
    assert min(depths) >= 1


# -- pinned verdicts ----------------------------------------------------------

def _decide(inp: gen.Input, tmp_path) -> str:
    from justfix import corpus
    (tmp_path / (inp.id + '.drv')).write_text(inp.text)
    entry = corpus.CorpusEntry(inp.id, inp.id + '.drv', 'drv',
                               post=(('deduce',),) if inp.deduce else ())
    return corpus.run_entry(entry, str(tmp_path)).line


def _pick(inputs, prefix, mutant):
    return next(i for i in reversed(inputs)
                if i.id.startswith(prefix) and (i.fail_step is not None)
                == mutant)


@pytest.mark.parametrize('mutant', [True, False])
def test_prop_input_gets_its_verdict(tmp_path, mutant):
    inp = _pick(gen.prop_inputs(5), 'prop-', mutant)
    line = _decide(inp, tmp_path)
    assert run.verdict_matches(inp.id, line, inp.fail_step), line


@pytest.mark.parametrize('shape', [('lift', 3, 2), ('lift', 4, 0),
                                   ('internalize_gen', 2, 2),
                                   ('internalize_gen', 3, 0),
                                   ('internalize', 3, 0),
                                   ('premise', 4, 3), ('premise', 5, 0)])
def test_inline_input_gets_its_verdict(tmp_path, shape):
    k = gen.INLINE_SHAPES.index(shape)
    inp = gen.inline_inputs(5)[k]
    line = _decide(inp, tmp_path)
    assert run.verdict_matches(inp.id, line, inp.fail_step), line


def test_corpus_expectations_are_the_frozen_manifest_lines():
    from justfix import corpus
    frozen = {e['id']: e for e in gen.corpus_entries()}
    assert set(frozen) == {e.id for e in corpus.MANIFEST}
    for e in corpus.MANIFEST:
        assert gen.corpus_expected_line(frozen[e.id]).startswith(e.id + ': ok')
        assert frozen[e.id]['final'] == e.final
        assert tuple(map(tuple, frozen[e.id]['post'])) == e.post


# -- tracer wiring ------------------------------------------------------------

def test_tracer_wraps_every_binding_and_restores_them():
    import justfix.cli  # noqa: F401
    from justfix import kernel, registry, transforms
    before = (registry.taut_consequence, kernel.taut_consequence,
              transforms.check_derivation, kernel.check_derivation)
    t = tracer.Tracer()
    t.install()
    try:
        assert kernel.taut_consequence is not before[1]
        assert transforms.check_derivation is kernel.check_derivation
        assert kernel.taut_consequence.__wrapped__ is before[0]
        from justfix.syntax import parse_formula
        assert kernel.taut_consequence(parse_formula('p | ~p'), [])
    finally:
        t.uninstall()
    assert (registry.taut_consequence, kernel.taut_consequence,
            transforms.check_derivation, kernel.check_derivation) == before
    summary = tracer.summarize(t.spans)
    assert summary['registry.taut_consequence']['calls'] == 1
    assert summary['registry.taut_consequence']['value'] == 1


# -- BENCHMARK.json -----------------------------------------------------------

def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((ROOT / 'BENCHMARK.json').read_text())
    assert [w['name'] for w in spec['workloads']] == list(run.WORKLOADS)
    assert [(m['name'], m['unit']) for m in spec['end_to_end']] \
        == list(run.END_TO_END)
    assert [(m['name'], m['unit']) for m in spec['per_layer']] \
        == run.layer_names()
