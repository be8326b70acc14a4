"""tools/ab_inprocess.py as a differential oracle.

Before it times anything, the tool compares the two trees' verdict lines
and the elaborated text of every .drv input.  Run in an interpreter of
its own, it must pass this repository against itself, and stop on a copy
whose internalization names the bound variable of its Gen steps z#n in
place of y#n: a change no verdict line shows, but the elaborated text of
the internalize_gen inputs does.  With --memory it adds each side's
traced peak per pass, and per input with --per-input.  With --fresh it
times each pass in a new interpreter, after the same check.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from conftest import ROOT


def _run(*args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, 'tools', 'ab_inprocess.py'),
         *args, '--workload', 'inline', '--rounds', '1'],
        capture_output=True, text=True)


def test_a_tree_against_itself_is_timed():
    out = _run(ROOT)
    assert out.returncode == 0, out.stdout + out.stderr
    assert len(out.stdout.splitlines()) == 2


def test_memory_adds_traced_peaks():
    out = _run(ROOT, '--memory', '--per-input')
    assert out.returncode == 0, out.stdout + out.stderr
    lines = [json.loads(line) for line in out.stdout.splitlines()]
    sides, inputs = lines[:2], lines[2:]
    assert [s['side'] for s in sides] == ['base', 'tree']
    assert all(s['peak_kb'] > 0 for s in sides)
    assert len(inputs) == sides[0]['inputs']
    assert all(row['base_peak_kb'] > 0 and row['tree_peak_kb'] > 0
               for row in inputs)


def test_fresh_times_each_pass_in_a_new_interpreter():
    out = _run(ROOT, '--fresh', '--per-input')
    assert out.returncode == 0, out.stdout + out.stderr
    lines = [json.loads(line) for line in out.stdout.splitlines()]
    sides, inputs = lines[:2], lines[2:]
    assert [(s['side'], s['mode']) for s in sides] == [('base', 'fresh'),
                                                        ('tree', 'fresh')]
    assert all(s['min_ms'] > 0 for s in sides)
    assert len(inputs) == sides[0]['inputs']
    # each pass time is the sum of its verdict times
    for s in sides:
        assert sum(row[s['side'] + '_min_ms'] for row in inputs) \
            == pytest.approx(s['min_ms'], abs=0.01 * len(inputs))


def test_fresh_and_memory_exclude_each_other():
    out = _run(ROOT, '--fresh', '--memory')
    assert out.returncode == 2 and 'not allowed' in out.stderr


def test_an_elaboration_difference_stops_the_run(tmp_path):
    shutil.copytree(os.path.join(ROOT, 'src'), tmp_path / 'src')
    path = tmp_path / 'src' / 'justfix' / 'transforms.py'
    text = path.read_text()
    assert text.count("fresh('y')") == 1
    path.write_text(text.replace("fresh('y')", "fresh('z')"))
    out = _run(ROOT, '--tree', str(tmp_path))
    assert out.returncode == 1, out.stdout + out.stderr
    lines = out.stdout.splitlines()
    assert 'verdicts differ' not in out.stdout
    assert lines[0] == 'elaborations differ: inline-18-internalize_gen-d4'
    assert 'ex y#1 . y#1' in lines[1] and 'ex z#1 . z#1' in lines[2]
