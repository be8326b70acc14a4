"""The parser's nesting limits, frozen.

tools/nesting_limits.py, run in an interpreter of its own, must print the
limits golden/nesting_limits.json records, line by line.  The limits count
interpreter frames, which differ between Python versions, so the file also
records the version it was measured on, and only that version compares.
After a deliberate change of a limit, or on another version, regenerate the
file with

    PYTHONPATH=src python tests/test_nesting_limits.py
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, 'tests', 'golden', 'nesting_limits.json')


def measure() -> list:
    """The limits the tool prints, one dict per line."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, 'src'))
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, 'tools', 'nesting_limits.py')],
        env=env, capture_output=True, text=True, check=True)
    return [json.loads(line) for line in out.stdout.splitlines()]


def test_nesting_limits_are_frozen():
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    if tuple(golden['python']) != sys.version_info[:2]:
        pytest.skip('limits recorded on Python %d.%d' % tuple(golden['python']))
    assert measure() == golden['limits']


if __name__ == '__main__':
    with open(GOLDEN, 'w') as fh:
        json.dump({'python': list(sys.version_info[:2]), 'limits': measure()},
                  fh, indent=1)
        fh.write('\n')
