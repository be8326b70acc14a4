"""What the transforms build on the benchmark's inline inputs, frozen.

For every input of perfbench/gen.py's inline_inputs(5) (nested `inline
lift` and `inline internalize` chains, loaded read-only),
golden/elaborate.json records the SHA-256 and step count of
print_derivation(elaborate(d)), or the error text when the elaboration
fails.  For each accepted justification input it records the same of
project_derivation of that elaboration, which projects towers of constants
as deep as the chain, and for each input with premises the same of the
deduction over each premise.  The elaborated texts total about 270 KB,
too much to keep verbatim; a hash still pins every byte.  For a
deliberate change of output, regenerate the record with

    PYTHONPATH=src python tests/test_elaborate_golden.py
"""

import hashlib
import json
import os

import pytest

from justfix import transforms
from justfix.kernel import (DerivationError, elaborate, parse_derivation,
                            print_derivation)
from justfix.registry import get_logic

from conftest import perfbench_gen

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      'golden', 'elaborate.json')
_INPUTS = perfbench_gen('elaborate_golden_gen').inline_inputs(5)


def _digest(make) -> dict:
    """The SHA-256 and step count of the derivation make() returns, or the
    text of the error it raises."""
    try:
        d = make()
    except (DerivationError, transforms.TransformError) as e:
        return {'error': '%s: %s' % (type(e).__name__, e)}
    text = print_derivation(d)
    return {'sha256': hashlib.sha256(text.encode()).hexdigest(),
            'steps': len(d.steps)}


def _records(inp) -> dict:
    """The records of one input, by key."""
    d = parse_derivation(inp.text)
    out = {inp.id: _digest(lambda: elaborate(d))}
    if inp.fail_step is None and get_logic(d.logic_id).family == 'jl':
        out[inp.id + ' project'] = _digest(
            lambda: transforms.project_derivation(d))
    for p in d.premises:
        out['%s deduce %s' % (inp.id, p.name)] = _digest(
            lambda: transforms.deduction(d, p.name))
    return out


@pytest.fixture(scope='module')
def golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


def test_golden_covers_every_input(golden):
    assert len(_INPUTS) == 29
    assert {k.split()[0] for k in golden} == {inp.id for inp in _INPUTS}


@pytest.mark.parametrize('inp', _INPUTS, ids=[inp.id for inp in _INPUTS])
def test_transform_output_is_frozen(inp, golden):
    got = _records(inp)
    assert got == {k: golden[k] for k in golden if k.split()[0] == inp.id}


if __name__ == '__main__':
    with open(GOLDEN, 'w') as fh:
        json.dump({k: v for inp in _INPUTS for k, v in _records(inp).items()},
                  fh, indent=1, sort_keys=True)
        fh.write('\n')
