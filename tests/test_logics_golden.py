"""The registry's logics, frozen.

For every id `known_logics()` lists (other than the Sacchetti template),
five Sacchetti indices, the JT4 alias and four ids that must be refused,
each under no suffix, `(FP)`, `(mu)`, `(mu)(FP)` and `(FP)(mu)`,
`get_logic` must give exactly what golden/logics.json records: the
name, family, profile, axioms in match order, rules, specification kind
and extension flags of the logic, or the class and message of the
exception.  The record also holds the stdout of `justfix logics list`.
For a deliberate change, regenerate the record with

    PYTHONPATH=src python tests/test_logics_golden.py
"""

import contextlib
import io
import json
import os

import pytest

from justfix import cli
from justfix.registry import get_logic, known_logics

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      'golden', 'logics.json')
EXTRA_IDS = ('Sacchetti-2', 'Sacchetti-3', 'Sacchetti-0', 'Sacchetti-1000',
             'Sacchetti-1001', 'JT4', 'K_n', 'tK_n', 'QLP_n_n', 'banana')
SUFFIXES = ('', '(FP)', '(mu)', '(mu)(FP)', '(FP)(mu)')


def _cases() -> list:
    bases = [i for i in known_logics() if i != 'Sacchetti-n']
    return [b + s for b in bases + list(EXTRA_IDS) for s in SUFFIXES]


def _ids() -> list:
    # 'K(mu)' + '(FP)' is 'K' + '(mu)(FP)': 250 cases name 238 ids
    return list(dict.fromkeys(_cases()))


def _facts(logic_id: str) -> dict:
    try:
        logic = get_logic(logic_id)
    except Exception as e:
        return {'error': type(e).__name__, 'message': str(e)}
    p = logic.profile
    return {'name': logic.name, 'family': logic.family,
            'profile': [p.name, sorted(p.formula_nodes),
                        sorted(p.term_nodes), p.agents],
            'axioms': [a.name for a in logic.axioms],
            'rules': sorted(logic.rules), 'spec_kind': logic.spec_kind,
            'fp': logic.fp, 'fp_mode': logic.fp_mode, 'mu': logic.mu}


def _logics_list() -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(['logics', 'list']) == 0
    return out.getvalue()


@pytest.fixture(scope='module')
def golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


def test_golden_covers_every_id(golden):
    assert (len(_cases()), len(_ids())) == (250, 238)
    assert sorted(golden['get_logic']) == sorted(_ids())


@pytest.mark.parametrize('logic_id', _ids())
def test_get_logic_is_frozen(logic_id, golden):
    assert _facts(logic_id) == golden['get_logic'][logic_id]


def test_logics_list_is_frozen(golden):
    assert _logics_list() == golden['logics list']


if __name__ == '__main__':
    record = {'get_logic': {i: _facts(i) for i in _ids()},
              'logics list': _logics_list()}
    with open(GOLDEN, 'w') as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write('\n')
