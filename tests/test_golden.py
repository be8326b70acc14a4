"""The command-line output on every corpus derivation, frozen.

`check --verbose` and `transform lift|internalize|project|collapse` on each
corpus/*.drv must print exactly what golden/cli.json records: standard
output, standard error and the exit status, byte for byte.  For a
deliberate change of output, regenerate the record with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os

import pytest

from justfix import cli

from conftest import corpus_paths

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      'golden', 'cli.json')
VERBS = (('check', '--verbose'), ('transform', 'lift'),
         ('transform', 'internalize'), ('transform', 'project'),
         ('transform', 'collapse'))


def _key(verb, path):
    return '%s %s' % (' '.join(verb), os.path.basename(path))


def _run(verb, path) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(verb) + [path])
        except SystemExit as e:
            code = e.code
    return {'out': out.getvalue(), 'err': err.getvalue(), 'code': code}


def _cases():
    return [(verb, path) for path in corpus_paths() for verb in VERBS]


@pytest.fixture(scope='module')
def golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(_key(v, p) for v, p in _cases())


@pytest.mark.parametrize('verb, path', _cases(),
                         ids=[_key(v, p) for v, p in _cases()])
def test_cli_output_is_frozen(verb, path, golden):
    assert _run(verb, path) == golden[_key(verb, path)]


if __name__ == '__main__':
    record = {_key(v, p): _run(v, p) for v, p in _cases()}
    with open(GOLDEN, 'w') as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write('\n')
