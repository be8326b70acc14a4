"""The command-line output on every corpus derivation, frozen.

`check --verbose` and `transform lift|internalize|project|collapse` on each
corpus/*.drv must print exactly what golden/cli.json records: standard
output, standard error and the exit status, byte for byte.

golden/reasons.json freezes the step diagnostics the same way: one short
derivation per failure message of the step checks, one per error a
justification can raise, and the printed form of every rule, each with the
command it is run under.  For a deliberate change of output, regenerate
both records (reasons.json keeps its texts) with

    PYTHONPATH=src python tests/test_golden.py

To add a case, add its name to reasons.json with only its argv and text,
and run the same command: it fills in what the case prints.
"""

import contextlib
import io
import json
import os
import tempfile

import pytest

from justfix import cli

from conftest import corpus_paths

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      'golden', 'cli.json')
REASONS = os.path.join(os.path.dirname(GOLDEN), 'reasons.json')
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


def _run_text(case, tmp) -> dict:
    path = os.path.join(tmp, 'case.drv')
    with open(path, 'w') as fh:
        fh.write(case['text'])
    return _run(case['argv'], path)


def _write(path, record):
    with open(path, 'w') as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write('\n')


def record_reasons(cases):
    """Write reasons.json: each case's argv and text with what it prints."""
    with tempfile.TemporaryDirectory() as tmp:
        _write(REASONS, {name: {**c, **_run_text(c, tmp)}
                         for name, c in cases.items()})


with open(REASONS) as fh:
    _REASONS = json.load(fh)


@pytest.mark.parametrize('name', sorted(_REASONS))
def test_step_diagnostic_is_frozen(name, tmp_path):
    case = _REASONS[name]
    assert _run_text(case, str(tmp_path)) == \
        {k: case[k] for k in ('out', 'err', 'code')}


if __name__ == '__main__':
    _write(GOLDEN, {_key(v, p): _run(v, p) for v, p in _cases()})
    record_reasons({name: {'argv': c['argv'], 'text': c['text']}
                    for name, c in _REASONS.items()})
