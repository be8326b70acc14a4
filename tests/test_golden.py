"""The command-line output on every corpus derivation, frozen.

`check --verbose`, `transform lift|internalize|project|collapse`,
`transform subst <file> x c`, `transform jug <file> x` and `transform deduce
<file> <name>` for each premise the file declares, on each corpus/*.drv,
and the cases of EXTRA, must print exactly what golden/cli.json records:
standard output, standard error and the exit status, byte for byte.  A
case's key is its argv with the file's base name in place of its path.

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
from justfix.kernel import load_derivation

from conftest import corpus_paths

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      'golden', 'cli.json')
REASONS = os.path.join(os.path.dirname(GOLDEN), 'reasons.json')
# the words before the file, and the words after it
VERBS = ((('check', '--verbose'), ()), (('transform', 'lift'), ()),
         (('transform', 'internalize'), ()), (('transform', 'project'), ()),
         (('transform', 'collapse'), ()), (('transform', 'subst'), ('x', 'c')),
         (('transform', 'jug'), ('x',)))
# (verb, corpus file, words after it): a substitution for a variable that
# does not occur, over an internalization under the empty specification
EXTRA = ((('transform', 'subst'), 'qlp-knower.drv', ('z', 'c')),)


def _key(verb, path, words=()):
    return ' '.join((*verb, os.path.basename(path), *words))


def _run(verb, path, words=()) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main([*verb, path, *words])
        except SystemExit as e:
            code = e.code
    return {'out': out.getvalue(), 'err': err.getvalue(), 'code': code}


def _corpus_cases():
    cases = []
    for path in corpus_paths():
        cases += [(verb, path, words) for verb, words in VERBS]
        cases += [(('transform', 'deduce'), path, (p.name,))
                  for p in load_derivation(path).premises]
    by_name = {os.path.basename(p): p for p in corpus_paths()}
    return cases + [(verb, by_name[name], words)
                    for verb, name, words in EXTRA]


_CASES = _corpus_cases()


@pytest.fixture(scope='module')
def golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(_key(*c) for c in _CASES)


@pytest.mark.parametrize('verb, path, words', _CASES,
                         ids=[_key(*c) for c in _CASES])
def test_cli_output_is_frozen(verb, path, words, golden):
    assert _run(verb, path, words) == golden[_key(verb, path, words)]


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
    _write(GOLDEN, {_key(*c): _run(*c) for c in _CASES})
    record_reasons({name: {'argv': c['argv'], 'text': c['text']}
                    for name, c in _REASONS.items()})
