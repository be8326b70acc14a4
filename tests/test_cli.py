"""Command line exit codes."""

import contextlib
import io
import os
import pathlib
import shutil
import tempfile
import tracemalloc

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from justfix import cli
from justfix.kernel import elaborate, load_derivation, print_derivation

from conftest import CORPUS, corpus_paths


@pytest.mark.parametrize('argv, usage', [
    (['deduce', 'tk-surprise.drv'], 'deduce <file> <premise>'),
    (['lift', 'jl-knower.drv', 'extra'], 'lift <file>'),
])
def test_transform_usage_error_exits_2(argv, usage, capsys):
    argv = ['transform', argv[0], os.path.join(CORPUS, argv[1])] + argv[2:]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ''
    assert captured.err == 'usage: justfix transform %s\n' % usage


@pytest.mark.parametrize('text, message', [
    ('logic: K\n\n1. x : p -> x : p ; prop\n',
     'Just not in language modal'),
    ('logic: K(mu)\n\n1. (mu p . ~p) -> (mu p . ~p) ; prop\n',
     'p has a non-positive occurrence in mu body'),
    ('logic: J\n\n1. x : p -> x : p ; prop\n'
     '2. x : p -> x : p ; inline subst 1 z := f(y)\n',
     'term Prim not in language jl'),
], ids=['profile', 'positivity', 'subst-term'])
def test_load_time_formula_error_exits_1(text, message, tmp_path, capsys):
    path = tmp_path / 'bad.drv'
    path.write_text(text)
    assert cli.main(['check', str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ''
    assert captured.err == 'error: %s\n' % message


def test_subst_term_outside_the_language_exits_1(capsys):
    # the user's term is refused as such, not blamed on the transform
    argv = ['transform', 'subst', os.path.join(CORPUS, 'egl-fp.drv'), 't',
            'f(y)']
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ''
    assert captured.err == 'error: term Prim not in language jl\n'


@pytest.mark.parametrize('step', [
    '(' * 200 + 'p -> p' + ')' * 200 + ' ; prop',
    '~' * 1000 + '(p -> p) ; prop',
], ids=['parentheses', 'negations'])
def test_deep_nesting_is_a_parse_error(step, tmp_path, capsys):
    path = tmp_path / 'deep.drv'
    path.write_text('logic: K\n\n1. %s\n' % step)
    assert cli.main(['check', str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ''
    assert captured.err == 'error: formula nested too deeply\n'


@pytest.mark.parametrize('verb, text', [
    ('project', 'logic: J\n\n1. {0}p -> {0}p ; prop\n'),
    ('collapse', 'logic: QLP-_n\nagents: a\n\n'
                 '1. {0}x :@a p -> {0}x :@a p ; prop\n'),
], ids=['project', 'collapse'])
def test_transform_of_a_step_the_checker_takes(verb, text, tmp_path, capsys):
    # 600 negations check; two frames per level stopped the maps at 498
    path = tmp_path / 'deep.drv'
    path.write_text(text.format('~' * 600))
    assert cli.main(['check', str(path)]) == 0
    capsys.readouterr()
    assert cli.main(['transform', verb, str(path)]) == 0
    image = tmp_path / 'image.drv'
    image.write_text(capsys.readouterr().out)
    assert cli.main(['check', str(image)]) == 0


# an inline subst step whose cone holds an inline step
_SUBST_OVER_INLINE = """logic: J
spec: tcs

1. p -> p ; prop
2. c#1 : (p -> p) ; inline lift 1
3. c#1 : (p -> p) -> (x : p -> c#1 * x : p) ; ax jk
4. x : p -> c#1 * x : p ; mp 2 3
5. c : p -> c#1 * c : p ; inline subst 4 x := c
"""


@pytest.mark.parametrize('verb', ['elaborate', 'lift', 'project', 'subst'])
def test_inline_subst_over_an_inline_cone(verb, tmp_path, capsys):
    # the image of step 5 must hold step 2 expanded; elaborate, lift and
    # project refuse an image that still holds an inline step
    path = tmp_path / 'nested.drv'
    path.write_text(_SUBST_OVER_INLINE)
    assert cli.main(['check', str(path)]) == 0
    capsys.readouterr()
    if verb == 'elaborate':
        text = print_derivation(elaborate(load_derivation(str(path))))
    else:
        words = ('y', 'd') if verb == 'subst' else ()
        assert cli.main(['transform', verb, str(path), *words]) == 0
        text = capsys.readouterr().out
    assert ' ; inline ' not in text
    image = tmp_path / 'image.drv'
    image.write_text(text)
    assert cli.main(['check', str(image)]) == 0


@pytest.mark.parametrize('path', corpus_paths(), ids=os.path.basename)
def test_subst_prints_a_derivation_the_checker_takes(path, tmp_path, capsys):
    # the spec files beside the image, as beside its source
    for spec in corpus_paths('.spec'):
        shutil.copy(spec, tmp_path)
    code = cli.main(['transform', 'subst', path, 'x', 'c'])
    captured = capsys.readouterr()
    if code:
        assert code == 1 and captured.out == ''
        assert captured.err.startswith('error: ')
        assert captured.err.count('\n') == 1
        assert 'produced a rejected derivation' not in captured.err
        return
    image = tmp_path / os.path.basename(path)
    image.write_text(captured.out)
    assert cli.main(['check', str(image)]) == 0


_PARENS_150 = '(' * 150 + 'p & q' + ')' * 150
_NEGATIONS_900 = '(%sp)' % ('~' * 900)


def _chain(lines):
    """Steps, each the step before it in parentheses behind 250 negations:
    on every line a repeated group in a deeper place."""
    out, f = [], 'p'
    for _ in range(lines):
        f = '(%s%s)' % ('~' * 250, f)
        out.append('%s ; prop' % f)
    return out


@pytest.mark.parametrize('steps', [
    ['%s ; prop' % _PARENS_150,
     '%s%s%s ; prop' % ('(' * 60, _PARENS_150, ')' * 60)],
    ['%s ; prop' % _NEGATIONS_900, '%s%s ; prop' % ('~' * 900, _NEGATIONS_900)],
    _chain(4),
], ids=['parentheses', 'negations', 'chained-lines'])
def test_a_reused_group_nested_too_deeply_exits_1(steps, tmp_path, capsys):
    path = tmp_path / 'deep.drv'
    path.write_text('logic: K\n\n%s\n' % '\n'.join(
        '%d. %s' % (n, step) for n, step in enumerate(steps, 1)))
    assert cli.main(['check', str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ''
    assert captured.err == 'error: formula nested too deeply\n'


@pytest.mark.parametrize('text, message', [
    ('logic: Sacchetti-0\n\n1. p -> p ; prop\n', 'Sacchetti-0'),
    ('logic: Sacchetti--1\n\n1. p -> p ; prop\n', 'Sacchetti--1'),
    ('logic: Sacchetti-10000000000\n\n1. p -> p ; prop\n',
     'Sacchetti-10000000000'),
    ('logic: K\n\n1. p -> p ; prop\n2. p -> p ; mp a 1\n',
     "step reference 'a' is not a number"),
    ('logic: K\n\n1. p -> p ; prop\n2. [](p -> p) ; nec x\n',
     "step reference 'x' is not a number"),
    ('logic: K\n\n1. p -> p ; prop x\n',
     "step reference 'x' is not a number"),
    ('logic: tS4\n\n1. K@1 p -> p ; ax\n2. K@5 K@1 p ; admk , 5\n',
     'admk takes step references and a time'),
    ('logic: Sacchetti-1_0\n\n1. p -> p ; prop\n', 'Sacchetti-1_0'),
    ('logic: Sacchetti-+2\n\n1. p -> p ; prop\n', 'Sacchetti-+2'),
    ('logic: Sacchetti- 2\n\n1. p -> p ; prop\n', 'Sacchetti- 2'),
    ('logic: Sacchetti-\u0663\n\n1. p -> p ; prop\n', 'Sacchetti-\u0663'),
    ('logic: K\n\n1. p -> p ; prop\n2. [](p -> p) ; nec \u0661\n',
     "step reference '\u0661' is not a number"),
    ('logic: K\n\n1. p -> p ; prop\n2. [](p -> p) ; nec +1\n',
     "step reference '+1' is not a number"),
    ('logic: K\n\n1. p -> p ; prop\n2. [](p -> p) ; nec 0_1\n',
     "step reference '0_1' is not a number"),
    ('logic: tS4\n\n1. K@1 p -> p ; ax\n2. K@5 K@1 p ; admk 1 \u0665\n',
     "time '\u0665' is not a number"),
    ('logic: tS4\n\n1. K@\u0661 p -> p ; ax\n', "bad character '\u0661' at 2"),
    ('logic: K\n\n\u0661. p -> p ; prop\n',
     "unrecognized line: '\u0661. p -> p ; prop'"),
    ('logic: QLP\n\n1. p -> p ; prop\n'
     '2. p -> p ; inline subst \u0661 x := y\n',
     'inline subst syntax: subst <i> <x> := <term>'),
], ids=['sacchetti-0', 'sacchetti--1', 'sacchetti-huge', 'mp', 'nec',
        'prop', 'admk', 'sacchetti-underscore', 'sacchetti-plus',
        'sacchetti-space', 'sacchetti-arabic-indic', 'nec-arabic-indic',
        'nec-plus', 'nec-underscore', 'admk-time-arabic-indic',
        'knows-arabic-indic', 'step-label-arabic-indic',
        'subst-arabic-indic'])
def test_bad_logic_index_or_step_reference_exits_1(text, message, tmp_path,
                                                   capsys):
    path = tmp_path / 'bad.drv'
    path.write_text(text)
    assert cli.main(['check', str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ''
    assert captured.err == 'error: %s\n' % message


def test_tautology_deeper_than_the_stack_exits_1(tmp_path, capsys):
    atoms = ['a%d' % k for k in range(1500)]
    path = tmp_path / 'parity.drv'
    path.write_text('logic: K\n\n1. (%s) <-> (%s) ; prop\n'
                    % (' xor '.join(atoms), ' xor '.join(atoms[::-1])))
    assert cli.main(['check', str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ''
    assert captured.err == 'error: formula nested too deeply\n'


def test_agents_header_of_non_ascii_digits_exits_1(tmp_path, capsys):
    path = tmp_path / 'agents.drv'
    path.write_text('logic: QLP_n\nagents: \u00b2\n\n1. p -> p ; prop\n')
    assert cli.main(['check', str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ''
    assert captured.err == "error: agent name '\u00b2' is not an identifier\n"


def test_model_agents_count_declares_a1_to_an(tmp_path, capsys):
    # agent a1's closure conditions are checked, so its missing q is found
    path = tmp_path / 'agents.mdl'
    path.write_text('logic: QLP-_n\nagents: 2\ndomain r1\n'
                    'interp app default -> r1\n'
                    'evidence @a1 r1 : p -> q\nevidence @a1 r1 : p\n')
    assert cli.main(['model', 'conditions', str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == \
        'application: p -> q at r1, p at r1, but q missing at r1\n'
    assert captured.err == ''


@pytest.mark.parametrize('header', [
    'logic: QLP-_n\nagents: s\n',
    'logic: QLP-\n',
], ids=['other-agent-declared', 'no-agents-header'])
def test_model_evidence_of_undeclared_agent_exits_1(header, tmp_path,
                                                     capsys):
    # check_evidence_conditions never looked at a1's entries, so a1's
    # missing q went unseen and `model conditions` printed ok
    path = tmp_path / 'agents.mdl'
    path.write_text(header + 'domain r1\ninterp app default -> r1\n'
                    'evidence @a1 r1 : p -> q\nevidence @a1 r1 : p\n')
    assert cli.main(['model', 'conditions', str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ''
    assert captured.err == "error: evidence for undeclared agent 'a1'\n"


def test_model_agent_name_must_be_an_identifier(tmp_path, capsys):
    path = tmp_path / 'agents.mdl'
    path.write_text('logic: QLP-_n\nagents: a-b\ndomain r1\n')
    assert cli.main(['model', 'conditions', str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ''
    assert captured.err == "error: agent name 'a-b' is not an identifier\n"


def test_agents_count_above_bound_exits_1(tmp_path, capsys):
    # refused before any agent name is built: a million names took 64 MB
    path = tmp_path / 'agents.drv'
    path.write_text('logic: QLP_n\nagents: 10000000000\n\n1. p -> p ; prop\n')
    tracemalloc.start()
    try:
        assert cli.main(['check', str(path)]) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    captured = capsys.readouterr()
    assert captured.out == ''
    assert captured.err == 'error: agent count 10000000000 exceeds 1000\n'


@pytest.mark.parametrize('line, message', [
    ('interp app ->', "interp needs '-> reason': 'interp app ->'"),
    ('evidence @s', "bad evidence line: 'evidence @s'"),
    ('evidence @', "bad evidence line: 'evidence @'"),
    ('domains a', "unrecognized line: 'domains a'"),
    ('truthy = 1', "unrecognized line: 'truthy = 1'"),
    ('validy', "unrecognized line: 'validy'"),
    ('interp -> r', "interp needs an operation name: 'interp -> r'"),
    ('evidence @ x : p', "bad evidence line: 'evidence @ x : p'"),
], ids=['interp-no-reason', 'evidence-agent-only', 'evidence-bare-at',
        'domain-prefix', 'truth-prefix', 'valid-prefix', 'interp-no-op',
        'evidence-empty-agent'])
def test_truncated_model_line_exits_1(line, message, tmp_path, capsys):
    path = tmp_path / 'bad.mdl'
    path.write_text('logic: QLP-\ndomain a\n%s\n' % line)
    assert cli.main(['model', 'check', str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ''
    assert captured.err == 'error: %s\n' % message


# a derivation and a model whose spec header reads %s
_SPEC_DRV = 'logic: LP\nspec: %s\n\n1. p -> p ; prop\n'
_SPEC_MDL = 'logic: QLP-\nspec: %s\ndomain a\n'


@pytest.mark.parametrize('cmd, text', [
    (['check'], _SPEC_DRV % 'file'),
    (['check'], _SPEC_DRV % 'filex.txt'),
    (['model', 'check'], _SPEC_MDL % 'file'),
    (['model', 'check'], _SPEC_MDL % 'filex.txt'),
    (['check', '--spec', ' '], _SPEC_DRV % 'tcs'),
], ids=['drv-file', 'drv-filex.txt', 'mdl-file', 'mdl-filex.txt',
        'option-blank'])
def test_spec_file_needs_the_word_and_a_path(cmd, text, tmp_path, capsys):
    path = tmp_path / ('bad.' + ('drv' if cmd[0] == 'check' else 'mdl'))
    path.write_text(text)
    (tmp_path / 'x.txt').write_text('p -> p\n')
    assert cli.main(cmd + [str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ''
    assert captured.err == 'error: spec must be tcs, empty, or file <path>\n'


def test_model_valid_without_claims_exits_1(tmp_path, capsys):
    path = tmp_path / 'none.mdl'
    path.write_text('logic: QLP-\ndomain a\n')
    assert cli.main(['model', 'valid', str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ''
    assert captured.err == 'error: model file has no validity claims\n'


# substitutions that would capture a variable: each fails its step, or is
# one error line, where it used to end in a traceback
_CAPTURES = {
    'mu-ind': ('logic: K(mu)\n1. ((mu q . (q | q)) | q) -> q ; prop\n'
               '2. (mu p . mu q . (p | q)) -> q ; mu-ind 1\n',
               'step 2: FAIL  q is not free for p in the mu body: '
               'substitution captured by mu q\n'),
    'mu-cl': ('logic: K(mu)\n1. (q & mu q . ((mu p . (q & mu q . (p | q))) '
              '| q)) <-> mu p . (q & mu q . (p | q)) ; ax\n',
              'step 1: FAIL  matches no axiom schema of K(mu)\n'),
    'fp': ('logic: QLP(FP)\nfix d p (E) := ex x . x : (p & E)\n'
           '1. fix(d; x : q) <-> ex x . x : (fix(d; x : q) & x : q) ; fp d\n',
           'step 1: FAIL  not an instance of the d axiom\n'),
}


@pytest.mark.parametrize('name', sorted(_CAPTURES))
def test_variable_capture_fails_the_step(name, tmp_path, capsys):
    text, line = _CAPTURES[name]
    path = tmp_path / 'capture.drv'
    path.write_text(text)
    assert cli.main(['check', '--verbose', str(path)]) == 1
    captured = capsys.readouterr()
    assert line in captured.out
    assert captured.err == ''


def test_fp_with_a_captured_argument_exits_1(capsys):
    assert cli.main(['fp', '--logic', 'QLP(FP)',
                     'd p (E) := ex x . x : (p & E)', 'x : q']) == 1
    captured = capsys.readouterr()
    assert captured.out == ''
    assert captured.err == \
        'error: d: substitution captured by quantifier on x\n'


# -- crash fuzzer ---------------------------------------------------------------
# Mutated corpus files, run through the verbs that read them: every run
# must end in exit code 0 or 1, never in another exception.  The corpus
# spec files sit beside each mutant, so a `spec: file` header still reads.

_MUTANT_SOURCES = {os.path.basename(p): pathlib.Path(p).read_text()
                   for p in corpus_paths() + corpus_paths('.mdl')}
_DRV_VERBS = (['check'], ['transform', 'lift'], ['transform', 'internalize'],
              ['transform', 'project'], ['transform', 'collapse'])
_OPERATOR_TOKENS = ('->', '<->', '&', '|', 'xor', '~', '[]', '<>', 'K@2',
                    ':', ':@a', '!', '?', '??', '*', '+', '(', ')', ',', ';',
                    'all x .', 'ex y .', 'mu p .', 'nu q .', 'fix(d;',
                    'false', '(x all y)', 'mp 1', 'inline lift 1')


@st.composite
def _mutants(draw):
    name = draw(st.sampled_from(sorted(_MUTANT_SOURCES)))
    lines = _MUTANT_SOURCES[name].splitlines()
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(('insert', 'swap', 'duplicate')))
        ruled = [j for j, line in enumerate(lines) if ' ; ' in line]
        if op == 'insert':
            words = lines[k].split(' ')
            words.insert(draw(st.integers(0, len(words))),
                         draw(st.sampled_from(_OPERATOR_TOKENS)))
            lines[k] = ' '.join(words)
        elif op == 'swap' and len(ruled) > 1:
            i, j = draw(st.permutations(ruled))[:2]
            (a, ra), (b, rb) = (lines[i].split(' ; ', 1),
                                lines[j].split(' ; ', 1))
            lines[i], lines[j] = a + ' ; ' + rb, b + ' ; ' + ra
        else:
            lines.insert(k, lines[k])
    verbs = [['model', 'check']] if name.endswith('.mdl') else _DRV_VERBS
    return draw(st.sampled_from(verbs)), name[-4:], '\n'.join(lines) + '\n'


@settings(max_examples=150, deadline=None)
@given(_mutants())
@example((['check'], '.drv', _CAPTURES['mu-ind'][0]))
@example((['check'], '.drv', _CAPTURES['mu-cl'][0]))
@example((['check'], '.drv', _CAPTURES['fp'][0]))
@example((['fp', '--logic', 'QLP(FP)', 'd p (E) := ex x . x : (p & E)',
           'x : q'], None, None))
def test_mutated_corpus_ends_in_an_exit_code(case):
    code, out = _run_mutant(*case)
    assert code in (0, 1), out


def _run_mutant(argv, suffix, text) -> tuple:
    """(exit code, output) of cli.main on argv and, unless text is None, a
    file of text with the corpus spec files beside it; the output names
    the file's directory <tmp>."""
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        for spec in corpus_paths('.spec'):
            shutil.copy(spec, tmp)
        if text is not None:
            path = os.path.join(tmp, 'mutant' + suffix)
            with open(path, 'w') as fh:
                fh.write(text)
            argv = argv + [path]
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue().replace(tmp, '<tmp>')
