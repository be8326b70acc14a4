"""Command line exit codes."""

import os

import pytest

from justfix import cli

from conftest import CORPUS


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
