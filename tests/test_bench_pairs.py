"""tools/bench_pairs.py runs each benchmark process with the bytecode
cache prefix it is given, so neither side of a pair loads bytecode left
in its own tree's __pycache__ directories; and its warm-up leaves under
that prefix the standard library's bytecode, and none of a tree's."""

import importlib.util
import os

from conftest import ROOT

_spec = importlib.util.spec_from_file_location(
    'bench_pairs', os.path.join(ROOT, 'tools', 'bench_pairs.py'))
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

# a perfbench/run.py that imports a module of the standard library and
# one of its own tree, and reports the prefix its interpreter caches under
_FAKE_RUN = '''import json, sys
import colorsys, helper
print('warming up')
print(json.dumps({'correct': True, 'attempted': 1, 'failed': 0,
                  'metrics': {'prefix': {'value': sys.pycache_prefix}}}))
'''


def _fake_tree(path):
    (path / 'perfbench').mkdir(parents=True)
    (path / 'perfbench' / 'run.py').write_text(_FAKE_RUN)
    (path / 'perfbench' / 'helper.py').write_text('')
    return path


def test_run_once_sets_the_bytecode_cache_prefix(tmp_path):
    tree, pycache = _fake_tree(tmp_path / 'tree'), tmp_path / 'pycache'
    pycache.mkdir()
    out = bench_pairs.run_once(tree, 'corpus', 1, str(pycache))
    assert out == {'correct': True, 'attempted': 1, 'failed': 0,
                   'metrics': {'prefix': str(pycache)}}


def test_warm_keeps_the_standard_library_bytecode_only(tmp_path,
                                                       monkeypatch):
    # the warm-up writes bytecode even where the caller's environment
    # forbids it
    monkeypatch.setenv('PYTHONDONTWRITEBYTECODE', '1')
    tree, pycache = _fake_tree(tmp_path / 'tree'), tmp_path / 'pycache'
    pycache.mkdir()
    bench_pairs.warm([tree], 'corpus', str(pycache))
    names = [p.name for p in pycache.rglob('*.pyc')]
    assert any(n.startswith('colorsys.') for n in names)
    assert not any(n.startswith('helper.') for n in names)
