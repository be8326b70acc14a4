"""Every name a justfix module imports is used in that module."""

import ast
import glob
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   'src', 'justfix')


def _unused_imports(tree: ast.Module) -> list:
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == '__future__':
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split('.')[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize('path', sorted(glob.glob(os.path.join(SRC, '*.py'))),
                         ids=os.path.basename)
def test_no_unused_imports(path):
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    assert _unused_imports(tree) == []


def test_detector_sees_unused_import():
    tree = ast.parse('import os\nfrom re import match, sub\nsub\n')
    assert _unused_imports(tree) == [(1, 'os'), (2, 'match')]
