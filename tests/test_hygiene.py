"""Every name a justfix module imports is used in that module, every
private module-level name is used somewhere in justfix, only the
registry spells out the pieces of the logic-id grammar, no module
keeps a functools memo, which would outlive the call that filled it,
only registry.memo_scope switches the cycle collector off or on,
only one function walks two structures in parallel, no function
passes a pattern literal to a module-level re function, no module
imports dataclasses, which loading the package does not pay for, the
only source text the package compiles as it loads is one per record shape
of syntax.record, no closure refers to itself, which would leave a
reference cycle per call, only the line reader, kernel.read_lines, calls
strip_comment or .splitlines(), in transforms only _Build.detach adds an
mp step, and transforms does not name the inline rule: the kernel alone
reads inline steps, and a transform sees them expanded by
kernel.elaborate.  Every module but kernel.py stays below the 8,192
tokens that tools/size.py counts and past which CPython 3.11 compiles a
file at a higher peak."""

import ast
import glob
import json
import os
import subprocess
import sys

import pytest

from conftest import ROOT

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


def _dead_private_names(trees: dict) -> list:
    """(module, name) of each module-level _name function, class or constant
    that no statement of any module, other than its own definition, names."""
    defined = []
    used = set()   # (name, module, index of the top-level statement)
    for mod, tree in trees.items():
        for k, stmt in enumerate(tree.body):
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) \
                    else [stmt.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [(mod, name, k) for name in names
                        if name.startswith('_') and not name.startswith('__')]
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and \
                        not isinstance(node.ctx, ast.Store):
                    used.add((node.id, mod, k))
                elif isinstance(node, ast.Attribute):
                    used.add((node.attr, mod, k))
                elif isinstance(node, ast.ImportFrom):
                    used.update((a.name, mod, k) for a in node.names)
    return sorted((mod, name) for mod, name, k in defined
                  if not any(n == name and (m, j) != (mod, k)
                             for n, m, j in used))


def test_no_dead_private_names():
    trees = {}
    for path in sorted(glob.glob(os.path.join(SRC, '*.py'))):
        with open(path) as fh:
            trees[os.path.basename(path)] = ast.parse(fh.read(), path)
    assert _dead_private_names(trees) == []


def test_detector_sees_dead_private_name():
    a = ast.parse('def _dead(n):\n    return _dead(n - 1)\n'
                  'def _live():\n    pass\n'
                  '_C = 1\n_D = 2\n__all__ = []\nx = _live() + _C\n'
                  '_imported = _used = 0\n')
    b = ast.parse('from a import _imported\nimport a\na._used\n')
    assert _dead_private_names({'a.py': a, 'b.py': b}) == [('a.py', '_D'),
                                                           ('a.py', '_dead')]


# the suffixes and the alias that registry.split_logic_id reads; a full id
# such as 'T(FP)' is a name, not grammar, and may appear anywhere
_LOGIC_ID_PIECES = frozenset(('(FP)', '(mu)', '_n', 'JT4'))


def _logic_id_pieces(tree: ast.Module) -> list:
    return sorted((node.lineno, node.value) for node in ast.walk(tree)
                  if isinstance(node, ast.Constant)
                  and node.value in _LOGIC_ID_PIECES)


@pytest.mark.parametrize('path', sorted(glob.glob(os.path.join(SRC, '*.py'))),
                         ids=os.path.basename)
def test_logic_id_grammar_only_in_registry(path):
    if os.path.basename(path) == 'registry.py':
        return
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    assert _logic_id_pieces(tree) == []


def test_detector_sees_logic_id_piece():
    tree = ast.parse("MANIFEST = ['T(FP)', 'QLP_n']\n"
                     "def f(x):\n    return x.endswith('_n') or x == 'JT4'\n")
    assert _logic_id_pieces(tree) == [(3, 'JT4'), (3, '_n')]


def _memo_table_assignments(tree: ast.Module) -> list:
    """Lines that assign _DECISIONS, the memo table of registry.memo_scope,
    as a name or as an attribute."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        while targets:
            t = targets.pop()
            if isinstance(t, (ast.Tuple, ast.List)):
                targets += t.elts
            elif isinstance(t, ast.Name) and t.id == '_DECISIONS' or \
                    isinstance(t, ast.Attribute) and t.attr == '_DECISIONS':
                found.append(node.lineno)
    return sorted(found)


@pytest.mark.parametrize('path', sorted(glob.glob(os.path.join(SRC, '*.py'))),
                         ids=os.path.basename)
def test_memo_table_only_in_registry(path):
    # only memo_scope opens and drops the table, so one module owns it
    if os.path.basename(path) == 'registry.py':
        return
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    assert _memo_table_assignments(tree) == []


def test_detector_sees_memo_table_assignment():
    tree = ast.parse('from . import registry\n'
                     'registry._DECISIONS = {}\n'
                     'table = registry._DECISIONS\n'
                     'a, registry._DECISIONS = 1, None\n'
                     'def f():\n    global _DECISIONS\n    _DECISIONS = {}\n'
                     'registry._DECISIONS[1] = 2\n')
    assert _memo_table_assignments(tree) == [2, 4, 7]


_COLLECTOR_SWITCHES = frozenset(('disable', 'enable', 'freeze',
                                 'set_threshold'))


def _collector_switches(tree: ast.Module, owner: str = None) -> list:
    """(line, name) of each gc.disable, gc.enable, gc.freeze or
    gc.set_threshold named, as an attribute of gc or of a name gc is
    imported as, or imported from gc, outside the module-level function
    or class owner."""
    modules = {a.asname or a.name for node in ast.walk(tree)
               if isinstance(node, ast.Import)
               for a in node.names if a.name == 'gc'}
    found = []
    for top in tree.body:
        if owner is not None and getattr(top, 'name', None) == owner:
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) \
                    and node.attr in _COLLECTOR_SWITCHES \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id in modules:
                found.append((node.lineno, node.attr))
            elif isinstance(node, ast.ImportFrom) and node.module == 'gc':
                found += [(node.lineno, a.name) for a in node.names
                          if a.name in _COLLECTOR_SWITCHES]
    return sorted(found)


@pytest.mark.parametrize('path', sorted(glob.glob(os.path.join(SRC, '*.py'))),
                         ids=os.path.basename)
def test_collector_switched_only_in_memo_scope(path):
    # the outermost memo scope pauses the cycle collector and restores the
    # caller's state; a switch anywhere else could leave it off
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    owner = 'memo_scope' if os.path.basename(path) == 'registry.py' else None
    assert _collector_switches(tree, owner) == []


def test_detector_sees_collector_switch():
    tree = ast.parse('import gc\nimport gc as g\n'
                     'from gc import freeze, collect\n'
                     'class memo_scope:\n'
                     '    def __enter__(self):\n        gc.disable()\n'
                     'def f():\n    g.set_threshold(1)\n    gc.collect()\n'
                     'gc.enable()\n')
    assert _collector_switches(tree, 'memo_scope') == [
        (3, 'freeze'), (8, 'set_threshold'), (10, 'enable')]
    assert _collector_switches(tree) == [
        (3, 'freeze'), (6, 'disable'), (8, 'set_threshold'), (10, 'enable')]


_PROCESS_MEMOS = frozenset(('lru_cache', 'cache'))


def _process_memos(tree: ast.Module) -> list:
    """(line, name) of each functools.lru_cache or functools.cache named,
    as an attribute of functools or imported from it."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in _PROCESS_MEMOS \
                and isinstance(node.value, ast.Name) \
                and node.value.id == 'functools':
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == 'functools':
            found += [(node.lineno, a.name) for a in node.names
                      if a.name in _PROCESS_MEMOS]
    return sorted(found)


@pytest.mark.parametrize('path', sorted(glob.glob(os.path.join(SRC, '*.py'))),
                         ids=os.path.basename)
def test_no_process_wide_memo(path):
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    assert _process_memos(tree) == []


def test_detector_sees_process_memo():
    tree = ast.parse('import functools\nfrom functools import cache, wraps\n'
                     '@functools.lru_cache(maxsize=None)\ndef f(x):\n'
                     '    return x\n@functools.wraps(f)\ndef g(x):\n'
                     '    return x\n')
    assert _process_memos(tree) == [(2, 'cache'), (3, 'lru_cache')]


def _own_nodes(fn):
    # the nodes of a function, not descending into nested functions
    todo = [fn]
    while todo:
        node = todo.pop()
        yield node
        todo += [n for n in ast.iter_child_nodes(node)
                 if not isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef,
                                       ast.ClassDef))]


def _is_children_call(node) -> bool:
    return isinstance(node, ast.Call) and (
        isinstance(node.func, ast.Name) and node.func.id == 'children'
        or isinstance(node.func, ast.Attribute)
        and node.func.attr == 'children')


def _parallel_walks(tree: ast.Module) -> list:
    """(line, name) of each function that zips two children(...)
    sequences, called directly or bound to a local name first."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        nodes = list(_own_nodes(fn))
        local = set()
        for node in nodes:
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                pairs = [(target, node.value)]
                if isinstance(target, ast.Tuple) and \
                        isinstance(node.value, ast.Tuple):
                    pairs = zip(target.elts, node.value.elts)
                local.update(t.id for t, v in pairs
                             if isinstance(t, ast.Name) and _is_children_call(v))
        if any(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
               and node.func.id == 'zip'
               and sum(_is_children_call(a) or isinstance(a, ast.Name)
                       and a.id in local for a in node.args) >= 2
               for node in nodes):
            found.append((fn.lineno, fn.name))
    return sorted(found)


def test_one_parallel_structural_walk():
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, '*.py'))):
        with open(path) as fh:
            found += [(os.path.basename(path), name) for _, name in
                      _parallel_walks(ast.parse(fh.read(), path))]
    assert len(found) <= 1, found


def test_detector_sees_parallel_walk():
    tree = ast.parse(
        'def direct(a, b):\n'
        '    return all(f(p, q) for p, q in zip(children(a), children(b)))\n'
        'def named(a, b):\n'
        '    ka, kb = children(a), children(b)\n'
        '    return zip(ka, kb)\n'
        'def mixed(a, b):\n'
        '    kids = syntax.children(a)\n'
        '    return zip(kids, children(b))\n'
        'def outer(a, b):\n'
        '    def inner(u, v):\n'
        '        ku = children(u)\n'
        '        return zip(ku, children(v))\n'
        '    return inner(a, b)\n'
        'def single(a, xs):\n'
        '    ka = children(a)\n'
        '    return zip(ka, xs), zip(a.args, children(a))\n'
        'def method(a, b):\n'
        '    ka = a.children()\n'
        '    return zip(ka, b.children())\n')
    assert _parallel_walks(tree) == [(1, 'direct'), (3, 'named'),
                                     (6, 'mixed'), (10, 'inner'),
                                     (17, 'method')]


def _self_referring_closures(tree: ast.Module) -> list:
    """(line, name) of each function defined inside another function that
    names itself, in its own body or in a function nested in it.  Such a
    closure holds the cell that holds it, a reference cycle, so each call
    of the function that defines it leaves garbage to the collector; a
    recursive walk is a module-level function instead."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in _own_nodes(fn):
            for inner in ast.iter_child_nodes(node):
                if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and any(isinstance(n, ast.Name) and n.id == inner.name
                                and isinstance(n.ctx, ast.Load)
                                for n in ast.walk(inner)):
                    found.append((inner.lineno, inner.name))
    return sorted(found)


@pytest.mark.parametrize('path', sorted(glob.glob(os.path.join(SRC, '*.py'))),
                         ids=os.path.basename)
def test_no_closure_refers_to_itself(path):
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    assert _self_referring_closures(tree) == []


def test_detector_sees_self_referring_closure():
    tree = ast.parse(
        'def outer(x):\n'
        '    def go(y):\n'
        '        return go(y - 1) if y else 0\n'
        '    return go(x)\n'
        'def through_helper(x):\n'
        '    def walk(y):\n'
        '        def step(z):\n'
        '            return walk(z)\n'
        '        return step(y)\n'
        '    return walk(x)\n'
        'def top(n):\n'
        '    return top(n - 1)\n'
        'class C:\n'
        '    def m(self):\n'
        '        return self.m() or m\n'
        'def fine(x):\n'
        '    def helper(y):\n'
        '        return top(y)\n'
        '    go = helper\n'
        '    return go(x)\n')
    assert _self_referring_closures(tree) == [(2, 'go'), (6, 'walk')]


_READER_CALLS = frozenset(('strip_comment', 'splitlines'))


def _line_readers(tree: ast.Module) -> list:
    """(line, name) of each function, or (0, '<module>') for top-level
    code, that calls strip_comment or a splitlines method."""
    scopes = [tree] + [fn for fn in ast.walk(tree) if isinstance(
        fn, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return sorted(
        (getattr(scope, 'lineno', 0), getattr(scope, 'name', '<module>'))
        for scope in scopes
        if any(isinstance(node, ast.Call) and (
            isinstance(node.func, ast.Name) and node.func.id == 'strip_comment'
            or isinstance(node.func, ast.Attribute)
            and node.func.attr in _READER_CALLS)
            for node in _own_nodes(scope)))


def test_one_line_reader():
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, '*.py'))):
        with open(path) as fh:
            found += [(os.path.basename(path), name) for _, name in
                      _line_readers(ast.parse(fh.read(), path))]
    assert found == [('kernel.py', 'read_lines')]


def test_detector_sees_second_line_reader():
    tree = ast.parse(
        'def read_lines(text):\n'
        '    return [strip_comment(r) for r in text.splitlines()]\n'
        'def other(text):\n'
        '    for raw in text.splitlines():\n'
        '        yield raw\n'
        'def outer(text):\n'
        '    def inner(line):\n'
        '        return kernel.strip_comment(line)\n'
        '    return inner\n'
        'LINES = "a\\nb".splitlines()\n'
        'def fine(text):\n'
        '    return text.split(), strip_comment\n')
    assert _line_readers(tree) == [(0, '<module>'), (1, 'read_lines'),
                                   (3, 'other'), (7, 'inner')]


def _mp_steps(tree: ast.Module) -> list:
    """(line, name) of each function that passes the literal rule 'mp' to
    a call, as add(formula, 'mp', refs) or Step(i, formula, 'mp', ...)
    does, positionally or by keyword."""
    found = []
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                isinstance(node, ast.Call) and any(
                    isinstance(a, ast.Constant) and a.value == 'mp'
                    for a in node.args + [k.value for k in node.keywords])
                for node in _own_nodes(fn)):
            found.append((fn.lineno, fn.name))
    return sorted(found)


def test_only_detach_adds_an_mp_step():
    path = os.path.join(SRC, 'transforms.py')
    with open(path) as fh:
        found = _mp_steps(ast.parse(fh.read(), path))
    assert [name for _, name in found] == ['detach']


def test_detector_sees_second_mp_step():
    tree = ast.parse(
        'class _Build:\n'
        '    def detach(self, axiom, schema, *refs):\n'
        '        return self.add(axiom.b, "mp", refs)\n'
        'def chain(b, f, i, k):\n'
        '    def inner():\n'
        '        return b.add(f, rule="mp")\n'
        '    return b.add(f, "mp", (i, k)), Step(1, f, "mp", (), ())\n'
        'def fine(b, f, s):\n'
        '    return s.rule in ("mp", "prop"), b.add(f, "prop"), \\\n'
        '        b.add(f, s.rule)\n')
    assert _mp_steps(tree) == [(2, 'detach'), (4, 'chain'), (5, 'inner')]


def _inline_rule_names(tree: ast.Module) -> list:
    """Lines of each string literal 'inline', the name of the rule."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and node.value == 'inline')


def test_transforms_leave_inline_steps_to_the_kernel():
    path = os.path.join(SRC, 'transforms.py')
    with open(path) as fh:
        assert _inline_rule_names(ast.parse(fh.read(), path)) == []


def test_detector_sees_inline_rule_name():
    tree = ast.parse(
        '"""inline steps are expanded first"""\n'
        'def f(s):\n'
        '    return s.rule == "inline" and s.args[0] == "subst"\n'
        'RULES = ("mp", \'inline\')\n'
        'NOTE = "an inline step"\n')
    assert _inline_rule_names(tree) == [3, 4]


_RE_FUNCTIONS = frozenset(('match', 'fullmatch', 'search', 'sub', 'split',
                           'findall', 'finditer'))


def _inline_patterns(tree: ast.Module) -> list:
    """(line, name) of each call re.<name>(<string literal>, ...) inside a
    function.  Such a call looks its pattern up in re's cache, or compiles
    it, on every call; a module-level re.compile does that once."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in _own_nodes(fn):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in _RE_FUNCTIONS \
                    and isinstance(node.func.value, ast.Name) \
                    and node.func.value.id == 're' and node.args \
                    and isinstance(node.args[0], ast.Constant) \
                    and isinstance(node.args[0].value, str):
                found.append((node.lineno, node.func.attr))
    return sorted(found)


@pytest.mark.parametrize('path', sorted(glob.glob(os.path.join(SRC, '*.py'))),
                         ids=os.path.basename)
def test_no_pattern_literal_in_a_function(path):
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    assert _inline_patterns(tree) == []


def test_detector_sees_pattern_literal():
    tree = ast.parse(
        "import re\n"
        "_R = re.compile(r'a+')\n"
        "TOP = re.match('a', 'a')\n"
        "def f(s):\n"
        "    return re.match(r'^a', s) or _R.match(s)\n"
        "def g(s, pat):\n"
        "    def h(t):\n"
        "        return re.sub('a', '', t)\n"
        "    return re.findall(pat, s), re.split(',', s), s.split(',')\n")
    assert _inline_patterns(tree) == [(5, 'match'), (8, 'sub'), (9, 'split')]


def _dataclasses_imports(tree: ast.Module) -> list:
    """Lines that import dataclasses, or a name from it."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Import)
                  and any(a.name == 'dataclasses' for a in node.names)
                  or isinstance(node, ast.ImportFrom)
                  and node.module == 'dataclasses')


@pytest.mark.parametrize('path', sorted(glob.glob(os.path.join(SRC, '*.py'))),
                         ids=os.path.basename)
def test_no_dataclasses_import(path):
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    assert _dataclasses_imports(tree) == []


def test_detector_sees_dataclasses_import():
    tree = ast.parse('import os, dataclasses\n'
                     'from dataclasses import dataclass\n'
                     'from . import records\n')
    assert _dataclasses_imports(tree) == [1, 2]


def test_loading_the_package_skips_dataclasses_and_inspect():
    # -S: no site hooks, which may load either module themselves
    probe = ('import sys; sys.path.insert(0, %r); '
             'import justfix.cli, justfix.corpus; '
             'print(sorted({"dataclasses", "inspect"} & set(sys.modules)))'
             % os.path.dirname(SRC))
    out = subprocess.run([sys.executable, '-S', '-c', probe], check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == '[]'


def test_loading_the_package_compiles_only_the_record_shapes():
    # every start compiles what it generates, so the only source text that
    # justfix code hands to compile, exec or eval as the package loads is
    # one per record shape; the import system's own compiles of the
    # modules, and those of the standard library, are not counted
    probe = '\n'.join((
        'import builtins, sys',
        'sys.path.insert(0, %r)' % os.path.dirname(SRC),
        'calls = []',
        'def counted(fn):',
        '    def call(source, *args, **kw):',
        '        caller = sys._getframe(1).f_globals.get("__name__", "")',
        '        if isinstance(source, (str, bytes)) and \\',
        '                caller.partition(".")[0] == "justfix":',
        '            calls.append(fn.__name__)',
        '        return fn(source, *args, **kw)',
        '    return call',
        'for name in ("compile", "exec", "eval"):',
        '    setattr(builtins, name, counted(getattr(builtins, name)))',
        'import justfix.cli, justfix.corpus, justfix.syntax',
        'print(len(calls), len(justfix.syntax._COMPILED))'))
    out = subprocess.run([sys.executable, '-S', '-c', probe], check=True,
                         capture_output=True, text=True).stdout.split()
    assert int(out[1]) > 0
    assert out[0] == out[1]


# CPython 3.11's parser doubles its token array as a file passes this many
# tokens, which raises the peak memory of compiling it.  kernel.py is
# above it (ROADMAP item 12); every other module is below, and stays so
_TOKEN_STEP = 8192
_ABOVE_TOKEN_STEP = {'kernel.py'}


def _sizes(tree: str) -> dict:
    """What tools/size.py --json prints for tree."""
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, 'tools', 'size.py'), tree,
         '--json'], check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def test_modules_stay_below_the_token_step():
    sizes = _sizes(ROOT)
    assert set(sizes) == {os.path.basename(p)
                          for p in glob.glob(os.path.join(SRC, '*.py'))}
    assert {name for name, n in sizes.items()
            if n['tokens'] >= _TOKEN_STEP} <= _ABOVE_TOKEN_STEP


def test_size_counts_lines_and_code_tokens(tmp_path):
    pkg = tmp_path / 'src' / 'justfix'
    pkg.mkdir(parents=True)
    # NAME OP NUMBER NEWLINE, then the docstring's STRING NEWLINE, and
    # ENDMARKER; the comment and the blank line are not tokens
    (pkg / 'm.py').write_text('x = 1  # one\n\n"""doc\nstring"""\n')
    assert _sizes(str(tmp_path)) == {'m.py': {'lines': 4, 'tokens': 7}}
