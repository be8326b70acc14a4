import glob
import importlib.util
import os
import sys

import hypothesis.strategies as st
import pytest

from justfix import registry, syntax
from justfix.kernel import load_derivation, parse_derivation
from justfix.syntax import (And, App, Atom, Bang, Box, Const, Exists, Falsum,
                            FixApp, Forall, Iff, Imp, Just, Knows, Neg, Or,
                            Prim, TSum, UAll, Var, Xor)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS = os.path.join(ROOT, 'corpus')


def corpus_paths(suffix='.drv'):
    return sorted(glob.glob(os.path.join(CORPUS, '*' + suffix)))


def perfbench_gen(name: str):
    """perfbench/gen.py, the benchmark's input generator, loaded read-only
    under the module name name."""
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(ROOT, 'perfbench', 'gen.py'))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses looks the module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture(autouse=True)
def no_memo_outlives_a_test():
    """The table of kernel.memo_scope is None after each test, so a scope
    left open fails the test that leaked it."""
    yield
    assert registry._DECISIONS is None, 'a memo scope outlived the test'


@pytest.fixture(scope='session')
def corpus_derivations():
    return {os.path.basename(p)[:-4]: load_derivation(p)
            for p in corpus_paths()}


class CountedKinds:
    """Counts the constructions of nodes: it wraps the store that sets a
    node's kinds mask (see syntax._facts_source), which the __init__ of
    every node calls once, and records each node whose facts are set,
    holding the node so that no id is reused.  The store is the
    _set__kinds of each node class's exec globals (see syntax.record), the
    __set__ of its _kinds slot."""

    def __init__(self):
        self.computed = []

    def counting(self, store):
        def counted(node, kinds):
            self.computed.append(node)
            store(node, kinds)
        return counted


@pytest.fixture
def counted_kinds(monkeypatch):
    """A CountedKinds installed in the __init__ of every node class."""
    counted = CountedKinds()
    for cls in syntax._KIND_BITS:
        env = cls.__init__.__globals__
        monkeypatch.setitem(env, '_set__kinds',
                            counted.counting(env['_set__kinds']))
    return counted


class BDDWork:
    """The work of the tautology engine: misses, the build calls that
    miss their BDD's seen memo (a formula object that BDD has not built
    yet), and tables, every BDD made while it was installed."""

    def __init__(self):
        self.misses, self.tables = 0, []

    @property
    def nodes(self) -> int:
        """The nodes stored in those tables, the false leaf aside."""
        return sum(len(t.nodes) - 1 for t in self.tables)


@pytest.fixture
def bdd_work(monkeypatch):
    """A BDDWork installed on registry._BDD."""
    work = BDDWork()

    def build(self, f, fn=registry._BDD.build):
        work.misses += id(f) not in self.seen
        return fn(self, f)

    def made(self, fn=registry._BDD.__init__):
        fn(self)
        work.tables.append(self)

    monkeypatch.setattr(registry._BDD, 'build', build)
    monkeypatch.setattr(registry._BDD, '__init__', made)
    return work


def node_objects(roots):
    """Every distinct node object under roots, the terms of justifications
    included."""
    seen, todo = {}, list(roots)
    while todo:
        g = todo.pop()
        if id(g) not in seen:
            seen[id(g)] = g
            todo += g.children()
            if isinstance(g, Just):
                todo.append(g.t)
    return list(seen.values())


# -- formula strategies -------------------------------------------------------

ATOM_NAMES = ('p', 'q', 'r', 'E1', 'E2')
atoms = st.sampled_from(ATOM_NAMES).map(Atom)


def _bool_layer(children):
    return st.one_of(
        children.map(Neg),
        st.tuples(children, children).map(lambda ab: And(*ab)),
        st.tuples(children, children).map(lambda ab: Or(*ab)),
        st.tuples(children, children).map(lambda ab: Imp(*ab)),
        st.tuples(children, children).map(lambda ab: Iff(*ab)),
        st.tuples(children, children).map(lambda ab: Xor(*ab)),
    )


def bool_formulas(max_leaves=8, leaves=atoms):
    return st.recursive(leaves | st.just(Falsum()), _bool_layer,
                        max_leaves=max_leaves)


def modal_formulas(max_leaves=8):
    return st.recursive(
        atoms | st.just(Falsum()),
        lambda ch: _bool_layer(ch) | ch.map(Box),
        max_leaves=max_leaves)


lp_terms = st.recursive(
    st.sampled_from(('x', 'y', 'z')).map(Var)
    | st.sampled_from(('c', 'd')).map(Const),
    lambda ch: st.one_of(
        st.tuples(ch, ch).map(lambda ab: App(*ab)),
        st.tuples(ch, ch).map(lambda ab: TSum(*ab)),
        ch.map(Bang)),
    max_leaves=4)


def jl_formulas(max_leaves=8):
    return st.recursive(
        atoms | st.just(Falsum()),
        lambda ch: _bool_layer(ch)
        | st.tuples(lp_terms, ch).map(lambda tf: Just(tf[0], None, tf[1])),
        max_leaves=max_leaves)


qlp_terms = st.recursive(
    st.sampled_from(('x', 'y', 'z')).map(Var)
    | st.builds(Prim, st.sampled_from(('f', 'g')),
                st.lists(st.sampled_from(('x', 'y')),
                         max_size=2).map(tuple)),
    lambda ch: st.one_of(
        st.tuples(ch, ch).map(lambda ab: App(*ab)),
        st.tuples(ch, ch).map(lambda ab: TSum(*ab)),
        ch.map(Bang),
        st.tuples(ch, st.sampled_from(('x', 'y'))).map(
            lambda tv: UAll(tv[0], tv[1]))),
    max_leaves=4)


def qlp_formulas(max_leaves=8):
    return st.recursive(
        atoms | st.just(Falsum()),
        lambda ch: _bool_layer(ch)
        | st.tuples(qlp_terms, ch).map(lambda tf: Just(tf[0], None, tf[1]))
        | st.tuples(st.sampled_from(('x', 'y')), ch).map(
            lambda vf: Forall(vf[0], vf[1]))
        | st.tuples(st.sampled_from(('x', 'y')), ch).map(
            lambda vf: Exists(vf[0], vf[1])),
        max_leaves=max_leaves)


def timed_formulas(max_leaves=8):
    return st.recursive(
        atoms | st.just(Falsum()),
        lambda ch: _bool_layer(ch)
        | st.tuples(st.integers(0, 9), ch).map(
            lambda tf: Knows(tf[0], tf[1])),
        max_leaves=max_leaves)


def with_fix(formulas):
    """formulas, and fix applications over them."""
    return st.recursive(
        formulas, lambda ch: st.lists(ch, max_size=3).map(
            lambda xs: FixApp('d', tuple(xs))),
        max_leaves=4)


def any_formulas(max_leaves=8):
    return st.one_of(bool_formulas(max_leaves), modal_formulas(max_leaves),
                     jl_formulas(max_leaves), qlp_formulas(max_leaves),
                     timed_formulas(max_leaves))


# -- generated LP derivations -------------------------------------------------

LP_AXIOM_INSTANCES = (
    'x : p -> p',
    'y : q -> q',
    'x : (p & q) -> p & q',
    'x : p -> ! x : x : p',
    'y : (q -> r) -> ! y : y : (q -> r)',
    's : (p -> q) -> (t : p -> s * t : q)',
    'x : p -> x + y : p',
    'y : q -> x + y : q',
    '((p -> q) -> p) -> p',
)


def lp_sample_derivations():
    """Premise-free LP_TCS derivations in three shapes: weakening after
    axiom necessitation, conjunction of axioms, and one jk application
    round."""
    texts = []
    for a in LP_AXIOM_INSTANCES:
        texts.append(
            "logic: LP\nspec: tcs\n\n"
            f"1. {a} ; ax\n"
            f"2. c : ({a}) ; ian\n"
            f"3. ({a}) -> (r -> ({a})) ; prop\n"
            f"4. r -> ({a}) ; mp 1 3\n")
    for a, b in zip(LP_AXIOM_INSTANCES, LP_AXIOM_INSTANCES[1:]):
        texts.append(
            "logic: LP\nspec: tcs\n\n"
            f"1. {a} ; ax\n"
            f"2. {b} ; ax\n"
            f"3. ({a}) & ({b}) ; prop 1 2\n")
    for w in ('p', 'q', 'p -> p', 'p & q', 'q | r'):
        texts.append(
            "logic: LP\nspec: tcs\n\n"
            f"1. c : (({w}) -> ({w})) ; ian\n"
            f"2. c : (({w}) -> ({w})) -> (x : ({w}) -> c * x : ({w})) "
            "; ax jk\n"
            f"3. x : ({w}) -> c * x : ({w}) ; mp 1 2\n")
    return [parse_derivation(t) for t in texts]
