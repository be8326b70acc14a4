"""The record classes, frozen.

golden/records.json holds, for each record class of justfix (the formula
and term nodes, LanguageProfile and the records of the other modules):
its field names in order, the repr of each field's default, whether it
is frozen and whether it is hashable, and the repr of one sample
instance.  For a deliberate change, regenerate it with

    PYTHONPATH=src python tests/test_records.py

The other tests pin what syntax.record gives every class: == and hash
agree, a record refuses assignment and deletion, one that holds a list
or a dict is unhashable, positional match patterns take records apart,
replace copies a record and refuses an unknown field, copy.copy,
copy.deepcopy and a pickle round trip give an equal frozen record, and
an instance holds its fields and declared extras in slots, with no
__dict__.
"""

import copy
import json
import os
import pickle

import pytest

from justfix import (corpus, fixedpoint, kernel, registry, semantics,
                     syntax, transforms)
from justfix.syntax import (
    Atom, Falsum, Neg, And, Or, Imp, Iff, Xor, Box, Knows, Just, Forall,
    Exists, Mu, FixApp, FMeta, Var, Const, Prim, App, TSum, Bang, Quest,
    WQuest, UAll, TMeta, LanguageProfile, PositivityError, record, replace,
)

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      'golden', 'records.json')
MODULES = (syntax, kernel, registry, fixedpoint, transforms, semantics,
           corpus)


def _samples() -> dict:
    """One instance of every record class, keyed 'module.Class'.  Their
    reprs hold no addresses and no set of more than one element, so they
    do not depend on the run."""
    p, q, x = Atom('p'), Atom('q'), Var('x')
    prof = LanguageProfile('prop', frozenset({'Atom'}), frozenset(), 'single')
    logic = registry.LogicSpec('K', 'modal', prof, (), frozenset({'mp'}),
                               None, False, None, False)
    spec = registry.Spec('explicit', frozenset({p}))
    step = kernel.Step(1, p, 'prop', (2,), ('x',))
    d = kernel.Derivation('K', spec, 'cs1', ('a',), (), (), (step,))
    verdict = kernel.StepVerdict(1, False, 'no', ('note',))
    ev = semantics.EvEntry('a', 'r', (('x', 'r'),), p)
    entry = corpus.EntryResult('id', True, 'id: ok')
    made = [
        Var('x'), Const('c'), Prim('f', ('x', 'y')), App(Const('c'), x),
        TSum(Const('c'), x), Bang(x), Quest(x), WQuest(x), UAll(x, 'x'),
        TMeta('t'),
        p, Falsum(), Neg(p), And(p, q), Or(p, q), Imp(p, q), Iff(p, q),
        Xor(p, q), Box(p), Knows(1, p), Just(x, 'a', p), Forall('x', p),
        Exists('x', p), Mu('p', p), FixApp('d', (p,)), FMeta('A'), prof,
        kernel.Premise('k', p), step, d, verdict,
        kernel.CheckReport(True, logic, [verdict], {1: frozenset({'k'})},
                           p, ('note',)),
        kernel._Context(d, logic, len, {1: frozenset()}, None, ['note']),
        kernel.Rule('mp', ('refs',), 'usage', None, (2, 2), False, 'refs',
                    'refs', None),
        registry.AxiomSchema('K', len), logic, spec,
        fixedpoint.FPOperator('d', 'p', ('q',), Box(p), 'modalized'),
        transforms.LiftResult(x, d), ev,
        semantics.MModel(('o',), {'c': 'o'}, (ev,), {'q': True}, True,
                         'QLP', spec, 'cs1', ('a',), (p,)),
        corpus.CorpusEntry('id', 'id.drv', 'drv', 'p', True, ('deduce',)),
        entry, corpus.Report((entry,)),
    ]
    return {_key(type(r)): r for r in made}


def _key(cls) -> str:
    return '%s.%s' % (cls.__module__.rsplit('.', 1)[-1], cls.__name__)


def _record_classes() -> dict:
    """Every class a justfix module defines that positional match
    patterns can take apart, keyed 'module.Class'."""
    return {_key(c): c for mod in MODULES for c in vars(mod).values()
            if isinstance(c, type) and c.__module__ == mod.__name__
            and hasattr(c, '__match_args__')}


def _is_frozen(r) -> bool:
    """Does assigning to r raise?  It stores the value the field already
    holds, so the sample is left as it was."""
    name = r.__match_args__[0] if r.__match_args__ else 'probe'
    try:
        setattr(r, name, getattr(r, name, None))
    except AttributeError:
        return True
    return False


def _defaults(cls) -> dict:
    """The defaults of cls's fields, read from the parameters of the
    __init__ that syntax.record generates."""
    init = cls.__init__
    params = init.__code__.co_varnames[1:init.__code__.co_argcount]
    values = init.__defaults__ or ()
    return dict(zip(params[len(params) - len(values):], values))


def _describe(cls, sample) -> dict:
    fields = list(cls.__match_args__)
    return {
        'fields': fields,
        'defaults': {f: repr(v) for f, v in _defaults(cls).items()},
        'frozen': _is_frozen(sample),
        'hashable': cls.__hash__ is not None,
        'sample': repr(sample),
    }


def _record() -> dict:
    samples = _samples()
    return {k: _describe(cls, samples[k])
            for k, cls in sorted(_record_classes().items())}


@pytest.fixture(scope='module')
def golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


def test_every_record_class_has_a_sample():
    assert sorted(_samples()) == sorted(_record_classes())
    assert len(_record_classes()) == 44


def test_records_match_golden(golden):
    assert _record() == golden


@pytest.mark.parametrize('key', sorted(_record_classes()))
def test_record_contract(key):
    cls = _record_classes()[key]
    a, b = _samples()[key], _samples()[key]
    fields = cls.__match_args__
    assert a == b and not a != b and a.__eq__(object()) is NotImplemented
    assert replace(a) == a and replace(a) is not a
    try:
        field_hash = hash(tuple(getattr(a, f) for f in fields))
    except TypeError:               # a field holds a list or a dict
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == field_hash
    for name in fields + ('_other',):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b


@pytest.mark.parametrize('key', sorted(_record_classes()))
def test_copies_are_equal_and_frozen(key):
    a = _samples()[key]
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(b) is type(a) and b == a and repr(b) == repr(a)
        assert _is_frozen(b)
        if isinstance(a, (syntax.Formula, syntax.Term)):
            assert b._kinds == a._kinds


@pytest.mark.parametrize('key', sorted(_record_classes()))
def test_slots_are_the_fields_and_declared_extras(key):
    cls, a = _record_classes()[key], _samples()[key]
    if isinstance(a, (syntax.Formula, syntax.Term)):
        extras = ('_kinds',)
    elif cls is LanguageProfile:
        extras = ('_admitted',)
    else:
        extras = ()
    assert cls.__slots__ == cls.__match_args__ + extras
    assert not hasattr(a, '__dict__')
    for name in extras:
        getattr(a, name)            # set by __init__ or __post_init__


def test_equality_is_per_class():
    p = Atom('p')
    assert Neg(p) != Box(p) and Neg(p).__eq__(Box(p)) is NotImplemented
    assert And(p, p) != Or(p, p)
    assert Falsum() == Falsum() and hash(Falsum()) == hash(())
    assert Atom('p') != Atom('q') and Prim('f') == Prim('f', ())


def test_positional_match():
    step = kernel.Step(3, Atom('p'), 'mp', (1, 2))
    match step:
        case kernel.Step(i, f, rule, refs, args):
            assert (i, f, rule, refs, args) == (3, Atom('p'), 'mp', (1, 2), ())
    match Just(Var('x'), None, Neg(Atom('q'))):
        case Just(Var(v), None, Neg(Atom(n))):
            assert (v, n) == ('x', 'q')
        case _:
            pytest.fail('Just did not match')


def test_replace():
    s = kernel.Step(1, Atom('p'), 'ax')
    assert replace(s, rule='prop', refs=(2,)) == kernel.Step(
        1, Atom('p'), 'prop', (2,))
    with pytest.raises(TypeError):
        replace(s, rul='prop')
    # replace runs __init__, so a mu body is checked again
    with pytest.raises(PositivityError):
        replace(Mu('p', Atom('p')), a=Neg(Atom('p')))


def test_each_class_is_built_by_one_exec(monkeypatch):
    calls = []

    def counting_exec(*args):
        calls.append(args[0])
        return exec(*args)

    monkeypatch.setattr(syntax, 'exec', counting_exec, raising=False)

    @record
    class Pair:
        left: object
        right: object = None

    @record
    class Cell:
        value: object

    assert len(calls) == 2
    assert repr(Pair(1)).endswith('.Pair(left=1, right=None)')
    assert Pair(1) == Pair(1) != Pair(2)
    assert Cell([1]) == Cell([1])
    with pytest.raises(TypeError):
        hash(Cell([1]))


if __name__ == '__main__':
    with open(GOLDEN, 'w') as fh:
        json.dump(_record(), fh, indent=1, sort_keys=True)
        fh.write('\n')
