"""Corpus runner: the manifest is the frozen record of what each entry
must prove, so these tests mostly pin that record and exercise the
runner's failure paths with fabricated entries."""

import os

import pytest

from justfix import corpus, kernel, registry, syntax, transforms
from justfix.corpus import (CorpusEntry, CorpusError, FALSUM_IDS, MANIFEST,
                            corpus_dir, run_corpus, run_entry)
from justfix.kernel import load_derivation
from justfix.syntax import replace

from conftest import CORPUS, node_objects


def test_manifest_ids_unique():
    ids = [e.id for e in MANIFEST]
    assert len(ids) == len(set(ids))


def test_manifest_paths_exist():
    for e in MANIFEST:
        assert (corpus_dir() / e.path).is_file(), e.path


def test_manifest_covers_corpus_dir():
    # every checked file on disk is claimed by exactly one entry
    on_disk = {p for p in os.listdir(CORPUS)
               if p.endswith(('.drv', '.mdl'))}
    claimed = {e.path for e in MANIFEST}
    assert claimed == on_disk


def test_manifest_kinds():
    for e in MANIFEST:
        assert e.kind in ('drv', 'mdl')
        assert e.path.endswith('.' + e.kind)
        if e.kind == 'mdl':
            assert e.final is None and not e.falsum and not e.post


def test_falsum_ids_pinned():
    assert FALSUM_IDS == ('modal-knower', 'modal-examiner', 'modal-believer',
                          'jl-knower', 'jl-believer', 'qlp-knower',
                          'qlp-examiner', 'ts4-bot')
    for e in MANIFEST:
        if e.falsum:
            assert e.final == 'false'


@pytest.mark.parametrize('entry', MANIFEST, ids=lambda e: e.id)
def test_entry(entry):
    res = run_entry(entry)
    assert res.ok, res.line
    assert res.id == entry.id
    if entry.kind == 'mdl':
        assert res.line == '%s: ok model' % entry.id
    else:
        assert res.line == '%s: ok final=%s' % (entry.id, entry.final)


def test_run_corpus_all():
    rep = run_corpus()
    assert rep.ok
    assert [r.id for r in rep.results] == [e.id for e in MANIFEST]
    lines = rep.render().splitlines()
    assert len(lines) == len(MANIFEST)
    for line, e in zip(lines, MANIFEST):
        assert line.startswith(e.id + ': ok')


def test_run_corpus_resolves_the_corpus_directory_once(monkeypatch):
    calls = []

    def counted(fn=corpus.corpus_dir):
        calls.append(1)
        return fn()

    monkeypatch.setattr(corpus, 'corpus_dir', counted)
    assert run_corpus('cm-*').ok
    assert len(calls) == 1


def test_run_corpus_selection():
    rep = run_corpus('qlp-*')
    ids = [r.id for r in rep.results]
    assert ids == ['qlp-knower', 'qlp-examiner', 'qlp-oneday',
                   'qlp-twoday', 'qlp-blindspot']
    rep = run_corpus('cm-*')
    assert all(r.line.endswith('ok model') for r in rep.results)
    assert len(rep.results) == 4


def test_run_corpus_single():
    rep = run_corpus('ts4-bot')
    assert len(rep.results) == 1
    assert rep.results[0].line == 'ts4-bot: ok final=false'


def test_run_corpus_no_match():
    with pytest.raises(CorpusError):
        run_corpus('nonexistent-*')


# -- failure paths, via fabricated entries over real files ----------------

def _tweak(eid, **kw):
    base = next(e for e in MANIFEST if e.id == eid)
    return replace(base, **kw)


def test_wrong_final_reported():
    res = run_entry(_tweak('jd-lemma', final='p'))
    assert not res.ok
    assert 'FAIL final is s : ~p -> ~t : p, expected p' in res.line


def test_falsum_claim_on_non_falsum():
    res = run_entry(_tweak('jd-lemma', final=None, falsum=True))
    assert not res.ok
    assert 'expected falsum' in res.line


def test_missing_file_reported():
    res = run_entry(CorpusEntry('ghost', 'ghost.drv', 'drv', 'p'))
    assert not res.ok
    assert res.line.startswith('ghost: FAIL')


def test_unknown_post_op_reported():
    res = run_entry(_tweak('jd-lemma', post=(('frobnicate',),)))
    assert not res.ok
    assert 'CorpusError' in res.line


def test_wrong_projection_target_reported():
    res = run_entry(_tweak('jd-lemma', post=(('project', 'S5'),)))
    assert not res.ok
    assert 'projection targets D, expected S5' in res.line


def test_retarget_step_pin_enforced():
    # qlp-knower's refusal is pinned at step 10; demand a different step
    res = run_entry(_tweak('qlp-knower', post=(('refused', 'QLP-(FP)', 3),)))
    assert not res.ok
    assert 'fails at step 10, expected 3' in res.line


def test_retarget_must_fail():
    # a derivation that still checks under the retarget logic is an error
    res = run_entry(_tweak('gl-lob-fp', post=(('refused', 'GL(FP)', 1),)))
    assert not res.ok
    assert 'still checks' in res.line


# -- one check per derivation and entry ------------------------------------

def test_each_entry_checks_each_derivation_once(monkeypatch):
    steps = dict.fromkeys((e.id for e in MANIFEST), 0)
    current = []

    def counted(*args, fn=kernel._check_step):
        steps[current[-1]] += 1
        return fn(*args)

    monkeypatch.setattr(kernel, '_check_step', counted)
    for e in MANIFEST:
        current.append(e.id)
        assert run_entry(e).ok
    # re-checking what the entry had already checked took 1,344 step
    # checks per pass, 112 of them on ts4-bot; checking again the steps
    # a cone or an image shares with a derivation checked before took 740
    assert sum(steps.values()) <= 688
    assert steps['ts4-bot'] <= 68


def test_each_entry_decides_each_query_once(bdd_work):
    misses = {}
    for e in MANIFEST:
        before = bdd_work.misses
        assert run_entry(e).ok
        misses[e.id] = bdd_work.misses - before
    # a query asked again in an entry builds no formula object anew: the
    # scope's BDD has each one in its seen memo.  848 misses per pass, 109
    # of them on ts4-bot and 106 on ts4-surprise.  The bound was 820 while
    # project and collapse made equal image nodes one object through a
    # table; the 28 misses more are images equal to ones built before,
    # and building them costs less than the table that saved them
    assert sum(misses.values()) <= 848
    assert misses['ts4-bot'] <= 109
    assert misses['ts4-surprise'] <= 106


def test_manifest_pass_apply_calls(monkeypatch):
    calls = dict.fromkeys((e.id for e in MANIFEST), 0)
    current = []

    def counted(*args, fn=registry._BDD.apply):
        calls[current[-1]] += 1
        return fn(*args)

    monkeypatch.setattr(registry._BDD, 'apply', counted)
    for e in MANIFEST:
        current.append(e.id)
        assert run_entry(e).ok
    # with a negation pass per ~ and no terminal rules, a pass took 21,243
    # apply calls, 4,664 of them on ts4-bot; with a BDD per query, 5,419
    # and 1,065
    assert sum(calls.values()) <= 3000
    assert calls['ts4-bot'] <= 500


def test_manifest_pass_bdd_nodes(monkeypatch):
    tables = {e.id: [] for e in MANIFEST}
    current = []

    def made(self, fn=registry._BDD.__init__):
        fn(self)
        tables[current[-1]].append(self)

    monkeypatch.setattr(registry._BDD, '__init__', made)
    for e in MANIFEST:
        current.append(e.id)
        assert run_entry(e).ok
    # every entry builds its queries on one table: none adds past
    # registry._GROWTH nodes to what the entry built before.  A BDD per
    # query stored 2,767 nodes per pass
    assert max(map(len, tables.values())) == 1
    assert sum(len(b.nodes) - 1 for t in tables.values() for b in t) <= 1000


def test_manifest_pass_profile_facts(counted_kinds):
    for e in MANIFEST:
        assert run_entry(e).ok
    # the facts are set at construction, so this counts every node built
    # in a pass.  Parsing each formula apart computed the facts of 12,097
    # nodes per pass, and projecting each copy of a subformula apart
    # 3,333.  Counted by construction, a pass built 2,044 nodes while the
    # rules built the node they compare a step with, 1,817 while _de, _reg
    # and the deduction round trip still did, and builds 1,800
    assert len(counted_kinds.computed) <= 2000


# the node objects of each entry's image.  A tree recursion built
# jl-believer's from 1,445 node objects for 100 contents.  While project
# and collapse made equal image nodes one object through a table, each
# image held one object per content (jl-believer 100, jl-knower 32,
# jd-lemma 22); each input node object is still mapped once, but equal
# images of different input objects stay different objects, as building
# them costs less than the table that found them
_IMAGE_NODES = {'jl-believer': 155, 'jl-knower': 53, 'jd-lemma': 25,
                'qlp-blindspot': 26, 'mu-trivial': 18, 'egl-fp': 10}


@pytest.mark.parametrize('entry, op', [
    (e, op[0]) for e in MANIFEST for op in e.post
    if op[0] in ('project', 'collapse')], ids=lambda v: getattr(v, 'id', v))
def test_transform_images_build_each_node_once(entry, op):
    d = load_derivation(str(corpus_dir() / entry.path))
    out = (transforms.project_derivation if op == 'project'
           else transforms.collapse_derivation)(d)
    objs = node_objects(s.formula for s in out.steps)
    assert len(objs) <= _IMAGE_NODES[entry.id]


def test_manifest_pass_parse_work(monkeypatch):
    counts = {'node': 0, 'tokens': 0}

    def counted(fn):
        def build(self, *fields):
            counts['node'] += 1
            return fn(self, *fields)
        return build

    def tokenize(text, fn=syntax._tokenize):
        toks, close = fn(text)
        counts['tokens'] += len(toks)
        return toks, close

    # node builds every node but the binary ones, which binary builds
    for name in ('node', 'binary'):
        monkeypatch.setattr(syntax._Parser, name,
                            counted(getattr(syntax._Parser, name)))
    monkeypatch.setattr(syntax, '_tokenize', tokenize)
    for e in MANIFEST:
        assert run_entry(e).ok
    # parsing every repeated group again made 9,824 node calls per pass;
    # the group memo scans no token more than that parse did
    assert counts['node'] <= 4000
    assert counts['tokens'] <= 15953


@pytest.mark.parametrize('entry', [
    MANIFEST[0],
    CorpusEntry('ghost', 'ghost.drv', 'drv', 'p'),
    _tweak('ts4-bot', post=(('deduce',), ('frobnicate',))),
], ids=['ok', 'missing-file', 'unknown-post-op'])
def test_memo_is_gone_after_run_entry(entry):
    run_entry(entry)
    assert registry._DECISIONS is None
