"""The checked corpus: every derivation and countermodel in corpus/ with
its frozen expectation, plus a runner.

Each entry records the exact final formula (as printed) and any follow-up
obligations: inconsistency entries must end in falsum, premise-bearing
entries must survive a deduction round trip, translatable entries must
re-check after projection or agent collapse, and the negative controls
must fail at a pinned step when retargeted at the weaker logic.
"""

from __future__ import annotations

import fnmatch
import pathlib

from .kernel import (Derivation, Step, check_derivation, load_derivation,
                     memo_scope)
from .semantics import check_model, load_model
from .syntax import Falsum, Imp, print_formula, record, replace
from . import transforms


class CorpusError(Exception):
    pass


@record
class CorpusEntry:
    id: str
    path: str
    kind: str                 # 'drv' or 'mdl'
    final: str | None = None  # printed final formula (drv only)
    falsum: bool = False
    post: tuple = ()          # ('deduce',), ('project', logic),
                              # ('collapse', logic), ('refused', logic, step)


MANIFEST = (
    CorpusEntry('jd-lemma', 'jd-lemma.drv', 'drv',
                's : ~p -> ~t : p', post=(('project', 'D'),)),
    CorpusEntry('modal-knower', 'modal-knower.drv', 'drv', 'false',
                falsum=True),
    CorpusEntry('modal-examiner', 'modal-examiner.drv', 'drv', 'false',
                falsum=True),
    CorpusEntry('modal-believer', 'modal-believer.drv', 'drv', 'false',
                falsum=True),
    CorpusEntry('jl-knower', 'jl-knower.drv', 'drv', 'false',
                falsum=True, post=(('project', 'T(FP)'),)),
    CorpusEntry('jl-believer', 'jl-believer.drv', 'drv', 'false',
                falsum=True, post=(('project', 'D4(FP)'),)),
    CorpusEntry('egl-fp', 'egl-fp.drv', 'drv',
                'c * t : (t : p -> p) <-> t : p',
                post=(('project', 'GL'),)),
    CorpusEntry('gl-lob-fp', 'gl-lob-fp.drv', 'drv',
                '[]([]p -> p) <-> []p'),
    CorpusEntry('qlp-knower', 'qlp-knower.drv', 'drv', 'false',
                falsum=True, post=(('refused', 'QLP-(FP)', 10),)),
    CorpusEntry('qlp-examiner', 'qlp-examiner.drv', 'drv', 'false',
                falsum=True, post=(('refused', 'QLP-(FP)', 11),)),
    CorpusEntry('qlp-oneday', 'qlp-oneday.drv', 'drv', '~fix(d; E)'),
    CorpusEntry('qlp-twoday', 'qlp-twoday.drv', 'drv', '~fix(d; E1, E2)'),
    CorpusEntry('qlp-blindspot', 'qlp-blindspot.drv', 'drv',
                '~ex y . y :@s (E & ~ex x . x :@s E)',
                post=(('collapse', 'QLP-'),)),
    CorpusEntry('tk-surprise', 'tk-surprise.drv', 'drv', '~E2',
                post=(('deduce',),)),
    CorpusEntry('tt-surprise', 'tt-surprise.drv', 'drv', '~E2',
                post=(('deduce',),)),
    CorpusEntry('ts4-surprise', 'ts4-surprise.drv', 'drv', '~E1',
                post=(('deduce',),)),
    CorpusEntry('ts4-bot', 'ts4-bot.drv', 'drv', 'false',
                falsum=True, post=(('deduce',),)),
    CorpusEntry('tmel-dist', 'tmel-dist.drv', 'drv',
                'K@1 (p & q) -> K@2 p & K@2 q'),
    CorpusEntry('gl-fitch7', 'gl-fitch7.drv', 'drv', '~fix(d; E1, E2)'),
    CorpusEntry('gl-fitch16', 'gl-fitch16.drv', 'drv', '~fix(d; E1, E2)'),
    CorpusEntry('gl-fitch18', 'gl-fitch18.drv', 'drv',
                'fix(d; E1, E2) <-> ~[]fix(d; E1, E2)'),
    CorpusEntry('mu-trivial', 'mu-trivial.drv', 'drv',
                '(q -> mu p . q | x : p) & ((mu p . q | p) <-> q)',
                post=(('project', 'K(mu)'),)),
    CorpusEntry('cm-13', 'cm-13.mdl', 'mdl'),
    CorpusEntry('cm-14', 'cm-14.mdl', 'mdl'),
    CorpusEntry('cm-15', 'cm-15.mdl', 'mdl'),
    CorpusEntry('cm-16', 'cm-16.mdl', 'mdl'),
)

FALSUM_IDS = tuple(e.id for e in MANIFEST if e.falsum)


def corpus_dir() -> pathlib.Path:
    return pathlib.Path(__file__).resolve().parents[2] / 'corpus'


@record
class EntryResult:
    id: str
    ok: bool
    line: str


@record
class Report:
    results: tuple

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def render(self) -> str:
        return '\n'.join(r.line for r in self.results)


def _deduce_roundtrip(d: Derivation) -> str | None:
    """Fold out each premise in turn, then reintroduce it by MP; the
    recovered conclusion must be the original one."""
    goal = d.steps[-1].formula
    for prem in d.premises:
        dd = transforms.deduction(d, prem.name)
        rep = check_derivation(dd)
        if not rep.ok:
            return 'deduction over %s rejected at step %s: %s' % (
                (prem.name,) + rep.first_failure)
        f = dd.steps[-1].formula
        if type(f) is not Imp or (f.a, f.b) != (prem.formula, goal):
            return 'deduction over %s has final %s' % (
                prem.name, print_formula(f))
        n = len(dd.steps)
        back = replace(
            dd,
            premises=dd.premises + (prem,),
            steps=dd.steps + (
                Step(n + 1, prem.formula, 'premise', (), (prem.name,)),
                Step(n + 2, goal, 'mp', (n + 1, n), ()),
            ))
        rep = check_derivation(back)
        if not rep.ok:
            return 'MP after deduction over %s rejected at step %s: %s' % (
                (prem.name,) + rep.first_failure)
    return None


# the post-ops that map d to an image which must re-check at a named logic:
# the transform, and the words of the failure messages
_IMAGES = {
    'project': (transforms.project_derivation, 'projection', 'projected'),
    'collapse': (transforms.collapse_derivation, 'collapse', 'collapsed'),
}


def _run_post(entry: CorpusEntry, d: Derivation) -> str | None:
    for op in entry.post:
        if op[0] == 'deduce':
            err = _deduce_roundtrip(d)
            if err:
                return err
        elif op[0] in _IMAGES:
            transform, noun, participle = _IMAGES[op[0]]
            img = transform(d)
            if img.logic_id != op[1]:
                return '%s targets %s, expected %s' % (
                    noun, img.logic_id, op[1])
            rep = check_derivation(img)
            if not rep.ok:
                return '%s image rejected at step %s: %s' % (
                    (participle,) + rep.first_failure)
        elif op[0] == 'refused':
            rt = replace(d, logic_id=op[1])
            rep = check_derivation(rt)
            if rep.ok:
                return 'still checks when retargeted at %s' % op[1]
            idx, _ = rep.first_failure
            if idx != op[2]:
                return 'retarget at %s fails at step %d, expected %d' % (
                    op[1], idx, op[2])
        else:
            raise CorpusError('unknown post-op %r' % (op[0],))
    return None


@memo_scope()
def run_entry(entry: CorpusEntry, root=None) -> EntryResult:
    """Check one entry and its follow-up obligations in one memo scope, so
    the obligations reuse what the check of the entry built."""
    path = (pathlib.Path(root) if root else corpus_dir()) / entry.path
    try:
        if entry.kind == 'mdl':
            problems = check_model(load_model(str(path)))
            if problems:
                return EntryResult(entry.id, False, '%s: FAIL %s' % (
                    entry.id, '; '.join(problems)))
            return EntryResult(entry.id, True, '%s: ok model' % entry.id)
        d = load_derivation(str(path))
        rep = check_derivation(d)
        if not rep.ok:
            return EntryResult(entry.id, False, '%s: FAIL step %s: %s' % (
                (entry.id,) + rep.first_failure))
        got = print_formula(d.steps[-1].formula)
        if entry.final is not None and got != entry.final:
            return EntryResult(entry.id, False,
                               '%s: FAIL final is %s, expected %s' % (
                                   entry.id, got, entry.final))
        if entry.falsum and not isinstance(d.steps[-1].formula, Falsum):
            return EntryResult(entry.id, False,
                               '%s: FAIL expected falsum' % entry.id)
        err = _run_post(entry, d)
        if err:
            return EntryResult(entry.id, False,
                               '%s: FAIL %s' % (entry.id, err))
        return EntryResult(entry.id, True, '%s: ok final=%s' % (entry.id, got))
    except Exception as ex:
        return EntryResult(entry.id, False,
                           '%s: FAIL %s: %s' % (entry.id, type(ex).__name__, ex))


def run_corpus(selection: str = '*', root=None) -> Report:
    chosen = [e for e in MANIFEST if fnmatch.fnmatch(e.id, selection)]
    if not chosen:
        raise CorpusError('no corpus entry matches %r' % selection)
    root = root or corpus_dir()             # resolved once per run
    return Report(tuple(run_entry(e, root) for e in chosen))
