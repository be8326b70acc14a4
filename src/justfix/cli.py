"""Command line front end.

Verbs: check, parse, print, transform, fp, model, corpus, logics.  Exit
status 0 on success, 1 on a failed check, 2 on usage errors.  Output is
line oriented and timestamp free.
"""

from __future__ import annotations

import sys

from .fixedpoint import FixedPointError, fp_axiom
from .kernel import (DerivationError, check_derivation, format_report,
                     load_derivation, memo_scope, parse_fix_decl,
                     parse_spec_value, print_derivation)
from .registry import UnknownLogic, get_logic, known_logics
from .semantics import (ModelError, check_evidence_conditions, check_model,
                        is_valid, load_model)
from .syntax import (ParseError, PositivityError, ProfileError,
                     parse_formula, parse_term, print_formula, print_term,
                     replace)
from . import corpus as corpus_mod
from . import transforms


def _retarget(d, args):
    if getattr(args, 'logic', None):
        d = replace(d, logic_id=args.logic)
    spec = getattr(args, 'spec', None)
    if spec:
        src = spec if spec in ('tcs', 'empty') else 'file %s' % spec
        d = replace(d, spec=parse_spec_value(src, get_logic(d.logic_id), ''),
                    spec_src=src)
    return d


@memo_scope()
def _cmd_check(args) -> int:
    d = _retarget(load_derivation(args.file), args)
    rep = check_derivation(d)
    if not args.quiet or not rep.ok:
        print(format_report(rep, verbose=args.verbose))
    return 0 if rep.ok else 1


def _cmd_parse(args) -> int:
    if args.file.endswith('.mdl'):
        m = load_model(args.file)
        print('parsed: model logic=%s domain=%s claims=%d'
              % (m.logic_id, ','.join(m.domain), len(m.claims)))
        return 0
    d = _retarget(load_derivation(args.file), args)
    print('parsed: logic=%s steps=%d premises=%d final=%s'
          % (d.logic_id, len(d.steps), len(d.premises),
             print_formula(d.steps[-1].formula)))
    return 0


def _cmd_print(args) -> int:
    d = _retarget(load_derivation(args.file), args)
    sys.stdout.write(print_derivation(d))
    return 0


# each verb: the words after <file>, and the transform, called with the
# derivation and those words
_TRANSFORMS = {
    'deduce': (('<premise>',), transforms.deduction),
    'lift': ((), transforms.lift),
    'internalize': ((), transforms.internalize_qlp),
    'subst': (('<var>', '<term>'), lambda d, x, t: transforms.substitute_proof(
        d, x, parse_term(t, get_logic(d.logic_id).profile))),
    'jug': (('<var>',), transforms.jug),
    'project': ((), transforms.project_derivation),
    'collapse': ((), transforms.collapse_derivation),
}


# one memo scope per command, so a transform's own check of its input and
# its expansion of the input's inline steps share the images they build
@memo_scope()
def _cmd_transform(args) -> int:
    d = _retarget(load_derivation(args.file), args)
    words, transform = _TRANSFORMS[args.verb]
    if len(args.args) != len(words):
        print('usage: justfix transform %s' % ' '.join(
            (args.verb, '<file>') + words), file=sys.stderr)
        raise SystemExit(2)
    out = transform(d, *args.args)
    if isinstance(out, transforms.LiftResult):
        print('# term: %s' % print_term(out.term))
        out = out.derivation
    sys.stdout.write(print_derivation(out))
    return 0


def _cmd_fp(args) -> int:
    logic = get_logic(args.logic)
    decl = args.decl if args.decl.startswith('fix ') else 'fix ' + args.decl
    op = parse_fix_decl(decl, logic)
    fargs = tuple(parse_formula(a, logic.profile) for a in args.args)
    print(print_formula(fp_axiom(op, fargs)))
    return 0


def _cmd_model(args) -> int:
    m = load_model(args.file)
    logic = get_logic(m.logic_id)
    if args.verb == 'valid':
        claims = m.claims
        if args.formula:
            claims = (parse_formula(args.formula, logic.profile),)
        if not claims:
            raise ModelError('model file has no validity claims')
        bad = 0
        for c in claims:
            ok = is_valid(m, c)
            bad += not ok
            if not args.quiet or not ok:
                tag = 'valid' if ok else 'not valid'
                print(tag if args.formula else '%s %s'
                      % (tag, print_formula(c)))
        return 0 if not bad else 1
    if args.verb == 'conditions':
        problems = check_evidence_conditions(m, depth=args.depth)
    else:
        problems = check_model(m, depth=args.depth)
    for p in problems:
        print(p)
    if not problems and not args.quiet:
        print('ok')
    return 0 if not problems else 1


def _cmd_corpus(args) -> int:
    rep = corpus_mod.run_corpus(args.pattern)
    if not args.quiet:
        print(rep.render())
    else:
        for r in rep.results:
            if not r.ok:
                print(r.line)
    return 0 if rep.ok else 1


def _cmd_logics(args) -> int:
    for name in known_logics():
        if name == 'Sacchetti-n':
            print('Sacchetti-n  (template: Sacchetti-2, Sacchetti-3, ...)')
            continue
        logic = get_logic(name)
        print('%-12s family=%-5s axioms=%s rules=%s'
              % (name, logic.family,
                 ','.join(a.name for a in logic.axioms),
                 ','.join(sorted(logic.rules))))
    return 0


def _parser() -> argparse.ArgumentParser:
    # imported here, not at the top: no verdict needs it, and importing it
    # takes milliseconds that every import of this module would pay
    import argparse
    p = argparse.ArgumentParser(prog='justfix')
    p.add_argument('--quiet', action='store_true')
    sub = p.add_subparsers(dest='cmd', required=True)

    def common(sp, spec=True):
        sp.add_argument('--logic', help='retarget at another logic id')
        if spec:
            sp.add_argument('--spec', help='tcs, empty, or a spec file path')

    sp = sub.add_parser('check', help='kernel-check a derivation file')
    sp.add_argument('file')
    sp.add_argument('--verbose', action='store_true')
    common(sp)
    sp.set_defaults(fn=_cmd_check)

    sp = sub.add_parser('parse', help='parse a derivation or model file')
    sp.add_argument('file')
    common(sp)
    sp.set_defaults(fn=_cmd_parse)

    sp = sub.add_parser('print', help='reprint a derivation file')
    sp.add_argument('file')
    common(sp)
    sp.set_defaults(fn=_cmd_print)

    sp = sub.add_parser('transform', help='apply a proof transformation')
    sp.add_argument('verb', choices=_TRANSFORMS)
    sp.add_argument('file')
    sp.add_argument('args', nargs='*')
    common(sp)
    sp.set_defaults(fn=_cmd_transform)

    sp = sub.add_parser('fp', help='instantiate a fixed-point axiom')
    sp.add_argument('decl', help='fix <name> <var> (<params>) := <body>')
    sp.add_argument('args', nargs='*', help='argument formulas')
    sp.add_argument('--logic', default='K(FP)')
    sp.set_defaults(fn=_cmd_fp)

    sp = sub.add_parser('model', help='evaluate a model file')
    sp.add_argument('verb', choices=['valid', 'conditions', 'check'])
    sp.add_argument('file')
    sp.add_argument('formula', nargs='?')
    sp.add_argument('--depth', type=int, default=2,
                    help='consequent-closure bound for condition checks')
    sp.set_defaults(fn=_cmd_model)

    sp = sub.add_parser('corpus', help='run the bundled corpus')
    sp.add_argument('verb', choices=['run'])
    sp.add_argument('pattern', nargs='?', default='*')
    sp.set_defaults(fn=_cmd_corpus)

    sp = sub.add_parser('logics', help='registry contents')
    sp.add_argument('verb', choices=['list'])
    sp.set_defaults(fn=_cmd_logics)
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (DerivationError, ParseError, ProfileError, PositivityError,
            ModelError, FixedPointError, UnknownLogic,
            transforms.TransformError,
            corpus_mod.CorpusError, OSError) as ex:
        print('error: %s' % ex, file=sys.stderr)
        return 1
    except RecursionError:
        # the parser bounds nesting itself; a later pass that recurses past
        # it ends here.  On a flat 1,000-atom prop step that is printing
        # (hash and == recurse as deep), not the tautology engine: --quiet
        # check of the same file exits 0.  See ROADMAP item 3
        print('error: formula nested too deeply', file=sys.stderr)
        return 1


if __name__ == '__main__':
    sys.exit(main())
