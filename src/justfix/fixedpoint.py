"""Fixed-point operators over guarded propositional positions.

An operator declaration names a defined connective delta, a recursion
variable p, a parameter list, and a body in the base language.  The body
must mention p only in guarded positions (which guard counts depends on
the host logic: boxed for modal logics, under a justification term for
JL, under an existentially quantified justification for QLP) and every
other atom of the body must be listed as a parameter.

The axiom attached to a declaration is the biconditional

    delta(args) <-> body[p := delta(args), params := args]

produced by simultaneous substitution.  Checking whether a formula is an
instance of this axiom is deliberately more liberal than re-building it:
images under justification-term substitution must still be recognized,
so the right-hand side may differ from the rebuilt body by a uniform
substitution of terms for the body's free justification variables (see
registry.sigma_match).
"""

from typing import Optional, Sequence

from .syntax import (
    Formula, Iff, Mu, FixApp,
    OCCURRENCE_MODES, occurrence_ok, free_atoms, walk,
    NotFreeFor, subst_prop_multi, record,
)
from .registry import sigma_match


class FixedPointError(Exception):
    pass


@record
class FPOperator:
    name: str
    var: str                      # recursion variable
    params: tuple                 # parameter atom names, in order
    body: Formula                 # base-language body
    mode: str                     # occurrence discipline the body satisfies


def make_operator(name: str, var: str, params: Sequence[str], body: Formula,
                  mode: str) -> FPOperator:
    """Validate and freeze an operator declaration."""
    if mode not in OCCURRENCE_MODES:
        raise FixedPointError("unknown occurrence mode %r" % mode)
    params = tuple(params)
    if len(set(params)) != len(params):
        raise FixedPointError("duplicate parameter in %r" % (params,))
    if var in params:
        raise FixedPointError("recursion variable %r listed as parameter" % var)
    for node in walk(body):
        if isinstance(node, (Mu, FixApp)):
            raise FixedPointError(
                "operator body must be in the base language, found %s"
                % type(node).__name__)
    if not occurrence_ok(body, var, mode):
        raise FixedPointError(
            "recursion variable %r not %s in operator body" % (var, mode))
    loose = free_atoms(body) - {var} - set(params)
    if loose:
        raise FixedPointError(
            "body atoms %s not covered by parameters" % sorted(loose))
    return FPOperator(name, var, params, body, mode)


def _unfold(op: FPOperator, head: Formula, args: Sequence[Formula],
            boxed: bool = False) -> Formula:
    """body[p := head, params := args]; boxed demands a boxed recursion."""
    args = tuple(args)
    if len(args) != len(op.params):
        raise FixedPointError(
            "%s expects %d arguments, got %d"
            % (op.name, len(op.params), len(args)))
    if boxed and not occurrence_ok(op.body, op.var, 'modalized'):
        raise FixedPointError(
            "explicit definability only applies to boxed recursion")
    env = {op.var: head}
    env.update(zip(op.params, args))
    try:
        return subst_prop_multi(op.body, env)
    except NotFreeFor as ex:
        raise FixedPointError("%s: %s" % (op.name, ex)) from None


def fp_axiom(op: FPOperator, args: Sequence[Formula]) -> Formula:
    """The defining biconditional for op at the given argument formulas."""
    head = FixApp(op.name, tuple(args))
    return Iff(head, _unfold(op, head, head.args))


def fp_axiom_instance(op: FPOperator, f: Formula) -> Optional[dict]:
    """Recognize f as (a term-substitution image of) the defining axiom.

    Returns the witnessing substitution on the body's free justification
    variables (empty dict for the strict axiom itself), or None.  The
    argument formulas are read off the left-hand head, so images whose
    arguments were themselves rewritten are accepted too.
    """
    if not (isinstance(f, Iff) and isinstance(f.a, FixApp)
            and f.a.name == op.name):
        return None
    try:
        base = _unfold(op, f.a, f.a.args)
    except FixedPointError:   # wrong arity, or a captured argument
        return None
    return sigma_match(base, f.b)


def gl_obligation(op: FPOperator, candidate: Formula,
                  args: Sequence[Formula]) -> Formula:
    """Explicit-definability obligation for a boxed-position operator: the
    candidate formula must satisfy candidate <-> body[p := candidate].
    The returned biconditional is what a kernel check must accept."""
    return Iff(candidate, _unfold(op, candidate, args, boxed=True))
