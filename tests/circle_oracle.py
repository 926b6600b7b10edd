"""Scalar oracles for the array form of Lemma 3.1, one field element at a time.

suites._lemma31 checks the lemma on whole subgroup orbits with no scalar loop;
these solve the same equations element by element, through FieldCtx's scalar
arithmetic, for the tests to compare against.
"""

from naive_oracle import on_unit_circle

from walshlab.gf2n import DivisionByZero, xor_columns


def solve_artin_schreier(ctx, d: int) -> set[int]:
    """Roots of y^2 + y = d: a 2-element coset, or empty when tr(d) = 1."""
    if ctx.tr_abs(d):
        return set()
    y = xor_columns(ctx.artin_schreier_cols(), d)
    return {y, y ^ 1}


def solve_circle_equation(ctx, a: int) -> tuple:
    """Unit-circle roots of 1 + a*z + conj(a)/z = 0, ascending (empty if none).

    Through the polar form a = a0*a1 (a0 in the subfield, a1 on the circle)
    this reduces to w + 1/w = 1/a0 with z = w/a1, which has two circle roots
    exactly when tr_sub(a0) = 1.  Since a0^2 = a * conj(a) and
    tr_sub(a0) = tr_sub(a0^2), the roots are v/a for the two solutions of
    v^2 + v = a * conj(a), and exist when tr_sub(a * conj(a)) = 1.
    """
    if a == 0:
        raise DivisionByZero("the circle equation needs a != 0")
    norm = ctx.mul(a, ctx.conjugate(a))
    if ctx.tr_sub(norm) != 1:
        return ()
    inv_a = ctx.inv(a)
    roots = tuple(sorted(ctx.mul(v, inv_a) for v in solve_artin_schreier(ctx, norm)))
    for z in roots:
        residual = ctx.mul(a, ctx.sq(z)) ^ z ^ ctx.conjugate(a)
        if residual or not on_unit_circle(ctx, z):
            raise ArithmeticError("circle-equation solver produced a bad root")
    return roots
