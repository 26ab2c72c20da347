"""The reciprocity identity and the inversion algorithm built on it.

For coprime nonzero a, b the identity reads

    a * inv(a mod b) + b * inv(b mod a) = 1 + a*b

and it stays exact for unit operands because of the signed closed form
in :func:`modrecip.core.unit_inverse`.  Its corollary, the reduction
identity, lifts both inverses of a Euclid pair one level up with no
division.  That yields a full inversion algorithm,
:func:`inverse_via_reciprocity`: a Euclid descent that keeps only its
quotients, then a climb that builds every inverse back up from the unit
closed form.  It never runs the extended Euclidean algorithm, in the sense
that no Bezout cofactor is carried down alongside the remainders.  On wide
operands the descent runs in Lehmer batches, one 2x2 matrix per batch of
about twenty nearest-remainder quotients.  The climb ends on both inverses
of the pair, :func:`reciprocal_pair`, and the identity itself certifies
them: two multiplications and no division.  The route is quadratic in the
operand width, with a constant small enough that :func:`modrecip.core.inverse`
and :func:`modrecip.core.inverse_pair` use it in place of the built-in
``pow`` above about 1,700 bits.

:func:`reciprocity_check` takes its report class from the package's lazy
exports, ``modrecip.ReciprocityReport``, so importing this module loads no :mod:`dataclasses`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import modrecip

from .core import (
    InvariantError,
    InverseFailure,
    InverseOutcome,
    inverse,
    inverse_pair,
    unit_inverse,
)

if TYPE_CHECKING:
    from .reports import ReciprocityReport

# Euclid needs about 1.44 * bits reduction steps in the Fibonacci worst
# case; 3 * bits plus slack for the initial reduction is a safe ceiling.
_STEP_SLACK = 4

# Lehmer batches read this many leading bits of the pair and stop once the
# window remainder falls below _HALF.  Stopping four bits above half the
# window leaves a margin over the error of the dropped low bits; Jebelean
# (ISSAC 1995) gives the exact stop rule this approximates.  In 58 random
# inversions at 4096-16384 bits, 2 of about 8,000 batches gave way to a
# full step.  A 240-bit window halves the batches, but each window quotient
# costs more: per call it lost 1-2% at 4096 bits and gained 3-6% at
# 8192-16384, so the window stays at 120 bits.
_WINDOW_BITS = 120
_HALF = 1 << (_WINDOW_BITS // 2 + 4)


def reciprocity_check(a: int, b: int) -> ReciprocityReport:
    """Recompute both inverses and report whether lhs = 1 + a*b exactly."""
    inv_a = inverse(a, b)
    inv_b = inverse(b, a)
    lhs = a * inv_a + b * inv_b
    rhs = 1 + a * b
    k, rem = divmod(lhs - 1, a * b)
    if rem:
        raise InvariantError("lhs - 1 must be a multiple of a*b")
    return modrecip.ReciprocityReport(
        a=a,
        b=b,
        inv_a_mod_b=inv_a,
        inv_b_mod_a=inv_b,
        lhs=lhs,
        rhs=rhs,
        k=k,
        holds=lhs == rhs,
    )


def _batched_descent(x: int, y: int) -> tuple[int, int, list[tuple[int, int, int, int]]] | None:
    """Euclid descent of x, y > 0, batched on leading bits, until y fits the window.

    Each batch runs Euclid on the top _WINDOW_BITS of the pair (Lehmer's
    method; Knuth, TAOCP vol. 2, 4.5.2, Algorithm L) until the window
    remainder falls below _HALF, then applies the quotients as one matrix to
    the full pair.  The window takes nearest remainders: a floor remainder
    above half the divisor is replaced by the divisor minus it, one
    quotient more with the sign flipped, which cuts the quotients per
    inversion by about 30%.  Each matrix then has determinant 1 or -1, and
    the transposed climb of :func:`reciprocal_pair` accepts either.  A
    batch that does not leave 0 < y' < x' <= y, or has no quotient, gives
    way to one full divmod step.  Returns the pair reached
    and the step matrices (u0, v0, u1, v1), outermost first, each taking the
    pair (x, y) above it to (u0*x + v0*y, u1*x + v1*y); None when a
    remainder vanishes, which is a shared factor.
    """
    max_steps = 3 * min(x, y).bit_length() + _STEP_SLACK
    steps = []
    if x < y:
        x, y = y, x
        steps.append((0, 1, 1, 0))
    while y.bit_length() > _WINDOW_BITS:
        if len(steps) > max_steps:
            raise InvariantError("reduction exceeded the Euclid step bound")
        shift = x.bit_length() - _WINDOW_BITS
        xh = x0 = x >> shift
        yh = y0 = y >> shift
        v0, v1 = 0, 1  # window remainder i is u_i*x0 + v_i*y0
        while yh > _HALF:
            q, r = divmod(xh, yh)
            if r + r > yh:  # nearest remainder: one quotient past, sign flipped
                xh, yh = yh, yh - r
                v0, v1 = v1, (q + 1) * v1 - v0
            else:
                xh, yh = yh, r
                v0, v1 = v1, v0 - q * v1
        if v0:
            u0, u1 = (xh - v0 * y0) // x0, (yh - v1 * y0) // x0
            nx, ny = u0 * x + v0 * y, u1 * x + v1 * y
            if 0 < ny < nx <= y:
                steps.append((u0, v0, u1, v1))
                x, y = nx, ny
                continue
        q, r = divmod(x, y)
        if r == 0:
            return None
        steps.append((0, 1, 1, -q))
        x, y = y, r
    return x, y, steps


def reciprocal_pair(a: int, m: int) -> tuple[int, int] | None:
    """(inv(a mod m), inv(m mod a)) for nonzero a, m, both certified by the identity.

    The descent writes x = q*y + r with floor remainders, starting from
    (x, y) = (a, m), and keeps each level's (q, y) until |y| = 1.  There
    both inverses of the pair are closed forms: P = inv(x mod y) is the
    signed unit value and S = inv(y mod x) is y mod x.  The climb carries
    (P, S) back up one level at a time with the reduction identity

        inv(y mod q*y + r) = q*(y - inv(r mod y)) + inv(y mod r),

    so each level costs one small-by-large multiply and no division.

    When both operands are wider than _WINDOW_BITS, the descent from
    (|a|, |m|) first runs in Lehmer batches (:func:`_batched_descent`), each
    recorded as one matrix, until the smaller operand fits the window; the
    per-level descent and climb above take over from there.  At that pair
    (U, V) = (P, S - x) is a Bezout pair, x*U + y*V = 1, and the transpose
    of each batch matrix carries it one batch up; one reduction modulo m
    and one modulo a put the top U and V into their windows.  A batch
    replaces about twenty big divisions with eight small-by-large multiplies
    (four down, four up).

    Either way the climb ends on both inverses of (a, m), and the identity
    a*P + m*S = 1 + a*m, with P and S in their windows, certifies the two
    together for two multiplications and no division.  The check raises
    InvariantError, so ``python -O`` keeps it.  Returns None when a
    remainder vanishes, which is a shared factor.
    """
    x, y, batches = a, m, []
    if a.bit_length() > _WINDOW_BITS and m.bit_length() > _WINDOW_BITS:
        descent = _batched_descent(abs(a), abs(m))
        if descent is None:
            return None
        x, y, batches = descent
    x_top = x  # the pair the batches reached, if any
    max_steps = 3 * min(abs(x), abs(y)).bit_length() + _STEP_SLACK
    levels: list[tuple[int, int]] = []  # (q, y), outermost first
    while abs(y) != 1:
        q, r = divmod(x, y)
        if r == 0:
            return None
        levels.append((q, y))
        if len(levels) > max_steps:
            raise InvariantError("reduction exceeded the Euclid step bound")
        x, y = y, r
    # |x| = 1 as well only when the pair is two units from the start
    p, s = unit_inverse(x, y), y % x if abs(x) > 1 else unit_inverse(y, x)
    for q, y in reversed(levels):
        # one level up, inv(x mod y) = inv(r mod y) is the old S
        p, s = s, q * (y - s) + p
    if batches:
        u, v = p, s - x_top
        for u0, v0, u1, v1 in reversed(batches):
            u, v = u0 * u + u1 * v, v0 * u + v1 * v
        p, s = (u if a > 0 else -u) % m, (v if m > 0 else -v) % a
    # a*p + m*s = 1 + a*m, one product fewer
    if a * p + m * (s - a) != 1 or not (0 <= p <= m or m <= p <= 0) or not (
            0 <= s <= a or a <= s <= 0):
        raise InvariantError("reciprocity climb did not end on the identity's windowed pair")
    return p, s


def inverse_via_reciprocity(a: int, m: int) -> InverseOutcome:
    """Invert a modulo m by a Euclid descent and a division-free climb.

    The value is the first of :func:`reciprocal_pair`, whose docstring has
    the algorithm.  No cofactor is carried down the descent: every inverse
    is built on the way back up from the unit closed form.
    """
    if a == 0 or m == 0:
        return InverseOutcome(failure=InverseFailure.ZERO_OPERAND)
    pair = reciprocal_pair(a, m)
    if pair is None:
        return InverseOutcome(failure=InverseFailure.NOT_COPRIME)
    return InverseOutcome(result=pair[0])


def solve_diophantine(a: int, m: int) -> tuple[int, int]:
    """Solve a*x - k*m = 1; x is the windowed inverse, k the cofactor.

    With x = inv(a mod m) and y = inv(m mod a), the identity a*x + m*y =
    1 + a*m gives k = a - y, so both come from :func:`modrecip.core.inverse_pair`,
    certified there, with no division of their own.
    """
    x, y = inverse_pair(a, m)
    return x, a - y
