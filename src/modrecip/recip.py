"""The reciprocity identity and the inversion algorithm built on it.

For coprime nonzero a, b the identity reads

    a * inv(a mod b) + b * inv(b mod a) = 1 + a*b

and it stays exact for unit operands because of the signed closed form
in :func:`modrecip.core.unit_inverse`.  Its corollary, the reduction
identity, lifts both inverses of a Euclid pair one level up with no
division, which yields a full inversion algorithm that never runs the
extended Euclidean algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    InvariantError,
    InverseFailure,
    InverseOutcome,
    inverse,
    unit_inverse,
)

# Euclid needs about 1.44 * bits reduction steps in the Fibonacci worst
# case; 3 * bits plus slack for the initial reduction is a safe ceiling.
_STEP_SLACK = 4


@dataclass(frozen=True)
class ReciprocityReport:
    """Both inverses and both sides of the identity for one pair."""

    a: int
    b: int
    inv_a_mod_b: int
    inv_b_mod_a: int
    lhs: int  # a*inv_a_mod_b + b*inv_b_mod_a
    rhs: int  # 1 + a*b
    k: int  # multiplier with lhs = 1 + k*a*b
    holds: bool


def reciprocity_check(a: int, b: int) -> ReciprocityReport:
    """Recompute both inverses and report whether lhs = 1 + a*b exactly."""
    inv_a = inverse(a, b)
    inv_b = inverse(b, a)
    lhs = a * inv_a + b * inv_b
    rhs = 1 + a * b
    k, rem = divmod(lhs - 1, a * b)
    if rem:
        raise InvariantError("lhs - 1 must be a multiple of a*b")
    return ReciprocityReport(
        a=a,
        b=b,
        inv_a_mod_b=inv_a,
        inv_b_mod_a=inv_b,
        lhs=lhs,
        rhs=rhs,
        k=k,
        holds=lhs == rhs,
    )


def inverse_via_reciprocity(a: int, m: int) -> InverseOutcome:
    """Invert a modulo m by a Euclid descent and a division-free climb.

    The descent writes x = q*y + r with floor remainders, starting from
    (x, y) = (a, m), and keeps each level's (q, y) until |y| = 1.  There
    both inverses of the pair are closed forms: P = inv(x mod y) is the
    signed unit value and S = inv(y mod x) is y mod x.  The climb carries
    (P, S) back up one level at a time with the reduction identity

        inv(y mod q*y + r) = q*(y - inv(r mod y)) + inv(y mod r),

    so each level costs one small-by-large multiply and no division, and
    the route is quadratic in the operand width.  It never runs the
    extended Euclidean algorithm.  The result is checked before it is
    returned, with a check that ``python -O`` keeps.
    """
    if a == 0 or m == 0:
        return InverseOutcome(failure=InverseFailure.ZERO_OPERAND)
    max_steps = 3 * min(abs(a), abs(m)).bit_length() + _STEP_SLACK
    levels: list[tuple[int, int]] = []  # (q, y), outermost first
    x, y = a, m
    while abs(y) != 1:
        q, r = divmod(x, y)
        if r == 0:
            return InverseOutcome(failure=InverseFailure.NOT_COPRIME)
        levels.append((q, y))
        if len(levels) > max_steps:
            raise InvariantError("reduction exceeded the Euclid step bound")
        x, y = y, r
    p, s = unit_inverse(x, y), y % x
    for q, y in reversed(levels):
        # one level up, inv(x mod y) = inv(r mod y) is the old S
        p, s = s, q * (y - s) + p
    if (a * p - 1) % m or not (0 <= p <= m or m <= p <= 0):
        raise InvariantError("reciprocity climb did not end on the windowed inverse")
    return InverseOutcome(result=p)


def solve_diophantine(a: int, m: int) -> tuple[int, int]:
    """Solve a*x - k*m = 1; x is the windowed inverse, k the cofactor."""
    x = inverse(a, m)
    k, rem = divmod(a * x - 1, m)
    if rem:
        raise InvariantError("a*x - 1 must be a multiple of m")
    return x, k
