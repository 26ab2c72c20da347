"""The reciprocity identity and its two applications.

For coprime nonzero a, b the identity reads

    a * inv(a mod b) + b * inv(b mod a) = 1 + a*b

and it stays exact for unit operands because of the signed closed form
in :func:`modrecip.core.unit_inverse`.  :func:`reciprocity_check` evaluates
both sides for the certified pair of :func:`modrecip.core.inverse_pair`.
Its corollary, the reduction identity, lifts both inverses of a Euclid pair
one level up with no division, and :func:`modrecip.core.reciprocal_pair`
inverts by climbing it.  The identity's two applications build on that climb:
:func:`inverse_via_reciprocity` returns its first value as an outcome, and
:func:`solve_diophantine` reads the cofactor of a*x - k*m = 1 off the pair.
"""


from dataclasses import dataclass

from .core import InverseOutcome, _outcome, inverse_pair, reciprocal_pair


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
    """Report whether lhs = 1 + a*b exactly for the pair of :func:`modrecip.core.inverse_pair`."""
    inv_a, inv_b = inverse_pair(a, b)
    lhs, ab = a * inv_a + b * inv_b, a * b
    rhs = 1 + ab
    k = (lhs - 1) // ab
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
    """Invert a modulo m by the reciprocity climb, with its failures as an outcome.

    The value is the first of :func:`modrecip.core.reciprocal_pair`, whose
    docstring has the algorithm.
    """
    return _outcome(lambda a, m: reciprocal_pair(a, m)[0], a, m)


def solve_diophantine(a: int, m: int) -> tuple[int, int]:
    """Solve a*x - k*m = 1; x is the windowed inverse, k the cofactor.

    With x = inv(a mod m) and y = inv(m mod a), the identity a*x + m*y =
    1 + a*m gives k = a - y, so both come from :func:`modrecip.core.inverse_pair`,
    certified there, with no division of their own.
    """
    x, y = inverse_pair(a, m)
    return x, a - y
