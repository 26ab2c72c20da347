"""Closed-form identities that move an inverse to a related modulus.

Every operation here computes its result from previously known inverses,
with no inversion modulo the target, and is designed to be swept against
:func:`modrecip.core.inverse` exhaustively.  Each starts from inverses taken
with :func:`modrecip.core.inverse` (or, for both inverses of a pair,
:func:`modrecip.core.inverse_pair`) and lets their ZeroOperandError and
NotCoprimeError through unchanged.  The identities of a quadruple of
operands live in :mod:`modrecip.quad`.
"""


from .core import DomainError, InvariantError, ZeroOperandError, inverse, inverse_pair, sign


def shift_invariance(a: int, b: int, k: int) -> int:
    """Inverse of k*a + b modulo a, from the inverse of b alone.

    For |a| > 1 the shift changes nothing; for |a| = 1 a sign correction
    (sgn(k*a+b) - sgn(b)) / 2 applies.
    """
    if a == 0 or b == 0 or k * a + b == 0:
        raise ZeroOperandError("shift_invariance needs a, b and k*a+b nonzero")
    inv_b = inverse(b, a)
    if abs(a) > 1:
        return inv_b
    return inv_b + (sign(k * a + b) - sign(b)) // 2


def reduce_inverse_plus(a: int, b: int, k: int) -> int:
    """Inverse of a modulo k*a + b, as k*(a - inv(b mod a)) + inv(a mod b)."""
    if abs(a) == 1:
        raise DomainError("|a| = 1 is excluded from the reduction identities")
    if k * a + b == 0:
        raise ZeroOperandError("target modulus is zero")
    inv_a_mod_b, inv_b_mod_a = inverse_pair(a, b)
    return k * (a - inv_b_mod_a) + inv_a_mod_b


def reduce_inverse_minus(a: int, b: int, k: int) -> int:
    """Inverse of a modulo k*a - b, as k*inv(b mod a) - (b - inv(a mod b)): the plus form at -b,
    since inv(-b mod a) = a - inv(b mod a) and inv(a mod -b) = inv(a mod b) - b, units included."""
    return reduce_inverse_plus(a, -b, k)


def square_inverse(a: int, b: int) -> int:
    """Inverse of b**2 modulo a**2, evaluated two ways and cross-checked.

    Both forms are polynomial in inv(b mod a):
      ((b*i - 2) * i)**2  and  (3 - 2*b*i) * i**2,  reduced mod a**2.
    """
    if abs(a) <= 1:
        raise DomainError("square_inverse needs |a| > 1")
    i = inverse(b, a)
    bi, mm = b * i, a * a
    form1 = ((bi - 2) * i % mm) ** 2 % mm
    form2 = (3 - 2 * bi) * i * i % mm
    if form1 != form2:
        raise InvariantError("the two square-inverse forms disagree")
    return form1
