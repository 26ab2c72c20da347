"""Closed-form identities that move an inverse to a related modulus.

Every operation here computes its result from previously known inverses,
with no inversion modulo the target (:func:`quad_pair_inverses` runs one
``math.gcd(u, v)``, only to decide whether its sum flags apply), and is
designed to be swept against :func:`modrecip.core.inverse` exhaustively.  Each
starts from inverses taken with :func:`modrecip.core.inverse` (or, for
both inverses of a pair, :func:`modrecip.core.inverse_pair`) and lets
their ZeroOperandError and NotCoprimeError through unchanged.

:func:`quad_pair_inverses` takes its report class from the package's lazy
exports, ``modrecip.QuadPairReport``, so importing this module loads no :mod:`dataclasses`.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import modrecip

from .core import (
    DomainError,
    InvariantError,
    NotCoprimeError,
    ZeroOperandError,
    inverse,
    inverse_pair,
    sign,
)

if TYPE_CHECKING:
    from .reports import QuadPairReport


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
    return _reduce_inverse(a, b, k, plus=True)


def reduce_inverse_minus(a: int, b: int, k: int) -> int:
    """Inverse of a modulo k*a - b, as k*inv(b mod a) - (b - inv(a mod b))."""
    return _reduce_inverse(a, b, k, plus=False)


def _reduce_inverse(a: int, b: int, k: int, plus: bool) -> int:
    if abs(a) == 1:
        raise DomainError("|a| = 1 is excluded from the reduction identities")
    if (k * a + b if plus else k * a - b) == 0:
        raise ZeroOperandError("target modulus is zero")
    inv_a_mod_b, inv_b_mod_a = inverse_pair(a, b)
    if plus:
        return k * (a - inv_b_mod_a) + inv_a_mod_b
    return k * inv_b_mod_a - (b - inv_a_mod_b)


def square_inverse(a: int, b: int) -> int:
    """Inverse of b**2 modulo a**2, evaluated two ways and cross-checked.

    Both forms are polynomial in inv(b mod a):
      ((b*i - 2) * i)**2  and  (3 - 2*b*i) * i**2,  reduced mod a**2.
    """
    if abs(a) <= 1:
        raise DomainError("square_inverse needs |a| > 1")
    i = inverse(b, a)
    mm = a * a
    form1 = ((b * i - 2) * i % mm) ** 2 % mm
    form2 = (3 - 2 * b * i) * i * i % mm
    if form1 != form2:
        raise InvariantError("the two square-inverse forms disagree")
    return form1


def _cross_terms(
    a: int, b: int, c: int, d: int
) -> tuple[tuple[int, int, int, int], tuple[int, int, int, int], tuple[int, int, int]]:
    """The x, y and z values of the quad report, from the two pairs' inverses."""
    inv_ab, inv_ba = inverse_pair(a, b)  # inv(a mod b), inv(b mod a)
    inv_cd, inv_dc = inverse_pair(c, d)
    x = (
        a * inv_dc + b * (d - inv_cd),
        a * (c - inv_dc) + b * inv_cd,
        a * (d - inv_cd) - b * inv_dc,
        a * inv_cd - b * (c - inv_dc),
    )
    y = (
        c * (a - inv_ba) + d * inv_ab,
        c * inv_ba + d * (b - inv_ab),
        c * (b - inv_ab) - d * inv_ba,
        c * inv_ab - d * (a - inv_ba),
    )
    z = (
        a * (a - inv_ba) + b * inv_ab,
        c * inv_dc + d * (d - inv_cd),
        c * (c - inv_dc) + d * inv_cd,
    )
    return x, y, z


def quad_pair_inverses(a: int, b: int, c: int, d: int) -> QuadPairReport:
    """Build and verify the full cross-pair report for one quadruple.

    Needs gcd(a,b) = gcd(c,d) = 1 and |u| > 1, |v| > 1.  The sum and
    proof-identity flags stay None unless gcd(u, v) = 1.  The report takes
    two inversions, one pair each for (a, b) and (c, d).
    """
    if math.gcd(a, b) != 1 or math.gcd(c, d) != 1:
        raise NotCoprimeError("both (a,b) and (c,d) must be coprime pairs")
    u = a * c + b * d
    v = a * d - b * c
    if abs(u) <= 1 or abs(v) <= 1:
        raise DomainError("|u| and |v| must both exceed 1")
    s = a * a + b * b
    t = c * c + d * d

    x, y, z = _cross_terms(a, b, c, d)
    x1, x2, x3, x4 = x
    y1, y2, y3, y4 = y
    z1, z2, z3 = z

    # x_i and y_i are inverses iff their product is 1 modulo n; for |n| > 1
    # that is the same as inverse(x_i, n) == floor_mod(y_i, n)
    pair_ok = (
        (x1 * y1 - 1) % u == 0,
        (x2 * y2 - 1) % u == 0,
        (x3 * y3 - 1) % v == 0,
        (x4 * y4 - 1) % v == 0,
    )

    sum_ok = None
    proof_ok = None
    if math.gcd(u, v) == 1:
        # v is a unit modulo u, so y1*inv(v mod u) inverts s modulo u iff
        # s*y1 = v (mod u); and so on.  No inverse modulo u or v is needed.
        sum_ok = (
            (s * y1 - v) % u == 0,
            (t * x1 - v) % u == 0,
            (s * y4 - u) % v == 0,
            (t * x4 - u) % v == 0,
        )
        proof_ok = (
            s * y1 == v + u * z1,
            t * x1 == v + u * z2,
            s * y4 == u - v * z1,
            t * x4 == u + v * z3,
        )

    return modrecip.QuadPairReport(
        a=a,
        b=b,
        c=c,
        d=d,
        u=u,
        v=v,
        s=s,
        t=t,
        x=x,
        y=y,
        z=z,
        pair_inverse_ok=pair_ok,
        sum_inverse_ok=sum_ok,
        proof_identity_ok=proof_ok,
    )


def sum_of_squares_inverses(a: int, b: int, c: int, d: int) -> QuadPairReport:
    """Quad report with the sum-of-squares identities required present."""
    report = quad_pair_inverses(a, b, c, d)
    if report.sum_inverse_ok is None:
        raise NotCoprimeError("gcd(u, v) != 1")
    return report


def sum_inverse_values(a: int, b: int, c: int, d: int) -> tuple[QuadPairReport, dict[str, int]]:
    """The sum-of-squares report and the four inverses its sum flags certify.

    s*y1 = t*x1 = v (mod u) and s*y4 = t*x4 = u (mod v), so the inverses of
    s and t modulo u and v are y1, x1, y4 and x4 times the pair
    inv(v mod u), inv(u mod v), which one more inversion gives.
    """
    report = sum_of_squares_inverses(a, b, c, d)
    u, v, x, y = report.u, report.v, report.x, report.y
    inv_vu, inv_uv = inverse_pair(v, u)
    return report, {"s_inv_mod_u": y[0] * inv_vu % u, "t_inv_mod_u": x[0] * inv_vu % u,
                    "s_inv_mod_v": y[3] * inv_uv % v, "t_inv_mod_v": x[3] * inv_uv % v}


def positive_case_exact(a: int, b: int, c: int, d: int) -> int:
    """y1 as the exact windowed inverse of x1 modulo u, for positive inputs.

    With a, b, c, d > 0 the value y1 already lies in (0, u), so no modular
    reduction is needed; the function checks that, and that x1*y1 = 1
    (mod u), before returning.
    """
    if min(a, b, c, d) <= 0:
        raise DomainError("all of a, b, c, d must be positive")
    if math.gcd(a, b) != 1 or math.gcd(c, d) != 1:
        raise NotCoprimeError("both (a,b) and (c,d) must be coprime pairs")
    if a * d == b * c:
        raise DomainError("a*d = b*c makes v zero")
    u = a * c + b * d
    x, y, _ = _cross_terms(a, b, c, d)
    x1, y1 = x[0], y[0]
    if not 0 < y1 < u:
        raise InvariantError("positivity bound 0 < y1 < u failed")
    if (x1 * y1 - 1) % u:
        raise InvariantError("y1 is not the inverse of x1 modulo u")
    return y1
