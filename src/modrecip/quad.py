"""Cross-pair inverse identities for a coprime quadruple (a, b, c, d).

Every value comes in closed form from the inverses of the pairs (a, b) and
(c, d), taken with :func:`modrecip.core.inverse_pair`, whose
ZeroOperandError and NotCoprimeError pass through unchanged.
"""


import math
from dataclasses import dataclass

from .core import DomainError, InvariantError, NotCoprimeError, inverse_pair


@dataclass(frozen=True)
class QuadPairReport:
    """Cross-pair inverse identities for a coprime quadruple (a,b,c,d).

    u = a*c + b*d, v = a*d - b*c, s = a*a + b*b, t = c*c + d*d.  The x
    values are inverses of each other's y values: x[0], x[1] modulo u and
    x[2], x[3] modulo v.  When gcd(u, v) = 1 the report also certifies the
    inverses of s and t modulo u and v, plus the four exact integer
    identities (s*y1 = v + u*z1 and friends) behind them.
    """

    a: int
    b: int
    c: int
    d: int
    u: int
    v: int
    s: int
    t: int
    x: tuple[int, int, int, int]
    y: tuple[int, int, int, int]
    z: tuple[int, int, int]
    pair_inverse_ok: tuple[bool, bool, bool, bool]
    sum_inverse_ok: tuple[bool, bool, bool, bool] | None
    proof_identity_ok: tuple[bool, bool, bool, bool] | None

    @property
    def all_ok(self) -> bool:
        optional = (self.sum_inverse_ok or ()) + (self.proof_identity_ok or ())
        return all(self.pair_inverse_ok + optional)


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

    Each pair flag is one remainder.  The sum and proof flags share e1 = s*y1 - v,
    e2 = t*x1 - v, e3 = s*y4 - u and e4 = t*x4 - u: each proof flag compares its e
    with u*z1, u*z2, -v*z1 or v*z3, and each sum flag is True when that holds, as
    e = n*z is 0 modulo n, and only otherwise takes e % u or e % v.
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
        e1, e2, e3, e4 = s * y1 - v, t * x1 - v, s * y4 - u, t * x4 - u
        proof_ok = (e1 == u * z1, e2 == u * z2, e3 == -v * z1, e4 == v * z3)
        sum_ok = (proof_ok[0] or e1 % u == 0, proof_ok[1] or e2 % u == 0,
                  proof_ok[2] or e3 % v == 0, proof_ok[3] or e4 % v == 0)

    return QuadPairReport(
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
