"""The two report records: one reciprocity check and one quad-pair report.

They are frozen dataclasses, so ``dataclasses.asdict`` gives their
``--json`` objects.  They live apart from the functions that build them,
which name them as ``modrecip.ReciprocityReport`` and
``modrecip.QuadPairReport``: the package's lazy exports load this module on
the first report and keep the class in the package namespace.  So a process
that never builds a report, such as ``modrecip reduce`` or ``modrecip
square-inv``, never imports :mod:`dataclasses` and the ``inspect`` chain
behind it.
"""

from __future__ import annotations

from dataclasses import dataclass


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
        flags = self.pair_inverse_ok + (self.sum_inverse_ok or ()) + (
            self.proof_identity_ok or ()
        )
        return all(flags)
