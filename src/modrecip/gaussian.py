"""Gaussian integers with just enough structure for modular inversion.

Division uses nearest-integer rounding on each component with halves
rounded toward minus infinity, giving a remainder of norm at most half
the divisor's norm.  That fixed tie rule makes the canonical residue of
an inverse deterministic and representative-independent.
"""


import re
from typing import NamedTuple

from .core import (DomainError, InvariantError, ZeroOperandError, _Value, _quoted, inverse,
                   inverse_pair)


class GaussianInteger(_Value):
    """re + im*i, a :class:`modrecip.core._Value` of (re, im).

    Construction, the sweeps' hottest call, writes both slots directly.
    """

    __slots__ = ("re", "im")
    __match_args__ = ("re", "im")

    def __init__(self, re: int, im: int):
        _set_re(self, re)
        _set_im(self, im)

    def norm(self) -> int:
        """a*a + b*b; zero only for the zero element."""
        return self.re * self.re + self.im * self.im

    def conjugate(self) -> "GaussianInteger":
        return GaussianInteger(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    # The arithmetic takes a GaussianInteger or an int; each branch builds its
    # result directly, as the sweeps run millions of these calls.
    def __add__(self, other: "GaussianInteger | int") -> "GaussianInteger":
        if isinstance(other, GaussianInteger):
            return GaussianInteger(self.re + other.re, self.im + other.im)
        if isinstance(other, int):
            return GaussianInteger(self.re + other, self.im)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other: "GaussianInteger | int") -> "GaussianInteger":
        if isinstance(other, GaussianInteger):
            return GaussianInteger(self.re - other.re, self.im - other.im)
        if isinstance(other, int):
            return GaussianInteger(self.re - other, self.im)
        return NotImplemented

    def __rsub__(self, other: int) -> "GaussianInteger":
        if isinstance(other, int):
            return GaussianInteger(other - self.re, -self.im)
        return NotImplemented

    def __mul__(self, other: "GaussianInteger | int") -> "GaussianInteger":
        if isinstance(other, GaussianInteger):
            return GaussianInteger(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        if isinstance(other, int):
            return GaussianInteger(self.re * other, self.im * other)
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self) -> "GaussianInteger":
        return GaussianInteger(-self.re, -self.im)

    def __str__(self) -> str:
        return format_gaussian(self)


# the slots' own setters: the only writes, bypassing the refusing __setattr__
_set_re, _set_im = GaussianInteger.re.__set__, GaussianInteger.im.__set__


class GaussianDivMod(NamedTuple):
    quotient: GaussianInteger
    remainder: GaussianInteger


def _round_half_down(num: int, den: int) -> int:
    # nearest integer to num/den for den > 0, halves toward -inf
    return (2 * num + den - 1) // (2 * den)


def gaussian_divmod(n: GaussianInteger, d: GaussianInteger) -> GaussianDivMod:
    """Euclidean division: n = d*q + r with norm(r) <= norm(d)/2."""
    nd = d.norm()
    if nd == 0:
        raise ZeroOperandError("gaussian division by zero")
    w = n * d.conjugate()
    q = GaussianInteger(_round_half_down(w.re, nd), _round_half_down(w.im, nd))
    r = n - d * q
    if 2 * r.norm() > nd:
        raise InvariantError("remainder norm bound failed")
    return GaussianDivMod(q, r)


def divides(d: GaussianInteger, n: GaussianInteger) -> bool:
    """True when n is an exact Gaussian multiple of d."""
    if d.is_zero():
        return n.is_zero()
    w = n * d.conjugate()
    nd = d.norm()
    return w.re % nd == 0 and w.im % nd == 0


def _check_inverse_hypotheses(z: GaussianInteger, w: GaussianInteger) -> tuple[int, int]:
    if z.re == 0 or z.im == 0 or w.re == 0 or w.im == 0:
        raise DomainError("all four components must be nonzero")
    return z.norm(), w.norm()


def gaussian_inverse(
    z: GaussianInteger, w: GaussianInteger
) -> tuple[GaussianInteger, GaussianInteger]:
    """Invert z modulo w: returns (representative, canonical residue).

    The representative is conj(z) scaled by the inverse of norm(z) modulo
    norm(w); the canonical form is its division remainder by w.  Both
    satisfy z*value = 1 (mod w).
    """
    s, t = _check_inverse_hypotheses(z, w)
    representative = z.conjugate() * inverse(s, t)
    canonical = gaussian_divmod(representative, w).remainder
    return representative, canonical


def gaussian_bezout_identity(a: int, b: int, c: int, d: int) -> bool:
    """Exact check of (a+ib)u + (c+id)v = 1 + (a+ib)(c+id)(a-ib)(c-id).

    u = (a-ib)*inv(s mod t) and v = (c-id)*inv(t mod s) for the norms s and t of a+ib
    and c+id; the right side is evaluated as 1 + s*t, since z*conj(z) is the norm of z.
    """
    z = GaussianInteger(a, b)
    w = GaussianInteger(c, d)
    s, t = _check_inverse_hypotheses(z, w)
    inv_st, inv_ts = inverse_pair(s, t)
    lhs = z * (z.conjugate() * inv_st) + w * (w.conjugate() * inv_ts)
    return lhs == GaussianInteger(1 + s * t, 0)


def inverse_mod_gaussian_linear(a: int, b: int) -> GaussianInteger:
    """Inverse of the integer a modulo the Gaussian modulus a*i + b.

    The value is inv(a mod b) + i*(a - inv(b mod a)), the reduction
    identity evaluated at a purely imaginary shift.
    """
    if abs(a) <= 1:
        raise DomainError("inverse_mod_gaussian_linear needs |a| > 1")
    inv_ab, inv_ba = inverse_pair(a, b)
    value = GaussianInteger(inv_ab, a - inv_ba)
    if not divides(GaussianInteger(b, a), value * a - 1):
        raise InvariantError("a times the value is not 1 modulo a*i + b")
    return value


def format_gaussian(z: GaussianInteger) -> str:
    """Render as 'a+bi' / 'a-bi', dropping whichever part is zero."""
    if z.im == 0:
        return str(z.re)
    if z.re == 0:
        return f"{z.im}i"
    return f"{z.re}{z.im:+d}i"


# an optional real part that ends where a sign or the text ends, then an
# optional imaginary part whose coefficient may be a bare sign or nothing
_NUMERAL = re.compile(r"(?:([+-]?\d+)(?=[+-]|\Z))?(?:([+-]?)(\d*)i)?")
_SPLIT_NUMERAL = re.compile(r"\d +\d")  # text with it keeps its spaces, so the pattern fails


def parse_gaussian(text: str) -> GaussianInteger:
    """Parse 'a+bi' style text; bare reals, bare imaginaries and spaces outside numerals are fine."""
    s = text if _SPLIT_NUMERAL.search(text) else text.replace(" ", "")
    m = _NUMERAL.fullmatch(s) if s else None
    if m is None:
        raise ValueError(f"not a Gaussian integer: {_quoted(text)}")
    real, sign, digits = m.groups()
    return GaussianInteger(int(real or 0), 0 if sign is None else int(sign + (digits or "1")))
