"""Signed floor arithmetic and the extended modular inverse.

The inverse used throughout this package places its result in a window
that follows the sign of the modulus: [1, m-1] for m > 1 and [m+1, -1]
for m < -1. For a unit modulus (|m| = 1) it takes a signed closed-form
value instead of the conventional 0, which is what makes the reciprocity
identity in :mod:`modrecip.recip` hold without exceptions.

:func:`inverse` is the one inversion primitive: it returns the int and
raises ZeroOperandError or NotCoprimeError.  For |m| > 1 it takes one of
two routes by operand width, both of whose results follow the sign of m.
Up to a crossover of 1664 bits (_POW_MAX_BITS, measured) it is the
built-in ``pow(a, -1, m)``, extended Euclid in C.  Above it, where Euclid's
one big division per quotient dominates, it is the first of
:func:`inverse_pair`, whose route there is the Lehmer-batched reciprocity
climb :func:`modrecip.recip.reciprocal_pair`, and ``pow`` stays the
independent oracle the tests hold it to.  :func:`inverse_pair` gets both
inverses of a coprime pair from one inversion and the reciprocity
identity, which also certifies them.
:func:`mod_inverse` is the public-edge form that returns those two failures
as an :class:`InverseOutcome` instead.  That is a plain immutable value class
with slots, not a dataclass, so ``modrecip inv`` never imports
:mod:`dataclasses` and the ``inspect`` chain behind it.  The pure-Python
:func:`extended_gcd` stays as the independent Bezout-certificate oracle the
verification sweeps check it against.
"""

from __future__ import annotations

import math
from enum import Enum


# Bounds the CLI parser prints in its help, kept here so that building the
# parser imports neither verify nor bench; both modules re-export them.
MAX_SHARDS = 32  # verify: one worker process per shard, inside one machine
MIN_BITS, MAX_BITS = 64, 16384  # bench: operand widths


class ZeroOperandError(ValueError):
    """An operand is zero where the operation needs it nonzero."""


class NotCoprimeError(ValueError):
    """The operands share a common factor, so no inverse exists."""


class DomainError(ValueError):
    """Inputs fall outside an operation's stated hypotheses."""


class InvariantError(ArithmeticError):
    """A result failed its own post-check: a fault in the code, not the input."""


class InverseFailure(Enum):
    """Why an inverse is undefined.  Values match the CLI reason tokens, named after the errors."""

    ZERO_OPERAND = "ZeroOperand"
    NOT_COPRIME = "NotCoprime"


_FAILURE_EXC = {
    InverseFailure.ZERO_OPERAND: ZeroOperandError,
    InverseFailure.NOT_COPRIME: NotCoprimeError,
}


class InverseOutcome:
    """Either an inverse value or a typed reason why none exists.

    An immutable value: outcomes compare and hash by (result, failure).
    """

    __slots__ = ("result", "failure")

    def __init__(self, result: int | None = None, failure: InverseFailure | None = None):
        if (result is None) == (failure is None):
            raise ValueError("exactly one of result/failure must be set")
        _set_result(self, result)
        _set_failure(self, failure)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return InverseOutcome, (self.result, self.failure)

    def __eq__(self, other):
        if type(other) is not InverseOutcome:
            return NotImplemented
        return self.result == other.result and self.failure == other.failure

    def __hash__(self):
        return hash((self.result, self.failure))

    def __repr__(self):
        return f"InverseOutcome(result={self.result!r}, failure={self.failure!r})"

    @property
    def ok(self) -> bool:
        return self.failure is None

    def expect(self) -> int:
        """Return the inverse, raising the matching error on failure."""
        if self.failure is not None:
            raise _FAILURE_EXC[self.failure](self.failure.value)
        return self.result


# the slots' own setters: the only writes, bypassing the refusing __setattr__
_set_result, _set_failure = InverseOutcome.result.__set__, InverseOutcome.failure.__set__


def sign(n: int) -> int:
    """-1, 0 or 1."""
    return (n > 0) - (n < 0)


# Python's // and % already round toward -inf, so the two floor
# operations only add the typed zero check.

def floor_div(a: int, m: int) -> int:
    """Floor quotient: the unique q with q <= a/m < q + 1."""
    if m == 0:
        raise ZeroOperandError("floor_div: modulus is zero")
    return a // m


def floor_mod(a: int, m: int) -> int:
    """Remainder a - m*floor(a/m); 0 <= r < m for m > 0, m < r <= 0 for m < 0."""
    if m == 0:
        raise ZeroOperandError("floor_mod: modulus is zero")
    return a % m


def extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) > 0 and a*x + b*y = g.

    Works for any signs; the Bezout certificate is the independent
    oracle the inverse routines are checked against.
    """
    if a == 0 and b == 0:
        raise ZeroOperandError("gcd(0, 0) is undefined")
    r0, r1 = abs(a), abs(b)
    x0, x1 = 1, 0
    y0, y1 = 0, 1
    while r1:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return r0, x0 * sign(a), y0 * sign(b)


def unit_inverse(a: int, m: int) -> int:
    """Closed-form inverse for |m| = 1: |m|(sgn(m) - sgn(a))/2 + sgn(a)."""
    if abs(m) != 1:
        raise DomainError("unit_inverse needs |m| = 1")
    if a == 0:
        raise ZeroOperandError("unit_inverse: a is zero")
    # sgn(m) - sgn(a) is -2, 0 or 2, so the halving is exact
    return (sign(m) - sign(a)) // 2 + sign(a)


# The built-in pow(a, -1, m) is plain Euclid in C, one big division per
# quotient.  The Lehmer-batched reciprocity route overtakes it once the
# narrower operand is wider than this.  Per call on a 2-vCPU box under
# Python 3.11, back to back on the same pairs, the batched inverse takes
# 1.02-1.07 times pow's time at 1536 bits, 0.99 at 1664, 0.92-0.93 at 1792,
# 0.83-0.85 at 2048 and 0.75-0.83 at 2560.
_POW_MAX_BITS = 1664


def _require_coprime(a: int, m: int) -> None:
    if a == 0 or m == 0:
        raise ZeroOperandError("inverse needs a nonzero operand and modulus")
    # either route costs far more on a shared factor than this gcd
    if math.gcd(a, m) != 1:
        raise NotCoprimeError("operand and modulus share a factor")


def _batched(a: int, m: int) -> bool:
    """Whether both operands are wider than _POW_MAX_BITS."""
    return a.bit_length() > _POW_MAX_BITS and m.bit_length() > _POW_MAX_BITS


def inverse(a: int, m: int) -> int:
    """Inverse of a modulo m in the sign-following window.

    For |m| > 1 the result x satisfies a*x = 1 (mod m) with x in
    [1, m-1] (m positive) or [m+1, -1] (m negative).  For |m| = 1 the
    signed closed form is returned.  Raises ZeroOperandError when
    a*m = 0 and NotCoprimeError when gcd(a, m) != 1.  The value is
    ``pow(a, -1, m)`` while the narrower operand has at most _POW_MAX_BITS
    bits, and the first of :func:`inverse_pair`, which runs
    :func:`modrecip.recip.reciprocal_pair`, above that.
    """
    if _batched(a, m):
        return inverse_pair(a, m)[0]
    _require_coprime(a, m)
    # pow gives 0 only for a unit modulus, which takes the signed closed form
    return pow(a, -1, m) or unit_inverse(a, m)


def inverse_pair(a: int, b: int) -> tuple[int, int]:
    """Both inverses of a pair, (inv(a mod b), inv(b mod a)), for one inversion.

    Raises what :func:`inverse` raises, which is symmetric in a and b.  On
    the batched route the climb of :func:`modrecip.recip.reciprocal_pair`
    ends on both values and certifies them by the reciprocity identity
    a*inv(a mod b) + b*inv(b mod a) = 1 + a*b.  On the ``pow`` route the
    identity gives the partner by one exact division once inv(a mod b) is
    known: a nonzero remainder, or a partner outside its window [0, a] /
    [a, 0], raises InvariantError; for |a| > 1 the two checks together
    certify both values.
    """
    if _batched(a, b):
        _require_coprime(a, b)
        from .recip import reciprocal_pair  # recip imports this module
        return reciprocal_pair(a, b)
    x = inverse(a, b)
    y, rem = divmod(1 + a * b - a * x, b)
    if rem:
        raise InvariantError("a*inv(a mod b) - 1 is not a multiple of b")
    if not (0 <= y <= a or a <= y <= 0):
        raise InvariantError("the partner inverse left its window")
    return x, y


def mod_inverse(a: int, m: int) -> InverseOutcome:
    """:func:`inverse` with its two failures returned as an outcome, not raised."""
    try:
        return InverseOutcome(result=inverse(a, m))
    except ZeroOperandError:
        return InverseOutcome(failure=InverseFailure.ZERO_OPERAND)
    except NotCoprimeError:
        return InverseOutcome(failure=InverseFailure.NOT_COPRIME)


def classical_inverse(a: int, m: int) -> InverseOutcome:
    """Conventional inverse: canonical residue in [0, |m|-1], 0 when |m| = 1.

    Negative moduli are normalized to the residue system of |m|.
    """
    if abs(m) == 1 and a != 0:
        return InverseOutcome(result=0)
    return mod_inverse(a, abs(m))


def brute_force_inverse(a: int, m: int) -> InverseOutcome:
    """Exhaustive-search oracle over the signed window; needs |m| > 1.

    A test oracle, not a production path: O(|m|) per call.
    """
    if abs(m) <= 1:
        raise DomainError("brute_force_inverse needs |m| > 1")
    if a == 0:
        return InverseOutcome(failure=InverseFailure.ZERO_OPERAND)
    if math.gcd(a, m) != 1:
        return InverseOutcome(failure=InverseFailure.NOT_COPRIME)
    one = 1 % m
    window = range(1, m) if m > 0 else range(m + 1, 0)
    for x in window:
        if a * x % m == one:
            return InverseOutcome(result=x)
    raise AssertionError("coprime inverse must exist in the window")
