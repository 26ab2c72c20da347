"""Signed floor arithmetic and the modular inverse, by both of its routes.

The inverse used throughout this package places its result in a window
that follows the sign of the modulus: [1, m-1] for m > 1 and [m+1, -1]
for m < -1. For a unit modulus (|m| = 1) it takes a signed closed-form
value instead of the conventional 0, which is what makes the reciprocity
identity a*inv(a mod b) + b*inv(b mod a) = 1 + a*b of :mod:`modrecip.recip`
hold without exceptions.

That identity is the one certificate of every pair of inverses handed out here.
For coprime nonzero a, b, units included, (x, y) = (inv(a mod b), inv(b mod a))
is the only pair with a*x + b*y = 1 + a*b, x in [0, b] or [b, 0] and y in [0, a]
or [a, 0].  It meets all three, and two pairs that meet the identity differ by
t*(b, -a); the closed windows give |t| <= 1, and t = +-1 puts one pair at (b, 0),
where the left side is a*b.  :func:`_certified` checks it; ``python -O`` keeps the check.

:func:`inverse` is the first value of :func:`inverse_pair`; one check, one certificate.
The pair raises ZeroOperandError or NotCoprimeError from one operand check, which then
picks one of two routes by operand width, and a unit modulus takes the closed form.
For |m| > 1 both routes' results follow the sign of m.  Up to a crossover of 1664 bits
(_POW_MAX_BITS, measured) the inverse is the built-in ``pow(a, -1, m)``, extended
Euclid in C.  Above it, where Euclid's one big division per quotient dominates, it is
the first of :func:`reciprocal_pair`, the reciprocity climb: a Euclid descent of
(|a|, |m|) that keeps only its quotients, in Lehmer batches of about twenty quotients
per 2x2 matrix while both operands are wider than _WINDOW_BITS, then a climb that
builds a Bezout pair back up from the unit closed form by the reduction identity, with
no cofactor carried down and no division, and at every width one reduction modulo m
and one modulo a that put it in the windows.  ``pow`` stays the independent oracle the
tests hold the climb to, and :func:`inverse_pair` gets both inverses from one
inversion by either route.  Every route raises.  Outcomes are built only at the public
edge: :func:`mod_inverse` and the other outcome routes run their route through one
adapter, which returns those two failures as an :class:`InverseOutcome`.  It and
:class:`modrecip.gaussian.GaussianInteger` share :class:`_Value`, the one value form:
immutable slots, not a dataclass, so ``modrecip inv`` never imports :mod:`dataclasses`
and the ``inspect`` chain behind it.  The pure-Python :func:`extended_gcd` stays as
the independent Bezout-certificate oracle the verification sweeps check it against.
"""


import math
import operator
from enum import Enum
from typing import Callable


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


def _quoted(text: str) -> str:
    """A refusal's quote of text: its repr, or past 40 characters a prefix's and its length."""
    return repr(text) if len(text) <= 40 else f"{text[:40]!r}... ({len(text)} characters)"


class InverseFailure(Enum):
    """Why an inverse is undefined.  Values match the CLI reason tokens, named after the errors."""

    ZERO_OPERAND = "ZeroOperand"
    NOT_COPRIME = "NotCoprime"


_FAILURE_EXC = {
    InverseFailure.ZERO_OPERAND: ZeroOperandError,
    InverseFailure.NOT_COPRIME: NotCoprimeError,
}


class _Value:
    """An immutable value of two or more slots, equal only to its own type and compared,
    hashed, pickled and printed by its fields; each subclass's ``__init__`` writes them
    through the slots' own setters."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._astuple = property(operator.attrgetter(*cls.__slots__))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._astuple

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._astuple == other._astuple

    def __hash__(self):
        return hash(self._astuple)

    def __repr__(self):
        fields = ", ".join(map("{}={!r}".format, self.__slots__, self._astuple))
        return f"{type(self).__name__}({fields})"


class InverseOutcome(_Value):
    """Either an inverse value or a typed reason why none exists.

    A :class:`_Value`: outcomes compare and hash by (result, failure).
    """

    __slots__ = ("result", "failure")

    def __init__(self, result: int | None = None, failure: InverseFailure | None = None):
        if (result is None) == (failure is None):
            raise ValueError("exactly one of result/failure must be set")
        _set_result(self, result)
        _set_failure(self, failure)

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


def _batched_descent(x: int, y: int) -> tuple[int, int, list[tuple[int, int, int, int]]]:
    """Euclid descent of x, y > 0, batched on leading bits, until y fits the window.

    Each batch runs Euclid on the top _WINDOW_BITS of the pair (Lehmer's
    method; Knuth, TAOCP vol. 2, 4.5.2, Algorithm L) until the window
    remainder falls below _HALF, then applies the quotients as one matrix to
    the full pair.  The window takes nearest remainders: a floor remainder
    above half the divisor is replaced by the divisor minus it, one
    quotient more with the sign flipped, which cuts the quotients per
    inversion by about 30%.  Each matrix then has determinant 1 or -1, and
    the transposed climb of :func:`reciprocal_pair` accepts either.  A batch
    that does not leave 0 < y' < x' <= y gives way to one full divmod step.
    Returns the pair reached and the step matrices (u0, v0, u1, v1), outermost
    first, each taking the pair (x, y) above it to (u0*x + v0*y, u1*x + v1*y).
    A full step whose remainder vanishes ends the descent where y divides x.
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
        u0, u1 = (xh - v0 * y0) // x0, (yh - v1 * y0) // x0
        nx, ny = u0 * x + v0 * y, u1 * x + v1 * y
        if 0 < ny < nx <= y:
            steps.append((u0, v0, u1, v1))
            x, y = nx, ny
            continue
        q, r = divmod(x, y)
        if r == 0:  # reciprocal_pair's first divmod meets the same zero and raises
            break
        steps.append((0, 1, 1, -q))
        x, y = y, r
    return x, y, steps


def _certified(a: int, b: int, x: int, y: int, miss: int) -> tuple[int, int]:
    """(x, y), once it passes the module's certificate; miss is 1 + a*b - a*x - b*y."""
    if miss or not (0 <= x <= b or b <= x <= 0) or not (0 <= y <= a or a <= y <= 0):
        raise InvariantError("the pair fails the identity or leaves its closed windows")
    return x, y


def reciprocal_pair(a: int, m: int) -> tuple[int, int]:
    """(inv(a mod m), inv(m mod a)) for nonzero a, m, both certified by the identity.

    The descent runs on (|a|, |m|).  While both operands are wider than
    _WINDOW_BITS it goes in Lehmer batches (:func:`_batched_descent`), each
    recorded as one matrix; a batch replaces about twenty big divisions with
    eight small-by-large multiplies (four down, four up).  From the pair (x, y)
    it reaches, x >= y, it writes x = q*y + r and keeps each level's (q, y)
    until y = 1.  It needs no step count: each level is a Euclid step on
    positive operands, fewer than 1.4405*n + 3 of them for an n-bit narrower
    operand by Lame's bound.  There both inverses of the pair are closed forms,
    P = inv(x mod 1) = 1 and S = inv(1 mod x) = 1, and the climb carries (P, S)
    back up one level at a time with the reduction identity

        inv(y mod q*y + r) = q*(y - inv(r mod y)) + inv(y mod r),

    so each level costs one small-by-large multiply and no division.  At the
    pair the batches reached, (U, V) = (P, S - x) is a Bezout pair, x*U + y*V = 1,
    and the transpose of each batch matrix carries it one batch up.  One
    reduction modulo m and one modulo a, each signed, put the top U and V into
    their windows, or a unit modulus or operand takes the closed form; the
    module's certificate checks the two together for two multiplications and
    no division.  Raises ZeroOperandError on a zero operand, and on a remainder
    that vanishes, in either descent, NotCoprimeError if a and m share a factor
    and InvariantError if they do not; the gcd runs on that failure path only.
    """
    if a == 0 or m == 0:
        raise ZeroOperandError("reciprocity needs nonzero operands")
    x_top, y, batches = _batched_descent(abs(a), abs(m))
    x, levels = x_top, []  # levels: (q, y), outermost first
    while y != 1:
        q, r = divmod(x, y)
        if r == 0:
            if math.gcd(a, m) != 1:
                raise NotCoprimeError("operand and modulus share a factor")
            raise InvariantError("a remainder vanished on a coprime pair")
        levels.append((q, y))
        x, y = y, r
    p = s = 1  # y = 1 <= x here, and inv(x mod 1) = inv(1 mod x) = 1 in the signed convention
    for q, y in reversed(levels):  # one level up, inv(x mod y) = inv(r mod y) is the old S
        p, s = s, q * (y - s) + p
    u, v = p, s - x_top
    for u0, v0, u1, v1 in reversed(batches):
        u, v = u0 * u + u1 * v, v0 * u + v1 * v
    p = (u if a > 0 else -u) % m if abs(m) > 1 else unit_inverse(a, m)
    s = (v if m > 0 else -v) % a if abs(a) > 1 else unit_inverse(m, a)
    return _certified(a, m, p, s, 1 - a * p - m * (s - a))  # one product fewer


# The built-in pow(a, -1, m) is plain Euclid in C, one big division per
# quotient.  The Lehmer-batched reciprocity route overtakes it once the
# narrower operand is wider than this.  Per call on a 2-vCPU box under
# Python 3.11, back to back on the same pairs, the batched inverse takes
# 1.02-1.07 times pow's time at 1536 bits, 0.99 at 1664, 0.92-0.93 at 1792,
# 0.83-0.85 at 2048 and 0.75-0.83 at 2560.
_POW_MAX_BITS = 1664


def inverse(a: int, m: int) -> int:
    """Inverse of a modulo m in the sign-following window: the first value of
    :func:`inverse_pair`, so one check and one certificate.

    For |m| > 1 the result x satisfies a*x = 1 (mod m) with x in
    [1, m-1] (m positive) or [m+1, -1] (m negative).  For |m| = 1 the
    signed closed form is returned.  Raises ZeroOperandError when
    a*m = 0 and NotCoprimeError when gcd(a, m) != 1.
    """
    return inverse_pair(a, m)[0]


def inverse_pair(a: int, b: int) -> tuple[int, int]:
    """Both inverses of a pair, (inv(a mod b), inv(b mod a)), for one inversion.

    One operand check raises ZeroOperandError on a zero operand and
    NotCoprimeError on a shared factor, which is symmetric in a and b, and
    picks the route.  While the narrower operand has at most _POW_MAX_BITS
    bits, inv(a mod b) is ``pow(a, -1, b)``, or the closed form at a unit
    modulus, and the identity gives the partner by one exact division; that
    division's remainder is the miss of the module's certificate.  Above the
    crossover both values are :func:`reciprocal_pair`'s, which checks the
    same certificate on the pair its climb ends on.
    """
    if a == 0 or b == 0:
        raise ZeroOperandError("inverse needs a nonzero operand and modulus")
    # Either route would find a shared factor by itself, but only after its
    # Euclid run; this gcd makes the rejection near free.  Without it every
    # result stayed right and per-call medians fell 3-8%, yet on the
    # benchmark's wide-inverse mix, where one pair in eight shares a factor,
    # the median call moved from its 256-bit cluster to its 1024-bit one:
    # 110-112 us against 62-65 us (2 vCPUs, Python 3.11).
    if math.gcd(a, b) != 1:
        raise NotCoprimeError("operand and modulus share a factor")
    if a.bit_length() > _POW_MAX_BITS and b.bit_length() > _POW_MAX_BITS:
        return reciprocal_pair(a, b)
    x = unit_inverse(a, b) if abs(b) == 1 else pow(a, -1, b)
    y, rem = divmod(1 + a * (b - x), b)  # 1 + a*b - a*x, one product fewer
    return _certified(a, b, x, y, rem)


def _outcome(route: Callable[[int, int], int], a: int, m: int) -> InverseOutcome:
    """Run a raising route: its value, or its failure, as an InverseOutcome.

    The one adapter that builds outcomes; an InvariantError passes through it.
    """
    try:
        return InverseOutcome(result=route(a, m))
    except (ZeroOperandError, NotCoprimeError) as exc:
        return InverseOutcome(failure=next(f for f, e in _FAILURE_EXC.items() if isinstance(exc, e)))


def mod_inverse(a: int, m: int) -> InverseOutcome:
    """:func:`inverse` with its two failures returned as an outcome, not raised."""
    return _outcome(inverse, a, m)


def classical_inverse(a: int, m: int) -> InverseOutcome:
    """Conventional inverse: canonical residue in [0, |m|-1], 0 when |m| = 1.

    It is the windowed inverse reduced modulo |m|, which normalizes negative
    moduli to the residue system of |m|.
    """
    return _outcome(lambda a, m: inverse(a, m) % abs(m), a, m)


def _search(a: int, m: int) -> int:
    if a == 0:
        raise ZeroOperandError("inverse needs a nonzero operand and modulus")
    one = 1 % m
    window = range(1, m) if m > 0 else range(m + 1, 0)
    for x in window:
        if a * x % m == one:
            return x
    raise NotCoprimeError("operand and modulus share a factor")


def brute_force_inverse(a: int, m: int) -> InverseOutcome:
    """Exhaustive-search oracle over the signed window; needs |m| > 1.

    A test oracle, not a production path: O(|m|) per call.  An empty search,
    not math.gcd, is what reports NOT_COPRIME, so the oracle stays independent.
    """
    if abs(m) <= 1:
        raise DomainError("brute_force_inverse needs |m| > 1")
    return _outcome(_search, a, m)
