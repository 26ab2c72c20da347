import math
import random

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from modrecip import core
from modrecip.core import (
    _WINDOW_BITS,
    InverseFailure,
    NotCoprimeError,
    ZeroOperandError,
    _batched_descent,
    inverse,
    inverse_pair,
    mod_inverse,
)
from modrecip.recip import (
    inverse_via_reciprocity,
    reciprocal_pair,
    reciprocity_check,
    solve_diophantine,
)

small = st.integers(min_value=-64, max_value=64).filter(lambda n: n != 0)
wide = st.integers(min_value=-(2**256), max_value=2**256).filter(lambda n: n != 0)


def test_reciprocity_worked_examples():
    r = reciprocity_check(3, 5)
    assert (r.inv_a_mod_b, r.inv_b_mod_a) == (2, 2)
    assert r.lhs == 16 == r.rhs
    assert r.k == 1 and r.holds

    # unit operand: a*1 + 1*1 = 1 + a
    r = reciprocity_check(5, 1)
    assert r.lhs == 6 == r.rhs

    r = reciprocity_check(3, -5)
    assert (r.inv_a_mod_b, r.inv_b_mod_a) == (-3, 1)
    assert r.lhs == -14 == r.rhs and r.k == 1

    r = reciprocity_check(-3, -5)
    assert (r.inv_a_mod_b, r.inv_b_mod_a) == (-2, -2)
    assert r.lhs == 16 == r.rhs and r.k == 1


def test_reciprocity_rejects_bad_pairs():
    with pytest.raises(ZeroOperandError):
        reciprocity_check(0, 5)
    with pytest.raises(ZeroOperandError):
        reciprocity_check(5, 0)
    with pytest.raises(NotCoprimeError):
        reciprocity_check(6, 9)


@given(small, small)
def test_reciprocity_holds_on_all_sign_combinations(a, b):
    assume(math.gcd(a, b) == 1)
    r = reciprocity_check(a, b)
    assert r.holds and r.k == 1
    assert a * r.inv_a_mod_b + b * r.inv_b_mod_a == 1 + a * b


@pytest.mark.parametrize(
    "a,m,expected",
    [(7, 22, 19), (3, 5, 2), (1, 7, 1), (1, 97, 1), (3, -5, -3), (-2, -5, -3)],
)
def test_inverse_via_reciprocity_examples(a, m, expected):
    assert inverse_via_reciprocity(a, m).expect() == expected


def test_inverse_via_reciprocity_failures():
    assert inverse_via_reciprocity(2, 4).failure is InverseFailure.NOT_COPRIME
    assert inverse_via_reciprocity(0, 4).failure is InverseFailure.ZERO_OPERAND
    assert inverse_via_reciprocity(4, 0).failure is InverseFailure.ZERO_OPERAND
    # the route under the outcome raises.  A signed 4096-bit pair with a common
    # 32-bit factor, as the wide-inverse benchmark builds them, runs the batched
    # descent and vanishes in the per-level one; a common 2048-bit factor
    # vanishes in the batched descent itself
    rng = random.Random(32)

    def shared(factor_bits):
        g = rng.getrandbits(factor_bits) | 1 << factor_bits - 1 | 1
        rest = 4096 - factor_bits
        return (-g * (rng.getrandbits(rest) | 1 << rest - 1),
                g * (rng.getrandbits(rest) | 1 << rest - 1))

    for a, m in ((2, 4), shared(32), shared(2048)):
        with pytest.raises(NotCoprimeError):
            reciprocal_pair(a, m)
    for a, m in ((0, 4), (4, 0)):
        with pytest.raises(ZeroOperandError):
            reciprocal_pair(a, m)


@given(wide, wide)
def test_inverse_via_reciprocity_matches_extended_gcd(a, m):
    assume(math.gcd(a, m) == 1)
    assert inverse_via_reciprocity(a, m).result == mod_inverse(a, m).result


def test_inverse_via_reciprocity_equals_mod_inverse_exhaustively():
    # results and failures alike, unit moduli and unit operands included
    for a in range(-80, 81):
        for m in range(-80, 81):
            got, want = inverse_via_reciprocity(a, m), mod_inverse(a, m)
            assert (got.result, got.failure) == (want.result, want.failure), (a, m)
            assert _pair_or_error(reciprocal_pair, a, m) == _pair_or_error(inverse_pair, a, m)


def _pair_or_error(route, a, m):
    """route's pair for (a, m), or the type of the error it raised."""
    try:
        return route(a, m)
    except ValueError as exc:
        return type(exc)


def test_reciprocal_pair_across_the_window():
    # a narrow operand below, at and just past the Lehmer window against a wide
    # one, both orders and four signs: both values of the climb must be those
    # of the pow route with its exact-division partner.  The 1-bit operand is
    # the (wide, +-1) shape of the wide-inverse benchmark
    rng = random.Random(120)
    for narrow_bits in (1, 8, 64, 119, 120, 121):
        for wide_bits in (121, 4096):
            x = rng.getrandbits(narrow_bits) | 1 << narrow_bits - 1
            y = rng.getrandbits(wide_bits) | 1 << wide_bits - 1
            while math.gcd(x, y) != 1:
                y += 1
            for a, m in ((x, y), (y, x)):
                for sa, sm in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                    assert (_pair_or_error(reciprocal_pair, sa * a, sm * m)
                            == _pair_or_error(inverse_pair, sa * a, sm * m)), (sa * a, sm * m)


def test_batched_descent_does_nothing_below_the_window():
    # every reciprocal_pair call enters the batched descent; once the narrower
    # operand fits the window it only orders the pair, by one swap step
    for bits in (1, 64, 120):
        y = 1 << bits - 1 | 1
        for x in (y, y + 2, 2**4096):
            assert _batched_descent(x, y) == (x, y, [])
            if x != y:
                assert _batched_descent(y, x) == (x, y, [(0, 1, 1, 0)])


def test_batched_descent_keeps_a_euclid_pair():
    # the window's last quotient overshoots on this pair, so the full pair
    # must refuse that batch and take a full step instead: every pair on the
    # way down stays 0 < y < x, and every step matrix is unimodular
    a = 0x814882B579F401F4530E5B95E81376E66D23DE3C7C0B9EC2497C0290B45B7645
    m = 0x92DDA450A09ED2253C0E434A7D963C0B1AD9B2B78B4516807E96BEB179B9D00F
    for x, y in ((a, m), (m, a)):
        end_x, end_y, steps = _batched_descent(x, y)
        for u0, v0, u1, v1 in steps:
            assert u0 * v1 - v0 * u1 in (1, -1)
            x, y = u0 * x + v0 * y, u1 * x + v1 * y
            assert 0 < y < x
        assert (x, y) == (end_x, end_y) and end_y.bit_length() <= _WINDOW_BITS
    for x, y in ((a, m), (-a, m), (a, -m), (m, a)):
        assert inverse_via_reciprocity(x, y).result == pow(x, -1, y)


def test_recursion_survives_fibonacci_worst_case(monkeypatch):
    # consecutive Fibonacci numbers maximize the reduction step count (every
    # quotient is 1, here over more than 4096 bits); a huge quotient, 2**2048,
    # leaves remainder 1 at once.  Both take the batched route, so the oracle
    # is the built-in pow, whose window also follows the sign of the modulus
    f0, f1 = 1, 1
    while f1.bit_length() <= 4096:
        f0, f1 = f1, f0 + f1
    for x, y in ((f0, f1), (2**4096 + 1, 2**2048)):
        for a, m in ((x, y), (-x, y), (x, -y), (-x, -y)):
            pair = inverse_pair(a, m)
            assert pair == (pow(a, -1, m), pow(m, -1, a))
            assert inverse_via_reciprocity(a, m).expect() == pair[0]
    # Within the window only the per-level loop runs, and it keeps no step
    # count: Lame's bound holds it to ceil(1.4405*bits) + 3 levels of one
    # divmod each for a narrower operand of that many bits
    f0, f1 = 1, 1
    while (f0 + f1).bit_length() <= _WINDOW_BITS:
        f0, f1 = f1, f0 + f1
    levels = math.ceil(1.4405 * f0.bit_length()) + 3
    for x, y in ((f1, f0), (f0, f1)):
        for a, m in ((x, y), (-x, y), (x, -y), (-x, -y)):
            calls = []
            monkeypatch.setattr(core, "divmod", lambda n, d: calls.append(d) or divmod(n, d),
                                raising=False)
            assert reciprocal_pair(a, m) == (pow(a, -1, m), pow(m, -1, a))
            monkeypatch.undo()
            assert 0 < len(calls) <= levels


def _random_pair(bits_a, bits_m, seed):
    """A coprime pair of the given widths."""
    rng = random.Random(seed)
    a = rng.getrandbits(bits_a) | 1 << bits_a - 1
    m = rng.getrandbits(bits_m) | 1 << bits_m - 1 | 1
    while math.gcd(a, m) != 1:
        a += 1
    return a, m


def _fibonacci_pair(bits):
    f0, f1 = 1, 1
    while f1.bit_length() < bits:
        f0, f1 = f1, f0 + f1
    return f1, f0


# Structured pairs at the Lehmer window (120 bits), at the 1664-bit crossover
# of core.inverse, and past both, where the shipped verify sweeps never go
_STRUCTURED = {
    **{f"width-{bits}": _random_pair(bits, bits, seed=bits)
       for bits in (119, 120, 121, 1663, 1664, 1665, 1666, 4096, 65536)},
    "word-against-wide": _random_pair(64, 4096, seed=64),
    "fibonacci-200": _fibonacci_pair(200),
    "fibonacci-1700": _fibonacci_pair(1700),
    "huge-quotient-240": (2**240 + 1, 2**120),
    "huge-quotient-3400": (2**3400 + 1, 2**1700),
    "mersenne-2048": (2**2048 - 1, 2**2047 - 1),
}


@pytest.mark.parametrize("name", _STRUCTURED)
def test_structured_wide_pairs_agree_on_every_route(name):
    x, y = _STRUCTURED[name]
    for a, m in ((x, y), (-x, y), (x, -y), (-x, -y)):
        want = pow(a, -1, m)
        assert inverse(a, m) == want
        pair = inverse_pair(a, m)
        assert pair[0] == want and a * pair[0] + m * pair[1] == 1 + a * m
        assert inverse_via_reciprocity(a, m).expect() == want
        rep = reciprocity_check(a, m)
        assert (rep.inv_a_mod_b, rep.inv_b_mod_a) == pair and rep.holds and rep.k == 1
        assert solve_diophantine(a, m) == (want, a - pair[1])


@pytest.mark.parametrize("bits", [121, 1664, 1666, 4096])
@pytest.mark.parametrize("factor_bits", [32, "half"])
def test_wide_shared_factors_raise_from_every_route(bits, factor_bits):
    factor_bits = bits // 2 if factor_bits == "half" else factor_bits
    g = random.Random(bits).getrandbits(factor_bits) | 1 << factor_bits - 1
    x, y = _random_pair(bits - factor_bits, bits - factor_bits, seed=factor_bits)
    routes = (inverse, inverse_pair, lambda a, m: inverse_via_reciprocity(a, m).expect(),
              reciprocity_check, solve_diophantine)
    for a, m in ((x, y), (-x, y), (x, -y), (-x, -y)):
        for route in routes:
            with pytest.raises(NotCoprimeError):
                route(g * a, g * m)


def test_recursion_handles_huge_asymmetric_operands():
    a = 3**700 + 1
    m = 2**1024 + 1
    assume_ok = math.gcd(a, m) == 1
    assert assume_ok
    assert inverse_via_reciprocity(a, m).result == mod_inverse(a, m).result


def test_solve_diophantine_examples():
    assert solve_diophantine(3, 5) == (2, 1)
    assert solve_diophantine(7, 22) == (19, 6)
    assert solve_diophantine(1, 9) == (1, 0)


def test_solve_diophantine_rejects_bad_pairs():
    with pytest.raises(ZeroOperandError):
        solve_diophantine(0, 5)
    with pytest.raises(ZeroOperandError):
        solve_diophantine(5, 0)
    with pytest.raises(NotCoprimeError):
        solve_diophantine(4, 6)


@given(small, small)
def test_solve_diophantine_certificate(a, m):
    assume(math.gcd(a, m) == 1)
    x, k = solve_diophantine(a, m)
    assert a * x - k * m == 1
    assert x == mod_inverse(a, m).expect()
