import math
import pickle
import random
import sys
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from modrecip import core, recip
from modrecip.core import (
    DomainError,
    InverseFailure,
    InverseOutcome,
    InvariantError,
    NotCoprimeError,
    ZeroOperandError,
    brute_force_inverse,
    classical_inverse,
    extended_gcd,
    floor_div,
    floor_mod,
    inverse,
    inverse_pair,
    mod_inverse,
    sign,
    unit_inverse,
)

ints = st.integers(min_value=-(10**9), max_value=10**9)
nonzero = ints.filter(lambda n: n != 0)


@pytest.mark.parametrize("a,m,q", [(7, 3, 2), (-7, 3, -3), (7, -3, -3), (-7, -3, 2)])
def test_floor_div_rounds_toward_minus_infinity(a, m, q):
    assert floor_div(a, m) == q


@pytest.mark.parametrize("a,m,r", [(7, 3, 1), (-7, 3, 2), (7, -3, -2), (-7, -3, -1)])
def test_floor_mod_takes_modulus_sign(a, m, r):
    assert floor_mod(a, m) == r


def test_floor_ops_reject_zero_modulus():
    with pytest.raises(ZeroOperandError):
        floor_div(5, 0)
    with pytest.raises(ZeroOperandError):
        floor_mod(5, 0)


@given(ints, nonzero)
def test_division_law(a, m):
    q, r = floor_div(a, m), floor_mod(a, m)
    assert a == m * q + r
    if m > 0:
        assert 0 <= r < m
    else:
        assert m < r <= 0


def test_sign():
    assert [sign(-3), sign(0), sign(9)] == [-1, 0, 1]


def test_extended_gcd_examples():
    assert extended_gcd(3, 5) == (1, 2, -1)
    for n in (5, -5, 0, 22):
        assert extended_gcd(1, n) == (1, 1, 0)
    g, x, y = extended_gcd(4, 6)
    assert g == 2
    assert 4 * x + 6 * y == 2


def test_extended_gcd_rejects_zero_pair():
    with pytest.raises(ZeroOperandError):
        extended_gcd(0, 0)


@given(ints, ints)
def test_extended_gcd_bezout_certificate(a, b):
    if a == 0 and b == 0:
        return
    g, x, y = extended_gcd(a, b)
    assert g > 0
    assert g == math.gcd(a, b)
    assert a * x + b * y == g


@pytest.mark.parametrize(
    "a,m,expected",
    [
        (7, 22, 19),
        (7, 1, 1),
        (-4, 1, 0),
        (3, -5, -3),
        (3, 5, 2),
        (5, -7, -4),
    ],
)
def test_mod_inverse_examples(a, m, expected):
    assert mod_inverse(a, m).expect() == expected


def test_mod_inverse_failures():
    assert mod_inverse(2, 4).failure is InverseFailure.NOT_COPRIME
    assert mod_inverse(0, 5).failure is InverseFailure.ZERO_OPERAND
    assert mod_inverse(5, 0).failure is InverseFailure.ZERO_OPERAND
    assert not mod_inverse(2, 4).ok
    with pytest.raises(NotCoprimeError):
        mod_inverse(2, 4).expect()
    with pytest.raises(ZeroOperandError):
        mod_inverse(0, 5).expect()


def test_inverse_matches_outcome_form():
    # the raising primitive and the outcome form agree on every signed pair,
    # zero and unit operands included
    for a in range(-80, 81):
        for m in range(-80, 81):
            outcome = mod_inverse(a, m)
            if outcome.ok:
                assert inverse(a, m) == outcome.result, (a, m)
                continue
            with pytest.raises(ValueError) as raised:
                outcome.expect()
            with pytest.raises(raised.type):
                inverse(a, m)


def _pair_or_error(a, b, pair):
    try:
        return pair(a, b)
    except ValueError as exc:
        return type(exc)


def _two_inversions(a, b):
    return inverse(a, b), inverse(b, a)


def test_inverse_pair_matches_two_inversions():
    # values and exception types alike, zero, unit and shared-factor
    # operands included
    for a in range(-80, 81):
        for b in range(-80, 81):
            want = _pair_or_error(a, b, _two_inversions)
            assert _pair_or_error(a, b, inverse_pair) == want, (a, b)


def _true_inverse(a, m):
    return unit_inverse(a, m) if abs(m) == 1 else brute_force_inverse(a, m).expect()


_POW_PLANTS = {
    "plus-modulus": lambda a, e, m: pow(a, e, m) + m,
    "minus-modulus": lambda a, e, m: pow(a, e, m) - m,
    "plus-one": lambda a, e, m: pow(a, e, m) + 1,
    "zero": lambda a, e, m: 0,
}


@pytest.mark.parametrize("route, plant", [
    *(pytest.param(inverse_pair, plant, id=name) for name, plant in _POW_PLANTS.items()),
    *(pytest.param(inverse, plant, id=f"inverse-{name}") for name, plant in _POW_PLANTS.items()),
])
def test_pow_route_returns_no_wrong_pair(monkeypatch, route, plant):
    # a wrong inv(a mod b) from pow must raise or, where the plant happens to give
    # the right value (+-b at b = +-1), come back as the true pair; a unit operand
    # leaves the partner in its window, so only b's window can catch it there.
    # inverse hands out the pair's first value, so the same certificate guards it
    pairs = [(a, b) for a in range(-12, 13) for b in range(-12, 13)
             if a and b and math.gcd(a, b) == 1]
    assert len(pairs) == 364
    truth = {(a, b): (_true_inverse(a, b), _true_inverse(b, a)) for a, b in pairs}
    if route is inverse:
        truth = {pair: want[0] for pair, want in truth.items()}
    monkeypatch.setattr(core, "pow", plant, raising=False)
    wrong = []
    for a, b in pairs:
        try:
            got = route(a, b)
        except (core.InvariantError, DomainError):
            continue
        if got != truth[a, b]:
            wrong.append((a, b, got))
    assert wrong == []


wide = st.integers(64, 8192).flatmap(lambda bits: st.integers(1 << (bits - 1), (1 << bits) - 1))
signed_wide = st.tuples(wide, st.booleans()).map(lambda t: -t[0] if t[1] else t[0])


def _diophantine_by_pow(a, m):
    """(x, k) with a*x - k*m = 1 from pow and exact division, or the error type."""
    if math.gcd(a, m) != 1:
        return NotCoprimeError
    x = pow(a, -1, m)
    k, rem = divmod(a * x - 1, m)
    assert rem == 0
    return x, k


@settings(max_examples=100, deadline=None)
@given(signed_wide, signed_wide)
def test_inverse_pair_matches_two_inversions_wide(a, b):
    # above the crossover both come from one climb, certified by the identity
    assert _pair_or_error(a, b, inverse_pair) == _pair_or_error(a, b, _two_inversions)
    assert _pair_or_error(a, b, recip.solve_diophantine) == _diophantine_by_pow(a, b)


def test_outcome_requires_exactly_one_side():
    with pytest.raises(ValueError):
        InverseOutcome()
    with pytest.raises(ValueError):
        InverseOutcome(result=1, failure=InverseFailure.NOT_COPRIME)


def test_outcome_is_an_immutable_value():
    five, again = InverseOutcome(result=5), InverseOutcome(result=5)
    fail = InverseOutcome(failure=InverseFailure.NOT_COPRIME)
    assert five == again and five is not again and mod_inverse(3, 7) == five
    assert hash(five) == hash(again) == hash(five) and len({five, again, fail}) == 2
    assert five != InverseOutcome(result=6) and five != fail and five != (5, None)
    assert fail == mod_inverse(2, 4) and fail != InverseOutcome(failure=InverseFailure.ZERO_OPERAND)
    for mutate in (lambda: setattr(five, "result", 6), lambda: setattr(five, "extra", 1),
                   lambda: delattr(five, "result")):
        with pytest.raises(AttributeError):
            mutate()
    assert five.result == 5 and five.failure is None
    assert repr(five) == "InverseOutcome(result=5, failure=None)"
    assert repr(fail) == ("InverseOutcome(result=None, "
                          "failure=<InverseFailure.NOT_COPRIME: 'NotCoprime'>)")
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(fail, protocol)) == fail
    assert five.ok and not fail.ok and five.expect() == 5
    with pytest.raises(NotCoprimeError):
        fail.expect()


def test_unit_inverse_branch_table():
    for a in range(1, 11):
        assert unit_inverse(a, 1) == 1
        assert unit_inverse(-a, 1) == 0
        assert unit_inverse(a, -1) == 0
        assert unit_inverse(-a, -1) == -1
    with pytest.raises(DomainError):
        unit_inverse(3, 2)
    with pytest.raises(ZeroOperandError):
        unit_inverse(0, 1)


def test_mod_inverse_window_and_congruence():
    for m in range(-40, 41):
        if abs(m) <= 1:
            continue
        for a in range(-40, 41):
            if a == 0 or math.gcd(a, m) != 1:
                continue
            x = mod_inverse(a, m).expect()
            assert (a * x - 1) % m == 0
            if m > 0:
                assert 1 <= x <= m - 1
            else:
                assert m + 1 <= x <= -1


def test_classical_inverse_examples():
    assert classical_inverse(7, 1).expect() == 0
    assert classical_inverse(-4, -1).expect() == 0
    assert classical_inverse(3, 5).expect() == 2
    assert classical_inverse(3, -5).expect() == 2
    assert classical_inverse(2, 4).failure is InverseFailure.NOT_COPRIME


def test_classical_vs_windowed_divergence():
    # raw values diverge only on the unit-modulus branch, and only for
    # (m=1, a>0) and (m=-1, a<0); elsewhere they name the same class
    for m in range(-20, 21):
        if m == 0:
            continue
        for a in range(-20, 21):
            if a == 0 or math.gcd(a, m) != 1:
                continue
            new = mod_inverse(a, m).expect()
            cls = classical_inverse(a, m).expect()
            if m > 1:
                assert new == cls
            elif m < -1:
                assert new == cls + m
            else:
                diverges = (m == 1 and a > 0) or (m == -1 and a < 0)
                assert (new != cls) == diverges
                if diverges:
                    assert cls == 0
                    assert new == (1 if m == 1 else -1)


def test_brute_force_examples():
    assert brute_force_inverse(3, 5).expect() == 2
    assert brute_force_inverse(7, 22).expect() == 19
    assert brute_force_inverse(5, -7).expect() == -4
    assert brute_force_inverse(2, 4).failure is InverseFailure.NOT_COPRIME
    assert brute_force_inverse(0, 9).failure is InverseFailure.ZERO_OPERAND


def test_brute_force_decides_coprimality_without_gcd(monkeypatch):
    # the oracle must not share inverse's gcd pre-check, or it cannot catch a wrong one
    monkeypatch.setattr(core, "math", SimpleNamespace(gcd=lambda a, b: 1))
    assert brute_force_inverse(2, 4).failure is InverseFailure.NOT_COPRIME
    assert brute_force_inverse(6, -9).failure is InverseFailure.NOT_COPRIME
    assert brute_force_inverse(5, -7).expect() == -4


@pytest.mark.parametrize("m", [0, 1, -1])
def test_brute_force_needs_wide_modulus(m):
    with pytest.raises(DomainError):
        brute_force_inverse(3, m)


@given(nonzero, ints.filter(lambda m: abs(m) > 1))
def test_mod_inverse_matches_brute_force(a, m):
    m = m % 199 + 2 if m > 0 else -(abs(m) % 199 + 2)
    if math.gcd(a, m) != 1:
        return
    assert mod_inverse(a, m).expect() == brute_force_inverse(a, m).expect()


def test_arbitrary_precision_operands():
    a = 0xFFFFFFFF00000001 ** 7
    m = 0xFFFFABCD00000001 ** 6
    assert math.gcd(a, m) == 1
    x = mod_inverse(a, m).expect()
    assert (a * x - 1) % m == 0
    assert 1 <= x <= m - 1


# Above core._POW_MAX_BITS inverse takes the batched reciprocity route, and the
# built-in pow becomes the independent oracle for it.
CROSSOVER = core._POW_MAX_BITS


def _signed_of_width(lo, hi):
    magnitude = st.integers(lo, hi).flatmap(lambda bits: st.integers(1 << (bits - 1), (1 << bits) - 1))
    return st.tuples(magnitude, st.booleans()).map(lambda t: -t[0] if t[1] else t[0])


def _route_value(a, m):
    return recip.inverse_via_reciprocity(a, m).expect()


@settings(max_examples=50, deadline=None)
@given(
    _signed_of_width(CROSSOVER - 64, 1 << 14),
    st.one_of(_signed_of_width(CROSSOVER - 64, 1 << 14), _signed_of_width(2, 256)),
    st.booleans(),
    st.integers(0, 3),
    st.integers(2, 1 << 64),
)
def test_wide_routes_equal_pow(a, m, swap, share, factor):
    # the narrow draw makes |a| << |m| or, swapped, |a| >> |m|; the pair is
    # made coprime, and one draw in four then gets a shared factor, which
    # both routes must refuse with the same exception type
    if swap:
        a, m = m, a
    g = math.gcd(a, m)
    a, m = a // g, m // g
    assume(abs(m) > 1)
    if share == 0:
        a, m = a * factor, m * factor
        with pytest.raises(ValueError):
            pow(a, -1, m)
        assert _pair_or_error(a, m, inverse) is NotCoprimeError
        assert _pair_or_error(a, m, _route_value) is NotCoprimeError
        return
    want = pow(a, -1, m)
    assert inverse(a, m) == want
    assert recip.inverse_via_reciprocity(a, m).result == want


def test_batched_route_at_the_operand_cap():
    rng = random.Random(65536)
    a = -(rng.getrandbits(1 << 16) | 1 << 65535)
    m = rng.getrandbits(1 << 16) | 1 << 65535 | 1
    while math.gcd(a, m) != 1:
        m += 2
    want = pow(a, -1, m)
    assert inverse(a, m) == want
    assert recip.inverse_via_reciprocity(a, m).result == want


def test_wide_inverse_reads_nothing_from_the_recip_module(monkeypatch):
    # core holds the climb it takes above the crossover, so a stand-in
    # recip module whose climb raises cannot reach a wide inversion
    def refuse(a, m):
        raise AssertionError("core reached modrecip.recip")

    monkeypatch.setitem(sys.modules, "modrecip.recip", SimpleNamespace(reciprocal_pair=refuse))
    rng = random.Random(2048)
    a = -(rng.getrandbits(2048) | 1 << 2047)
    m = rng.getrandbits(2048) | 1 << 2047
    while math.gcd(a, m) != 1:
        m += 1
    assert inverse(a, m) == pow(a, -1, m)


def test_inverse_is_pow_at_or_below_the_crossover(monkeypatch):
    calls = []
    route = core.reciprocal_pair

    def counted(a, m):
        calls.append((a, m))
        return route(a, m)

    monkeypatch.setattr(core, "reciprocal_pair", counted)
    rng = random.Random(8)

    def coprime_pair(bits_a, bits_m):
        a = rng.getrandbits(bits_a) | 1 << (bits_a - 1)
        m = rng.getrandbits(bits_m) | 1 << (bits_m - 1)
        while math.gcd(a, m) != 1:
            a ^= 1 << rng.randrange(bits_a - 1)
        return a, -m

    # the narrower operand decides: at or below the crossover it is pow alone
    for widths in ((64, 64), (CROSSOVER, CROSSOVER), (CROSSOVER, 1 << 14), (1 << 14, CROSSOVER)):
        a, m = coprime_pair(*widths)
        assert inverse(a, m) == pow(a, -1, m)
    assert calls == []
    a, m = coprime_pair(CROSSOVER + 1, CROSSOVER + 1)
    assert inverse(a, m) == pow(a, -1, m)
    assert calls == [(a, m)]


@pytest.mark.parametrize("bits", [64, 4096])
def test_inverse_is_the_first_of_one_pair_call(monkeypatch, bits):
    # one operand check, one route and one certificate: inverse is the first
    # value of exactly one inverse_pair call, below the crossover and above it
    rng = random.Random(bits)
    a = -(rng.getrandbits(bits) | 1 << (bits - 1))
    m = rng.getrandbits(bits) | 1 << (bits - 1)
    while math.gcd(a, m) != 1:
        m += 1
    pair = inverse_pair(a, m)
    assert pair == (pow(a, -1, m), pow(m, -1, a))
    calls = []

    def counted(a, m):
        calls.append((a, m))
        return inverse_pair(a, m)

    monkeypatch.setattr(core, "inverse_pair", counted)
    assert core.inverse(a, m) == pair[0]
    assert calls == [(a, m)]


def test_descent_over_its_step_bound_is_a_fault(monkeypatch):
    # the batched descent refuses to run past 3*n + _STEP_SLACK steps for an
    # n-bit narrower operand; with the slack lowered below the steps a 4096-bit
    # pair takes, every caller of the climb raises that fault, never a value
    rng = random.Random(4096)
    a = -(rng.getrandbits(4096) | 1 << 4095)
    m = rng.getrandbits(4096) | 1 << 4095
    while math.gcd(a, m) != 1:
        m += 1
    steps = len(core._batched_descent(abs(a), abs(m))[2])
    monkeypatch.setattr(core, "_STEP_SLACK", steps // 2 - 3 * 4096)
    for call in (inverse, inverse_pair, recip.inverse_via_reciprocity, recip.solve_diophantine):
        with pytest.raises(InvariantError, match="^reduction exceeded the Euclid step bound$"):
            call(a, m)
