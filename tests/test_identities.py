import itertools
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from inversion_count import count_inversions
from modrecip import quad, verify
from modrecip.cli import COMMANDS
from modrecip.core import (
    DomainError,
    InvariantError,
    NotCoprimeError,
    ZeroOperandError,
    classical_inverse,
    floor_mod,
    mod_inverse,
)
from modrecip.gaussian import gaussian_bezout_identity, inverse_mod_gaussian_linear
from modrecip.identities import (
    reduce_inverse_minus,
    reduce_inverse_plus,
    shift_invariance,
    square_inverse,
)
from modrecip.quad import (
    positive_case_exact,
    quad_pair_inverses,
    sum_inverse_values,
    sum_of_squares_inverses,
)
from modrecip.recip import reciprocity_check


def coprime_pairs(bound):
    for a in range(-bound, bound + 1):
        if a == 0:
            continue
        for b in range(-bound, bound + 1):
            if b != 0 and math.gcd(a, b) == 1:
                yield a, b


def test_shift_invariance_examples():
    assert shift_invariance(3, 5, 4) == 2 == mod_inverse(17, 3).expect()
    assert shift_invariance(1, -2, 3) == 1 == mod_inverse(1, 1).expect()
    assert shift_invariance(7, 3, 0) == mod_inverse(3, 7).expect()


def test_shift_invariance_rejects_zero_target():
    with pytest.raises(ZeroOperandError):
        shift_invariance(3, -6, 2)
    with pytest.raises(ZeroOperandError):
        shift_invariance(0, 5, 1)
    with pytest.raises(ZeroOperandError):
        shift_invariance(3, 0, 1)
    with pytest.raises(NotCoprimeError):
        shift_invariance(4, 6, 1)


def test_shift_invariance_sweep_small():
    for a, b in coprime_pairs(12):
        for k in range(-6, 7):
            if k * a + b == 0:
                continue
            assert shift_invariance(a, b, k) == mod_inverse(k * a + b, a).expect()


def test_reduction_examples():
    assert reduce_inverse_plus(7, 1, 3) == 19 == mod_inverse(7, 22).expect()
    assert reduce_inverse_plus(3, 2, 1) == 2 == mod_inverse(3, 5).expect()
    assert reduce_inverse_plus(5, 3, 0) == mod_inverse(5, 3).expect()
    assert reduce_inverse_minus(3, 2, 2) == 3 == mod_inverse(3, 4).expect()
    assert reduce_inverse_minus(7, 1, 3) == 3 == mod_inverse(7, 20).expect()
    assert reduce_inverse_minus(5, 2, 1) == 2 == mod_inverse(5, 3).expect()


def test_reduction_excludes_unit_a():
    with pytest.raises(DomainError):
        reduce_inverse_plus(1, 5, 2)
    with pytest.raises(DomainError):
        reduce_inverse_minus(-1, 5, 2)


def test_reduction_rejects_zero_target():
    with pytest.raises(ZeroOperandError):
        reduce_inverse_plus(3, -6, 2)
    with pytest.raises(ZeroOperandError):
        reduce_inverse_minus(3, 6, 2)
    for reduce in (reduce_inverse_plus, reduce_inverse_minus):
        with pytest.raises(ZeroOperandError):
            reduce(3, 0, 1)
        with pytest.raises(ZeroOperandError):
            reduce(0, 5, 1)
        with pytest.raises(NotCoprimeError):
            reduce(4, 6, 1)


def test_classical_unit_value_breaks_the_reduction():
    # replaying k*(a - inv(b mod a)) + inv(a mod b) with the classical
    # value 0 for inv(7 mod 1) gives 18, not the true 19
    replay = 3 * (7 - mod_inverse(1, 3).expect()) + classical_inverse(7, 1).expect()
    assert replay == 18
    assert mod_inverse(7, 22).expect() == 19
    assert replay != mod_inverse(7, 22).expect()


def test_reduction_sweep_small():
    for a, b in coprime_pairs(10):
        if abs(a) <= 1:
            continue
        for k in range(-5, 6):
            if k * a + b != 0:
                assert reduce_inverse_plus(a, b, k) == mod_inverse(a, k * a + b).expect()
            if k * a - b != 0:
                assert reduce_inverse_minus(a, b, k) == mod_inverse(a, k * a - b).expect()


def test_square_inverse_examples():
    assert square_inverse(3, 2) == 7 == mod_inverse(4, 9).expect()
    assert square_inverse(2, 3) == 1 == mod_inverse(9, 4).expect()
    assert square_inverse(5, 1) == 1


def test_square_inverse_rejects():
    with pytest.raises(DomainError):
        square_inverse(1, 3)
    with pytest.raises(ZeroOperandError):
        square_inverse(3, 0)
    with pytest.raises(NotCoprimeError):
        square_inverse(4, 6)


def test_square_inverse_sweep_small():
    for a, b in coprime_pairs(12):
        if abs(a) <= 1:
            continue
        assert square_inverse(a, b) == mod_inverse(b * b, a * a).expect()


def test_quad_pair_report_values():
    rep = quad_pair_inverses(3, 2, 1, 2)
    assert (rep.u, rep.v, rep.s, rep.t) == (7, 4, 13, 5)
    assert rep.x == (5, 2, 1, 3)
    assert rep.y == (3, 4, -3, -1)
    assert rep.z == (5, 3, 2)
    assert rep.x[0] * rep.y[0] == 15  # 1 mod u
    assert rep.x[2] * rep.y[2] == -3  # 1 mod v
    assert rep.pair_inverse_ok == (True, True, True, True)
    assert rep.sum_inverse_ok == (True, True, True, True)
    assert rep.proof_identity_ok == (True, True, True, True)
    assert rep.all_ok


def test_quad_pair_shared_uv_factor_leaves_sums_unset():
    rep = quad_pair_inverses(2, 1, 1, 3)
    assert (rep.u, rep.v) == (5, 5)
    assert rep.x[0] == 4 and rep.y[0] == 4
    assert rep.sum_inverse_ok is None and rep.proof_identity_ok is None
    assert rep.all_ok
    with pytest.raises(NotCoprimeError):
        sum_of_squares_inverses(2, 1, 1, 3)
    # u and v past the interpreter's 4300-digit int/str limit, gcd(u, v) = 2
    wide = 10**2200
    with pytest.raises(NotCoprimeError):
        sum_of_squares_inverses(3 * wide + 1, 2 * wide + 1, wide + 7, wide + 3)


def test_quad_pair_rejects():
    with pytest.raises(NotCoprimeError):
        quad_pair_inverses(2, 4, 1, 2)
    with pytest.raises(DomainError):
        quad_pair_inverses(1, 1, 1, 1)  # v = a*d - b*c = 0
    with pytest.raises(DomainError):
        quad_pair_inverses(1, 2, -1, 1)  # u = a*c + b*d = 1


def test_sum_of_squares_values():
    rep = sum_of_squares_inverses(3, 2, 1, 2)
    inv_vu = mod_inverse(rep.v, rep.u).expect()
    inv_uv = mod_inverse(rep.u, rep.v).expect()
    assert (rep.y[0] * inv_vu) % rep.u == 6 == mod_inverse(13, 7).expect()
    assert (rep.x[0] * inv_vu) % rep.u == 3 == mod_inverse(5, 7).expect()
    assert (rep.x[3] * inv_uv) % rep.v == 1 == mod_inverse(5, 4).expect()
    # the exact proof identities behind the residue claims
    assert rep.s * rep.y[0] == rep.v + rep.u * rep.z[0]
    assert rep.t * rep.x[0] == rep.v + rep.u * rep.z[1]
    assert rep.s * rep.y[3] == rep.u - rep.v * rep.z[0]
    assert rep.t * rep.x[3] == rep.u + rep.v * rep.z[2]


def test_quad_sweep_small():
    pairs = list(coprime_pairs(6))
    for a, b in pairs:
        for c, d in pairs:
            u = a * c + b * d
            v = a * d - b * c
            if abs(u) <= 1 or abs(v) <= 1:
                continue
            assert quad_pair_inverses(a, b, c, d).all_ok, (a, b, c, d)


def _reinversion_flags(rep, inv=lambda a, m: mod_inverse(a, m).expect()):
    """The report's flags recomputed by re-inverting with inv, as the reference."""
    x, y, u, v = rep.x, rep.y, rep.u, rep.v
    pair_ok = (
        inv(x[0], u) == floor_mod(y[0], u),
        inv(x[1], u) == floor_mod(y[1], u),
        inv(x[2], v) == floor_mod(y[2], v),
        inv(x[3], v) == floor_mod(y[3], v),
    )
    if math.gcd(u, v) != 1:
        return pair_ok, None
    inv_vu = inv(v, u)
    inv_uv = inv(u, v)
    sum_ok = (
        floor_mod(y[0] * inv_vu, u) == inv(rep.s, u),
        floor_mod(x[0] * inv_vu, u) == inv(rep.t, u),
        floor_mod(y[3] * inv_uv, v) == inv(rep.s, v),
        floor_mod(x[3] * inv_uv, v) == inv(rep.t, v),
    )
    return pair_ok, sum_ok


def test_quad_product_flags_equal_reinversion_flags():
    checked = 0
    span = range(-9, 10)
    for a, b, c, d in itertools.product(span, repeat=4):
        try:
            rep = quad_pair_inverses(a, b, c, d)
        except (NotCoprimeError, DomainError, ZeroOperandError):
            continue
        assert (rep.pair_inverse_ok, rep.sum_inverse_ok) == _reinversion_flags(rep), (a, b, c, d)
        checked += 1
    assert checked == 44576


def _direct_flags(rep):
    """The sum and proof flags, each evaluated by its own remainder or identity."""
    s, t, u, v = rep.s, rep.t, rep.u, rep.v
    (x1, _, _, x4), (y1, _, _, y4), (z1, z2, z3) = rep.x, rep.y, rep.z
    sum_ok = ((s * y1 - v) % u == 0, (t * x1 - v) % u == 0,
              (s * y4 - u) % v == 0, (t * x4 - u) % v == 0)
    proof_ok = (s * y1 == v + u * z1, t * x1 == v + u * z2,
                s * y4 == u - v * z1, t * x4 == u + v * z3)
    return sum_ok, proof_ok


# each plant moves one cross term off its closed form: a shifted z breaks the
# proof identities that read it and no sum flag; y1 moved by u breaks the first
# proof identity and keeps its residue, and y1 moved by 1 breaks both
_PROOF_FAULTS = {
    "z1 + 1": (lambda x, y, z, u: (x, y, (z[0] + 1, z[1], z[2])), {0, 2}, set()),
    "z2 + 1": (lambda x, y, z, u: (x, y, (z[0], z[1] + 1, z[2])), {1}, set()),
    "z3 + 1": (lambda x, y, z, u: (x, y, (z[0], z[1], z[2] + 1)), {3}, set()),
    "y1 + u": (lambda x, y, z, u: (x, (y[0] + u, *y[1:]), z), {0}, set()),
    "y1 + 1": (lambda x, y, z, u: (x, (y[0] + 1, *y[1:]), z), {0}, {0}),
}


@pytest.mark.parametrize("fault", sorted(_PROOF_FAULTS))
def test_quad_sum_flags_after_a_failed_proof_identity(monkeypatch, fault):
    # a sum flag is read off its proof identity when that holds, so only a
    # failed identity reaches the remainder; each flag must still equal its
    # own direct test there
    plant, broken_proofs, broken_sums = _PROOF_FAULTS[fault]
    real = quad._cross_terms
    monkeypatch.setattr(quad, "_cross_terms",
                        lambda a, b, c, d: plant(*real(a, b, c, d), a * c + b * d))
    checked = 0
    for (a, b), (c, d) in itertools.product(coprime_pairs(5), repeat=2):
        try:
            rep = quad_pair_inverses(a, b, c, d)
        except DomainError:
            continue
        if rep.sum_inverse_ok is None:
            continue
        sum_ok, proof_ok = _direct_flags(rep)
        assert (rep.sum_inverse_ok, rep.proof_identity_ok) == (sum_ok, proof_ok), (a, b, c, d)
        assert {i for i, ok in enumerate(proof_ok) if not ok} == broken_proofs, (a, b, c, d)
        assert {i for i, ok in enumerate(sum_ok) if not ok} == broken_sums, (a, b, c, d)
        checked += 1
    assert checked > 1000


_wide = st.integers(256, 4096).flatmap(lambda bits: st.integers(1 << (bits - 1), (1 << bits) - 1))
_signed_wide = st.tuples(_wide, st.booleans()).map(lambda t: -t[0] if t[1] else t[0])


@settings(max_examples=30, deadline=None)
@given(_signed_wide, _signed_wide, _signed_wide, _signed_wide)
def test_quad_product_flags_equal_reinversion_flags_wide(a, b, c, d):
    # pairs past the crossover take the batched route, and so does the
    # double-width (v, u) pair of sums; pow is the reference there
    g, h = math.gcd(a, b), math.gcd(c, d)
    a, b, c, d = a // g, b // g, c // h, d // h
    assume(abs(a * c + b * d) > 1 and abs(a * d - b * c) > 1)
    rep = quad_pair_inverses(a, b, c, d)
    want = _reinversion_flags(rep, inv=lambda a, m: pow(a, -1, m))
    assert (rep.pair_inverse_ok, rep.sum_inverse_ok) == want
    assert rep.all_ok
    if rep.sum_inverse_ok is not None:
        u, v, s, t = rep.u, rep.v, rep.s, rep.t
        assert sum_inverse_values(a, b, c, d) == (rep, {
            "s_inv_mod_u": pow(s, -1, u), "t_inv_mod_u": pow(t, -1, u),
            "s_inv_mod_v": pow(s, -1, v), "t_inv_mod_v": pow(t, -1, v)})


def test_positive_case_examples():
    assert positive_case_exact(3, 2, 1, 2) == 3 == mod_inverse(5, 7).expect()
    assert positive_case_exact(2, 1, 1, 3) == 4 == mod_inverse(4, 5).expect()


def test_positive_case_rejects():
    with pytest.raises(DomainError):
        positive_case_exact(1, 1, 1, 1)  # v = 0
    with pytest.raises(DomainError):
        positive_case_exact(-3, 2, 1, 2)
    with pytest.raises(NotCoprimeError):
        positive_case_exact(2, 4, 1, 3)


def test_positive_case_checks_raise_on_wrong_inverses(monkeypatch):
    # inverses shifted by their modulus are still inverses, but they move
    # x1 and y1 off the exact positive-case values
    monkeypatch.setattr(quad, "inverse_pair",
                        lambda a, b: (pow(a, -1, b) + b, pow(b, -1, a) + a))
    with pytest.raises(InvariantError, match="not the inverse"):
        positive_case_exact(3, 2, 1, 2)
    with pytest.raises(InvariantError, match="positivity bound"):
        positive_case_exact(5, 3, 2, 7)


def test_paired_callers_invert_once_per_pair(monkeypatch):
    calls = count_inversions(monkeypatch)

    def count(call, *args):
        calls.clear()
        call(*args)
        return len(calls)

    rep = quad_pair_inverses(3, 2, 1, 2)
    assert math.gcd(rep.u, rep.v) == 1 and rep.sum_inverse_ok is not None
    # the sum flags need gcd(u, v) = 1 but no inverse modulo u or v
    assert count(quad_pair_inverses, 3, 2, 1, 2) == 2
    # sums adds the one (v, u) pair its four values need
    assert count(COMMANDS["sums"].compute, 3, 2, 1, 2) == 3
    assert count(positive_case_exact, 3, 2, 1, 2) == 2
    assert count(reduce_inverse_plus, 7, 3, 2) == 1
    assert count(reduce_inverse_minus, 7, 3, 2) == 1
    assert count(gaussian_bezout_identity, 2, 3, 4, 1) == 1
    assert count(inverse_mod_gaussian_linear, 7, 3) == 1
    # inv derives its classical value from the one signed inversion
    assert count(COMMANDS["inv"].compute, 3, 7, True) == 1
    # the identity's own check takes its pair from inverse_pair
    assert count(reciprocity_check, 7, 3) == 1
    # and the reciprocity sweep holds the pair's second value to a direct
    # inversion and runs solve_diophantine, whose pair is one more: three
    # inversions for each of the four cases (3, b), |b| <= 2
    def sweep_cases():
        return list(verify._reciprocity_cases(verify.SweepConfig(bound=2), [3]))

    assert sweep_cases() == [None] * 4
    assert count(sweep_cases) == 12


def test_positive_case_sweep_small():
    for a in range(1, 9):
        for b in range(1, 9):
            if math.gcd(a, b) != 1:
                continue
            for c in range(1, 9):
                for d in range(1, 9):
                    if math.gcd(c, d) != 1 or a * d == b * c:
                        continue
                    u = a * c + b * d
                    y1 = positive_case_exact(a, b, c, d)
                    assert 0 < y1 < u
