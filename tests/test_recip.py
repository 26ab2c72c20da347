import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from modrecip.core import InverseFailure, NotCoprimeError, ZeroOperandError, mod_inverse
from modrecip.recip import (
    inverse_via_reciprocity,
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


def test_post_condition_survives_optimize_flag():
    # a wrong unit base case must be caught by the final check even when
    # the interpreter strips asserts
    script = textwrap.dedent("""
        from modrecip import recip
        from modrecip.core import InvariantError

        right = recip.unit_inverse
        recip.unit_inverse = lambda a, m: right(a, m) + 1
        caught = 0
        for a, m in ((7, 22), (3, -5), (-2, -5), (97, 89)):
            try:
                recip.inverse_via_reciprocity(a, m)
            except InvariantError:
                caught += 1
        print(__debug__, caught)
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "4"]


def test_recursion_survives_fibonacci_worst_case():
    # consecutive Fibonacci numbers maximize the reduction step count:
    # every quotient is 1, here over more than 4096 bits
    f0, f1 = 1, 1
    while f1.bit_length() <= 4096:
        f0, f1 = f1, f0 + f1
    for a, m in ((f0, f1), (f1, f0), (-f0, f1), (f0, -f1)):
        assert inverse_via_reciprocity(a, m).expect() == mod_inverse(a, m).expect()


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
