"""Acceptance gate: one test per criterion, each printing a PASS line.

Expected values are either fixed regression constants or recomputed here
with independent brute-force arithmetic; sweep budgets are wall-clock.
"""

import math
import time

from modrecip.bench import run_bench
from modrecip.cli import main
from modrecip.core import classical_inverse, mod_inverse
from modrecip.identities import reduce_inverse_plus
from modrecip.verify import (
    SweepConfig,
    run_gaussian_sweep,
    run_oracle_sweep,
    run_quad_sweep,
    run_reciprocity_sweep,
    run_reduction_sweep,
    run_shift_invariance_sweep,
    run_square_sweep,
)


def _report(capsys, criterion, elapsed, budget):
    with capsys.disabled():
        print(f"ACCEPTANCE {criterion}: PASS ({elapsed:.3f}s, budget {budget:g}s)")


def _brute_inv(a, m):
    # window search / closed form, independent of the library under test
    if abs(m) == 1:
        return (1 if a > 0 else 0) if m == 1 else (0 if a > 0 else -1)
    window = range(1, m) if m > 0 else range(m + 1, 0)
    for x in window:
        if (a * x - 1) % m == 0:
            return x
    raise AssertionError(f"no inverse of {a} mod {m}")


def test_criterion_1_unit_inverse_regression(capsys):
    assert main(["inv", "7", "22"]) == 0
    assert capsys.readouterr().out == "19\n"

    t0 = time.perf_counter()
    direct = mod_inverse(7, 22).expect()
    replay_new = reduce_inverse_plus(7, 1, 3)
    replay_classical = (
        3 * (7 - mod_inverse(1, 3).expect()) + classical_inverse(7, 1).expect()
    )
    elapsed = time.perf_counter() - t0

    assert direct == 19
    assert replay_new == 3 * (7 - 1) + 1 == 19
    assert replay_classical == 3 * (7 - 1) + 0 == 18
    assert replay_classical != direct
    assert elapsed < 0.001
    _report(capsys, "1 unit-inverse regression", elapsed, 0.001)


def test_criterion_2_reciprocity_exhaustive(capsys):
    t0 = time.perf_counter()
    result = run_reciprocity_sweep(SweepConfig(bound=64))
    elapsed = time.perf_counter() - t0
    assert result.passed, result.failures
    assert result.cases == 10076  # every coprime pair with 1 <= |a|,|b| <= 64
    assert elapsed < 2.0
    _report(capsys, "2 reciprocity sweep |a|,|b|<=64", elapsed, 2.0)


def test_criterion_3_oracle_equivalence(capsys):
    t0 = time.perf_counter()
    result = run_oracle_sweep(SweepConfig(bound=200))
    elapsed = time.perf_counter() - t0
    assert result.passed, result.failures
    assert result.cases == 97052  # coprime (a, m), 1 < |m| <= 200, |a| <= 200
    assert elapsed < 5.0
    _report(capsys, "3 oracle equivalence |a|,|m|<=200", elapsed, 5.0)


def test_criterion_4_corollary_sweeps(capsys):
    config = SweepConfig()  # stated bounds: 40 (shift, reduce), 30 (square), 12 (quad)
    t0 = time.perf_counter()
    results = [
        run_shift_invariance_sweep(config),
        run_reduction_sweep(config),
        run_square_sweep(config),
        run_quad_sweep(config),
    ]
    elapsed = time.perf_counter() - t0
    for result in results:
        assert result.passed, (result.name, result.failures)
        assert result.cases > 0

    # the four exact proof identities, re-derived here from scratch
    checked = 0
    values = [n for n in range(-5, 6) if n != 0]
    for a in values:
        for b in values:
            if math.gcd(a, b) != 1:
                continue
            inv_ab, inv_ba = _brute_inv(a, b), _brute_inv(b, a)
            s = a * a + b * b
            for c in values:
                for d in values:
                    if math.gcd(c, d) != 1:
                        continue
                    u = a * c + b * d
                    v = a * d - b * c
                    if abs(u) <= 1 or abs(v) <= 1 or math.gcd(u, v) != 1:
                        continue
                    inv_cd, inv_dc = _brute_inv(c, d), _brute_inv(d, c)
                    t = c * c + d * d
                    x1 = a * inv_dc + b * (d - inv_cd)
                    x4 = a * inv_cd - b * (c - inv_dc)
                    y1 = c * (a - inv_ba) + d * inv_ab
                    y4 = c * inv_ab - d * (a - inv_ba)
                    z1 = a * (a - inv_ba) + b * inv_ab
                    z2 = c * inv_dc + d * (d - inv_cd)
                    z3 = c * (c - inv_dc) + d * inv_cd
                    assert s * y1 == v + u * z1, (a, b, c, d)
                    assert t * x1 == v + u * z2, (a, b, c, d)
                    assert s * y4 == u - v * z1, (a, b, c, d)
                    assert t * x4 == u + v * z3, (a, b, c, d)
                    checked += 1
    assert checked > 1000
    assert elapsed < 10.0
    _report(capsys, "4 corollary sweeps (shift/reduce/square/quad)", elapsed, 10.0)


def test_criterion_5_gaussian_sweep(capsys):
    t0 = time.perf_counter()
    result = run_gaussian_sweep(SweepConfig())  # components in [-8, 8] \ {0}
    elapsed = time.perf_counter() - t0
    assert result.passed, result.failures
    assert result.cases == 39168
    assert elapsed < 5.0
    _report(capsys, "5 gaussian inversion sweep [-8,8]", elapsed, 5.0)


def test_criterion_6_unit_modulus_table(capsys):
    t0 = time.perf_counter()
    for a in range(1, 101):
        assert mod_inverse(a, 1).expect() == 1
        assert mod_inverse(-a, 1).expect() == 0
        assert mod_inverse(a, -1).expect() == 0
        assert mod_inverse(-a, -1).expect() == -1
    elapsed = time.perf_counter() - t0
    _report(capsys, "6 unit-modulus branch table", elapsed, 1.0)


def test_criterion_7_bench_agreement(capsys):
    t0 = time.perf_counter()
    r256 = run_bench(256, 1000, seed=20260809)
    r1024 = run_bench(1024, 1000, seed=20260810)
    elapsed = time.perf_counter() - t0
    for report in (r256, r1024):
        assert report.agreement_count == report.iterations == 1000
        assert report.median_ns_reciprocity > 0
        assert report.median_ns_ext_gcd > 0
        assert report.median_ns_pow > 0
    assert elapsed < 30.0
    _report(capsys, "7 bench agreement 256/1024-bit", elapsed, 30.0)
    with capsys.disabled():
        for report in (r256, r1024):
            print(
                f"  bench {report.bit_width}-bit: reciprocity "
                f"{report.median_ns_reciprocity} ns, ext-gcd "
                f"{report.median_ns_ext_gcd} ns, pow "
                f"{report.median_ns_pow} ns (medians, not thresholded)"
            )
