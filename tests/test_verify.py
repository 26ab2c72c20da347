import multiprocessing
import re
from dataclasses import replace

import pytest

from modrecip import gaussian, quad, recip, verify
from modrecip.core import DomainError, InverseOutcome, InvariantError
from modrecip.gaussian import GaussianInteger
from modrecip.verify import (
    CLASSICAL_UNITS,
    SUITES,
    SweepConfig,
    load_sweep_config,
    run_all,
    signed_range,
)

SMALL = SweepConfig(
    bound=8,
    k_bound=3,
    gaussian_bound=3,
    shift_bound=6,
    reduce_bound=6,
    square_bound=6,
    quad_bound=4,
    linear_bound=6,
)


def test_signed_range_excludes_zero_and_orders_ascending():
    assert signed_range(3) == [-3, -2, -1, 1, 2, 3]
    assert signed_range(3, start=2) == [-3, -2, 2, 3]


def test_config_validation():
    with pytest.raises(DomainError):
        SweepConfig(bound=1)
    with pytest.raises(DomainError):
        SweepConfig(bound=2**20 + 1)
    with pytest.raises(DomainError):
        SweepConfig(shard_count=0)
    with pytest.raises(DomainError):
        SweepConfig(shard_count=33)
    with pytest.raises(DomainError):
        SweepConfig(k_bound=-1)
    with pytest.raises(DomainError):
        SweepConfig(quad_bound=1)
    # every bound has a cap, named by the error, that its sweeps finish under
    for field, value in (("bound", 100000), ("gaussian_bound", 1000), ("k_bound", 10**6),
                         ("quad_bound", 1000)):
        with pytest.raises(DomainError, match=f"^{field} must be in"):
            SweepConfig(**{field: value})
    assert SweepConfig(bound=200).bound == 200  # acceptance criterion 3


def test_load_sweep_config(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text("bound=16  # comment\n\nquad_bound = 5\n")
    config = load_sweep_config(str(path))
    assert config.bound == 16
    assert config.quad_bound == 5
    assert config.k_bound == SweepConfig().k_bound


@pytest.mark.parametrize("text, bound", [("bound=08\n", 8), ("bound = 0x10\n", 16),
                                         ("bound=+0X1f\n", 31)])
def test_load_sweep_config_takes_the_flag_grammar(tmp_path, text, bound):
    # cli.parse_integer, which --bound uses: decimal, leading zeros included,
    # or hex with a 0x prefix
    path = tmp_path / "sweep.cfg"
    path.write_text(text)
    assert load_sweep_config(str(path)).bound == bound


@pytest.mark.parametrize("text", ["bound\n", "mystery=4\n", "bound=abc\n", "bound=0o10\n",
                                  "bound=0b1000\n"])
def test_load_sweep_config_rejects(tmp_path, text):
    path = tmp_path / "sweep.cfg"
    path.write_text(text)
    with pytest.raises(ValueError):
        load_sweep_config(str(path))


def test_load_sweep_config_names_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_bytes(b"\xffbound=8\n")
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}: 'utf-8' codec can't decode byte 0xff")):
        load_sweep_config(str(path))


def test_all_sweeps_pass_on_small_config():
    results = run_all(SMALL)
    assert all(r.passed for r in results), [(r.name, r.failures) for r in results]
    assert all(r.cases > 0 for r in results)
    names = [r.name for r in results]
    assert "reciprocity" in names and "quad-pair" in names


def _outcomes(results):
    return [(r.name, r.cases, r.failure_count, r.failures, r.note) for r in results]


# suite names and case counts at SMALL, in run order; every note is empty
SMALL_CASES = [
    ("division-law", 272), ("unit-modulus-table", 400), ("classical-divergence", 172),
    ("inverse-oracles", 140), ("reciprocity", 172), ("shift-invariance", 632),
    ("reduction", 952), ("square-inverse", 68), ("quad-pair", 1312),
    ("gaussian-inverse", 640), ("gaussian-linear", 68), ("unit-contradiction-fixture", 3),
]
# what classical-units mode reports in place of the suite named by the key
SMALL_CLASSICAL = {
    "reciprocity": ("reciprocity-classical-units", 172, "30 designed breaks, all on unit operands"),
    "reduction": ("reduction-classical-units", 808, "116 designed breaks, all with |b| = 1"),
}


def test_sharding_is_result_invariant():
    for classical_units in (False, True):
        serial = run_all(SMALL, classical_units)
        sharded = run_all(replace(SMALL, shard_count=3), classical_units)
        assert _outcomes(serial) == _outcomes(sharded)
        expected = [(name, cases, "") for name, cases in SMALL_CASES]
        if classical_units:
            expected = [SMALL_CLASSICAL.get(entry[0], entry) for entry in expected]
        assert _outcomes(serial) == [(name, cases, 0, [], note) for name, cases, note in expected]


def _wrong_residue(honest):
    def planted(z, w):
        rep, canon = honest(z, w)
        return rep, canon + 1
    return planted


def _cofactor_off_by_m(honest):
    # x keeps its residue, so only the Bezout sum shows the fault
    def planted(a, m):
        g, x, y = honest(a, m)
        return g, x + m, y
    return planted


def _representative_plus_wz(honest):
    # still an inverse with the right residue, but not conj(z)*x
    def planted(z, w):
        rep, canon = honest(z, w)
        return rep + w * z, canon
    return planted


def _raises_from_4(honest):
    def planted(a, b):
        if a > 3:
            raise InvariantError("planted fault")
        return honest(a, b)
    return planted


def _plus_one_at_3_mod_5(honest):
    def planted(a, m):
        return honest(a, m) + (abs(a) % 5 == 3)
    return planted


def _first_plus_one_at_3_mod_5(honest):
    def planted(a, m):
        p, s = honest(a, m)
        return p + (abs(a) % 5 == 3), s
    return planted


def _outcome_plus_one_at_3_mod_5(honest):
    def planted(a, m):
        return InverseOutcome(honest(a, m).expect() + (abs(a) % 5 == 3))
    return planted


def _x1_plus_one_at_3_mod_5(honest):
    # the report keeps the flags computed on the honest x1, so they still read all_ok
    def planted(a, b, c, d):
        report = honest(a, b, c, d)
        x1, *rest = report.x
        return replace(report, x=(x1 + (abs(a) % 5 == 3), *rest))
    return planted


def _pair_shifted_at_3_mod_5(honest):
    # (x + b, y - a) leaves a*x + b*y unchanged, so the identity still holds
    def planted(a, b):
        x, y = honest(a, b)
        return (x + b, y - a) if abs(a) % 5 == 3 else (x, y)
    return planted


def _solution_shifted_at_3_mod_5(honest):
    # (x + b, k + a) still solves a*x - k*b = 1, but x leaves b's window
    def planted(a, b):
        x, k = honest(a, b)
        return (x + b, k + a) if abs(a) % 5 == 3 else (x, k)
    return planted


def _linear_shifted_at_3_mod_5(honest):
    # adding the modulus b + a*i keeps an inverse, but not the documented form
    def planted(a, b):
        value = honest(a, b)
        return value + GaussianInteger(b, a) if abs(a) % 5 == 3 else value
    return planted


def _t_inverse_mod_v_plus_one(honest):
    def planted(a, b, c, d):
        report, values = honest(a, b, c, d)
        return report, values | {"t_inv_mod_v": values["t_inv_mod_v"] + 1}
    return planted


@pytest.mark.parametrize(
    "module, subject, plant, suite, failure_count, first",
    [
        pytest.param(verify, "square_inverse", lambda honest: lambda a, b: honest(a, b) + (a > 3),
                     SUITES["square-inverse"], 20, "a=4 b=-5 ", id="square-inverse"),
        pytest.param(verify, "gaussian_inverse", _wrong_residue, SUITES["gaussian-inverse"], 640,
                     "z=-3-3i w=-3-2i", id="gaussian-residue"),
        pytest.param(verify, "extended_gcd", _cofactor_off_by_m, SUITES["inverse-oracles"], 140,
                     "a=-7 m=-8 inverse=-7", id="extended-gcd-cofactor"),
        pytest.param(verify, "gaussian_inverse", _representative_plus_wz,
                     SUITES["gaussian-inverse"], 640, "z=-3-3i w=-3-2i",
                     id="gaussian-representative"),
        # the oracle suite takes its windowed value from mod_inverse
        pytest.param(verify, "mod_inverse", _outcome_plus_one_at_3_mod_5,
                     SUITES["inverse-oracles"], 32, "a=-3 m=-8 inverse=-2", id="mod-inverse"),
        # the climb behind inverse_via_reciprocity, patched where recip binds it
        pytest.param(recip, "reciprocal_pair", _first_plus_one_at_3_mod_5,
                     SUITES["inverse-oracles"], 32, "a=-3 m=-8 inverse=-3",
                     id="reciprocal-pair-first"),
        # the reciprocity sweep's direct inversion of (b, a) checks the report's partner
        pytest.param(verify, "inverse", _plus_one_at_3_mod_5, SUITES["reciprocity"],
                     40, "a=-8 b=-3 lhs=25 rhs=25 k=1 inv_b=-3", id="reciprocity-partner"),
        # a pair off its windows that keeps the identity: only that direct inversion sees it
        pytest.param(recip, "inverse_pair", _pair_shifted_at_3_mod_5, SUITES["reciprocity"],
                     40, "a=-8 b=-7 lhs=57 rhs=57 k=1 inv_b=1", id="reciprocity-shifted-pair"),
        # solve_diophantine is held to its equation and to the windowed inverse
        pytest.param(verify, "solve_diophantine", _solution_shifted_at_3_mod_5,
                     SUITES["reciprocity"], 40, "a=-8 b=-7 lhs=57 rhs=57 k=1 inv_b=-7 solve=(-8, -9)",
                     id="diophantine-window"),
        # the sums values are held to s*inv = 1 and t*inv = 1 modulo u and v
        pytest.param(verify, "sum_inverse_values", _t_inverse_mod_v_plus_one,
                     SUITES["quad-pair"], 64, "a=1 b=1 c=1 d=4", id="sum-inverse-values"),
        # x_i*y_i = 1 modulo u or v is checked by the sweep, not read from the report's flags;
        # quad binds the name too, for the report that sum_inverse_values builds
        pytest.param((quad, verify), "quad_pair_inverses", _x1_plus_one_at_3_mod_5,
                     SUITES["quad-pair"], 368, "a=-3 b=-4 c=-4 d=-3", id="quad-pair-values"),
        # the linear Gaussian inverse is held to two direct inversions, not to the
        # divisibility it checks itself, and divides to a residue it must refuse
        pytest.param(verify, "inverse_mod_gaussian_linear", _linear_shifted_at_3_mod_5,
                     SUITES["gaussian-linear"], 16, "a=-3 b=-5 inverse=-7-4i",
                     id="gaussian-linear-form"),
        pytest.param((gaussian, verify), "divides", lambda honest: lambda d, n: True,
                     SUITES["gaussian-linear"], 68, "a=-6 b=-5 inverse=-1-1i",
                     id="gaussian-linear-divides"),
        # gaussian.inverse_pair off its windows keeps the norms' Bezout identity, so only
        # gaussian-linear, which holds its pair to two direct inversions, sees the shift
        pytest.param(gaussian, "inverse_pair", _pair_shifted_at_3_mod_5,
                     SUITES["gaussian-linear"], 16, "a=-3 b=-5 inverse=-7-4i",
                     id="gaussian-pair-shifted"),
        pytest.param(gaussian, "inverse_pair", _first_plus_one_at_3_mod_5,
                     SUITES["gaussian-inverse"], 352, "z=-3-3i w=-3-2i", id="gaussian-pair-first"),
        # a subject that raises fails its suite once, with the error's type and message
        pytest.param(verify, "square_inverse", _raises_from_4, SUITES["square-inverse"], 1,
                     "InvariantError: planted fault", id="raising-subject"),
        # and a raising classical-units suite reports no count of designed breaks
        pytest.param(verify, "unit_inverse", _raises_from_4, CLASSICAL_UNITS["reduction"], 1,
                     "InvariantError: planted fault", id="raising-classical-subject"),
    ],
)
def test_planted_failure_is_shard_invariant(monkeypatch, module, subject, plant, suite,
                                            failure_count, first):
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("the planted failure reaches worker processes only through fork")
    for target in module if isinstance(module, tuple) else (module,):
        monkeypatch.setattr(target, subject, plant(getattr(target, subject)))
    serial = suite.run(SMALL)
    sharded = suite.run(replace(SMALL, shard_count=3))
    assert serial.failure_count == failure_count
    assert len(serial.failures) == min(failure_count, 5)
    assert serial.failures[0].startswith(first)
    assert serial.note == ""
    assert _outcomes([serial]) == _outcomes([sharded])


def test_results_are_timed():
    result = SUITES["quad-pair"].run(SMALL)
    assert result.elapsed_s > 0
    assert result.cases_per_s == pytest.approx(result.cases / result.elapsed_s)


def test_classical_units_mode_reports_designed_breaks_only():
    recip = CLASSICAL_UNITS["reciprocity"].run(SMALL)
    assert recip.passed
    assert recip.name == "reciprocity-classical-units"
    assert "designed breaks" in recip.note
    assert int(recip.note.split()[0]) > 0

    red = CLASSICAL_UNITS["reduction"].run(SMALL)
    assert red.passed
    assert int(red.note.split()[0]) > 0


# every suite's case count at SMALL, classical-units suites included
_SMALL_COUNTS = dict(SMALL_CASES) | {name: cases for name, cases, _ in SMALL_CLASSICAL.values()}


@pytest.mark.parametrize(
    "alias, args, name",
    [
        pytest.param("run_division_law_sweep", (SMALL,), "division-law",
                     id="run_division_law_sweep"),
        pytest.param("run_unit_modulus_sweep", (SMALL,), "unit-modulus-table",
                     id="run_unit_modulus_sweep"),
        pytest.param("run_divergence_sweep", (SMALL,), "classical-divergence",
                     id="run_divergence_sweep"),
        pytest.param("run_oracle_sweep", (SMALL,), "inverse-oracles", id="run_oracle_sweep"),
        pytest.param("run_reciprocity_sweep", (SMALL, False), "reciprocity",
                     id="run_reciprocity_sweep"),
        pytest.param("run_reciprocity_sweep", (SMALL, True), "reciprocity-classical-units",
                     id="run_reciprocity_sweep-classical_units"),
        pytest.param("run_shift_invariance_sweep", (SMALL,), "shift-invariance",
                     id="run_shift_invariance_sweep"),
        pytest.param("run_reduction_sweep", (SMALL, False), "reduction", id="run_reduction_sweep"),
        pytest.param("run_reduction_sweep", (SMALL, True), "reduction-classical-units",
                     id="run_reduction_sweep-classical_units"),
        pytest.param("run_square_sweep", (SMALL,), "square-inverse", id="run_square_sweep"),
        pytest.param("run_quad_sweep", (SMALL,), "quad-pair", id="run_quad_sweep"),
        pytest.param("run_gaussian_sweep", (SMALL,), "gaussian-inverse", id="run_gaussian_sweep"),
        pytest.param("run_gaussian_linear_sweep", (SMALL,), "gaussian-linear",
                     id="run_gaussian_linear_sweep"),
        pytest.param("run_unit_contradiction_fixture", (SMALL,), "unit-contradiction-fixture",
                     id="run_unit_contradiction_fixture"),
    ],
)
def test_each_sweep_individually(alias, args, name):
    # the verify.run_* aliases that perfbench/layers.py calls, named as it names them; an
    # alias that ran another suite would report that suite's name and count
    result = getattr(verify, alias)(*args)
    assert result.passed, result.failures
    assert (result.name, result.cases) == (name, _SMALL_COUNTS[name])
