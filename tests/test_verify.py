import multiprocessing
from dataclasses import replace

import pytest

from modrecip import verify
from modrecip.core import DomainError, InvariantError
from modrecip.verify import (
    SweepConfig,
    load_sweep_config,
    run_all,
    run_divergence_sweep,
    run_division_law_sweep,
    run_gaussian_linear_sweep,
    run_gaussian_sweep,
    run_oracle_sweep,
    run_quad_sweep,
    run_reciprocity_sweep,
    run_reduction_sweep,
    run_shift_invariance_sweep,
    run_square_sweep,
    run_unit_contradiction_fixture,
    run_unit_modulus_sweep,
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


def test_load_sweep_config(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text("bound=16  # comment\n\nquad_bound = 5\n")
    config = load_sweep_config(str(path))
    assert config.bound == 16
    assert config.quad_bound == 5
    assert config.k_bound == SweepConfig().k_bound


@pytest.mark.parametrize("text", ["bound\n", "mystery=4\n", "bound=abc\n"])
def test_load_sweep_config_rejects(tmp_path, text):
    path = tmp_path / "sweep.cfg"
    path.write_text(text)
    with pytest.raises(ValueError):
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


@pytest.mark.parametrize(
    "subject, plant, sweep, failure_count, first",
    [
        pytest.param("square_inverse", lambda honest: lambda a, b: honest(a, b) + (a > 3),
                     run_square_sweep, 20, "a=4 b=-5 ", id="square-inverse"),
        pytest.param("gaussian_inverse", _wrong_residue, run_gaussian_sweep, 640,
                     "z=-3-3i w=-3-2i", id="gaussian-residue"),
        pytest.param("extended_gcd", _cofactor_off_by_m, run_oracle_sweep, 140,
                     "a=-7 m=-8 inverse=-7", id="extended-gcd-cofactor"),
        pytest.param("gaussian_inverse", _representative_plus_wz, run_gaussian_sweep, 640,
                     "z=-3-3i w=-3-2i", id="gaussian-representative"),
        # a subject that raises fails its suite once, with the error's type and message
        pytest.param("square_inverse", _raises_from_4, run_square_sweep, 1,
                     "InvariantError: planted fault", id="raising-subject"),
        # and a raising classical-units suite reports no count of designed breaks
        pytest.param("unit_inverse", _raises_from_4,
                     lambda config: run_reduction_sweep(config, classical_units=True), 1,
                     "InvariantError: planted fault", id="raising-classical-subject"),
    ],
)
def test_planted_failure_is_shard_invariant(monkeypatch, subject, plant, sweep, failure_count,
                                            first):
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("the planted failure reaches worker processes only through fork")
    monkeypatch.setattr(verify, subject, plant(getattr(verify, subject)))
    serial = sweep(SMALL)
    sharded = sweep(replace(SMALL, shard_count=3))
    assert serial.failure_count == failure_count
    assert len(serial.failures) == min(failure_count, 5)
    assert serial.failures[0].startswith(first)
    assert serial.note == ""
    assert _outcomes([serial]) == _outcomes([sharded])


def test_results_are_timed():
    result = run_quad_sweep(SMALL)
    assert result.elapsed_s > 0
    assert result.cases_per_s == pytest.approx(result.cases / result.elapsed_s)


def test_classical_units_mode_reports_designed_breaks_only():
    recip = run_reciprocity_sweep(SMALL, classical_units=True)
    assert recip.passed
    assert recip.name == "reciprocity-classical-units"
    assert "designed breaks" in recip.note
    assert int(recip.note.split()[0]) > 0

    red = run_reduction_sweep(SMALL, classical_units=True)
    assert red.passed
    assert int(red.note.split()[0]) > 0


# every suite's case count at SMALL, classical-units suites included
_SMALL_COUNTS = dict(SMALL_CASES) | {name: cases for name, cases, _ in SMALL_CLASSICAL.values()}


@pytest.mark.parametrize(
    "sweep, args, name",
    [
        pytest.param(run_division_law_sweep, (SMALL,), "division-law",
                     id="run_division_law_sweep"),
        pytest.param(run_unit_modulus_sweep, (SMALL,), "unit-modulus-table",
                     id="run_unit_modulus_sweep"),
        pytest.param(run_divergence_sweep, (SMALL,), "classical-divergence",
                     id="run_divergence_sweep"),
        pytest.param(run_oracle_sweep, (SMALL,), "inverse-oracles", id="run_oracle_sweep"),
        pytest.param(run_reciprocity_sweep, (SMALL,), "reciprocity", id="run_reciprocity_sweep"),
        pytest.param(run_reciprocity_sweep, (SMALL, True), "reciprocity-classical-units",
                     id="run_reciprocity_sweep-classical_units"),
        pytest.param(run_shift_invariance_sweep, (SMALL,), "shift-invariance",
                     id="run_shift_invariance_sweep"),
        pytest.param(run_reduction_sweep, (SMALL,), "reduction", id="run_reduction_sweep"),
        pytest.param(run_reduction_sweep, (SMALL, True), "reduction-classical-units",
                     id="run_reduction_sweep-classical_units"),
        pytest.param(run_square_sweep, (SMALL,), "square-inverse", id="run_square_sweep"),
        pytest.param(run_quad_sweep, (SMALL,), "quad-pair", id="run_quad_sweep"),
        pytest.param(run_gaussian_sweep, (SMALL,), "gaussian-inverse", id="run_gaussian_sweep"),
        pytest.param(run_gaussian_linear_sweep, (SMALL,), "gaussian-linear",
                     id="run_gaussian_linear_sweep"),
        pytest.param(run_unit_contradiction_fixture, (), "unit-contradiction-fixture",
                     id="run_unit_contradiction_fixture"),
    ],
)
def test_each_sweep_individually(sweep, args, name):
    # an entry point that ran another suite would report that suite's name and count
    result = sweep(*args)
    assert result.passed, result.failures
    assert (result.name, result.cases) == (name, _SMALL_COUNTS[name])
