"""The library surface that the benchmark in perfbench/ calls by name.

This runs against the modrecip already imported, so a renamed sweep, routine
or inverse route shows up here, not first as a broken benchmark run.
"""

import sys
from pathlib import Path

import modrecip

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import layers  # noqa: E402
import workloads  # noqa: E402


def test_every_suite_the_layer_probe_runs_exists():
    missing = {name for name, _ in layers.SUITES if not callable(getattr(modrecip.verify, name, None))}
    assert not missing, sorted(missing)


def test_every_routine_the_layer_probe_times_exists():
    # the traced probe is the only other caller of these getters
    missing = {prefix for prefix, _, get_fn, *_ in layers.ROUTINES if not callable(get_fn(modrecip))}
    assert not missing, sorted(missing)


def test_every_inverse_route_the_wide_workload_calls_exists():
    # wide-inverse calls each route as a package export named after its module
    missing = {f"{module}.{route}" for module, route in workloads.ROUTES
               if not callable(getattr(modrecip, route, None))
               or getattr(getattr(modrecip, module), route, None) is not getattr(modrecip, route)}
    assert not missing, sorted(missing)
