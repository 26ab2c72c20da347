"""The library surface that the benchmark in perfbench/ calls by name.

This runs against the modrecip already imported, so a renamed sweep shows
up here, not first as a broken benchmark run.
"""

import sys
from pathlib import Path

import modrecip

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import layers  # noqa: E402


def test_every_suite_the_layer_probe_runs_exists():
    missing = {name for name, _ in layers.SUITES if not callable(getattr(modrecip.verify, name, None))}
    assert not missing, sorted(missing)

