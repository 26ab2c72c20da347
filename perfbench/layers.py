"""Per-layer probe of the traced run: each module timed from outside.

Every metric is ``<module>.<function>.<width>.<stat>`` (or a ``verify`` /
``cli`` name), measured by timing calls into the module's public functions:

* ``core``, ``recip``, ``identities``, ``gaussian``: the median over rounds
  of the mean call time over a fixed, seeded input set of one width
  (``small`` is the sweep range, |operand| <= the default sweep bound).
* ``verify``: each public ``run_*_sweep`` once at its default bounds, plus
  the classical-units variants and the quad sweep on two shards, and one
  ``modrecip verify --json`` process at the default bounds.
* ``cli``: interpreter start, package import, in-process ``cli.main`` and
  one child process per compute subcommand.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import random
import statistics
import sys
import time

from workloads import child_env, run_child, signed_bits, valid_operands

WIDTHS = ("small", 256, 1024, 4096)
# (inputs per round, rounds) by width: about the same wall time per metric
BATCH = {"small": (400, 7), 256: (40, 5), 1024: (12, 5), 4096: (3, 3)}
PROCESS_SAMPLES = 5


def _like(sub):
    return lambda x: valid_operands(sub, x)


# (metric prefix, widths, function from the package, operand kinds, small bound, validity)
# Operand kind "w" is an operand of the probed width, "k" a multiplier in [-10, 10].
ROUTINES = [
    ("core.mod_inverse", WIDTHS, lambda lib: lib.mod_inverse, "ww", 64, _like("inv")),
    ("core.extended_gcd", WIDTHS, lambda lib: lib.extended_gcd, "ww", 64, _like("inv")),
    ("core.pow_inverse", WIDTHS, lambda lib: lambda a, m: pow(a, -1, m), "ww", 64, _like("inv")),
    ("recip.inverse_via_reciprocity", WIDTHS, lambda lib: lib.inverse_via_reciprocity, "ww", 64, _like("inv")),
    ("recip.reciprocity_check", WIDTHS, lambda lib: lib.reciprocity_check, "ww", 64, _like("inv")),
    ("recip.solve_diophantine", WIDTHS, lambda lib: lib.solve_diophantine, "ww", 64, _like("inv")),
    ("identities.reduce_inverse_plus", WIDTHS, lambda lib: lib.reduce_inverse_plus, "wwk", 40,
     _like("reduce")),
    ("identities.reduce_inverse_minus", WIDTHS, lambda lib: lib.reduce_inverse_minus, "wwk", 40,
     _like("reduce-minus")),
    ("identities.square_inverse", WIDTHS, lambda lib: lib.square_inverse, "ww", 30, _like("square-inv")),
    ("identities.quad_pair_inverses", WIDTHS, lambda lib: lib.quad_pair_inverses, "wwww", 12, _like("quad")),
    ("identities.shift_invariance", ("small",), lambda lib: lib.shift_invariance, "wwk", 40,
     lambda x: math.gcd(x[0], x[1]) == 1 and x[2] * x[0] + x[1] != 0),
    ("gaussian.gaussian_inverse", WIDTHS, lambda lib: lib.gaussian_inverse, "wwww", 8, _like("gauss-inv")),
    ("gaussian.gaussian_divmod", ("small",), lambda lib: lib.gaussian_divmod, "wwww", 8, lambda x: True),
    ("gaussian.inverse_mod_gaussian_linear", ("small",), lambda lib: lib.inverse_mod_gaussian_linear,
     "ww", 30, _like("gauss-linear-inv")),
]
GAUSSIAN_ARGS = {"gaussian.gaussian_inverse", "gaussian.gaussian_divmod"}

SUITES = [  # (function in modrecip.verify, classical_units)
    ("run_division_law_sweep", None), ("run_unit_modulus_sweep", None),
    ("run_divergence_sweep", None), ("run_oracle_sweep", None),
    ("run_reciprocity_sweep", False), ("run_reciprocity_sweep", True),
    ("run_shift_invariance_sweep", None), ("run_reduction_sweep", False),
    ("run_reduction_sweep", True), ("run_square_sweep", None), ("run_quad_sweep", None),
    ("run_gaussian_sweep", None), ("run_gaussian_linear_sweep", None),
    ("run_unit_contradiction_fixture", None),
]

# Case counts of `modrecip verify` at its default bounds.
DEFAULT_CASES = {
    "division-law": 16512,
    "unit-modulus-table": 400,
    "classical-divergence": 10076,
    "inverse-oracles": 9820,
    "reciprocity": 10076,
    "shift-invariance": 82196,
    "reduction": 157752,
    "square-inverse": 2100,
    "quad-pair": 125984,
    "gaussian-inverse": 39168,
    "gaussian-linear": 2100,
    "unit-contradiction-fixture": 3,
}


def verify_ok(proc) -> bool:
    """Check a `modrecip verify --json` child: exit 0, passed, and exactly the default case counts."""
    if proc.returncode != 0 or "Traceback" in proc.stderr:
        return False
    report = json.loads(proc.stdout)
    return report["passed"] is True and {s["name"]: s["cases"] for s in report["suites"]} == DEFAULT_CASES


SUITE_CASES = DEFAULT_CASES | {"reciprocity-classical-units": 10076, "reduction-classical-units": 155808}

# One known-good call per compute subcommand, as in the README.
CLI_ARGV = {
    "inv": ["inv", "7", "22"],
    "classical-inv": ["classical-inv", "3", "-5"],
    "recip": ["recip", "-3", "-5"],
    "reduce": ["reduce", "7", "1", "3"],
    "reduce-minus": ["reduce", "--minus", "7", "1", "3"],
    "square-inv": ["square-inv", "3", "2"],
    "quad": ["quad", "3", "2", "1", "2"],
    "sums": ["sums", "3", "2", "1", "2"],
    "gauss-inv": ["gauss-inv", "1+1i", "2+1i"],
    "gauss-linear-inv": ["gauss-linear-inv", "3", "2"],
}
MAIN_BATCH = (20, 5)


def metric_units() -> dict[str, str]:
    """Every per-layer metric the probe reports, with its unit, in report order."""
    units = {}
    for prefix, widths, *_ in ROUTINES:
        for width in widths:
            units[f"{prefix}.{width}.p50_us"] = "us"
    units["core.mod_inverse.small.p50_ns"] = "ns"
    for name in SUITE_CASES:
        units |= {f"verify.{name}.wall_s": "s", f"verify.{name}.cases_per_s": "1/s",
                  f"verify.{name}.cases": "count"}
    units["verify.quad-pair.shard2_speedup"] = "ratio"
    units["verify.default.process_wall_s"] = "s"
    units |= {"cli.interpreter_start_ms": "ms", "cli.import_ms": "ms"}
    for kind in ("main", "process"):
        units |= {f"cli.{kind}.{sub}.p50_us": "us" for sub in CLI_ARGV}
    units |= {"trace.untraced_wall_s": "s", "trace.traced_wall_s": "s", "trace.overhead_s": "s"}
    return units


def routine_inputs(seed: int) -> dict[str, list[tuple]]:
    """The seeded operand tuples of every routine metric, keyed by metric prefix and width."""
    rng = random.Random(seed)
    inputs = {}
    for prefix, widths, _, kinds, bound, valid in ROUTINES:
        for width in widths:
            rows = []
            while len(rows) < BATCH[width][0]:
                x = tuple(rng.randint(-10, 10) if kind == "k"
                          else rng.choice((1, -1)) * rng.randint(1, bound) if width == "small"
                          else signed_bits(rng, width) for kind in kinds)
                if valid(x):
                    rows.append(x)
            inputs[f"{prefix}.{width}"] = rows
    return inputs


def _batch_us(fn, rows, rounds) -> float:
    per_call = []
    for _ in range(rounds):
        t0 = time.perf_counter_ns()
        for args in rows:
            fn(*args)
        per_call.append((time.perf_counter_ns() - t0) / len(rows))
    return statistics.median(per_call) / 1e3


def probe_routines(lib, seed: int, tracer) -> dict[str, float]:
    out = {}
    inputs = routine_inputs(seed)
    for prefix, widths, get_fn, *_ in ROUTINES:
        fn = get_fn(lib)
        for width in widths:
            rows = inputs[f"{prefix}.{width}"]
            if prefix in GAUSSIAN_ARGS:
                rows = [(lib.GaussianInteger(a, b), lib.GaussianInteger(c, d)) for a, b, c, d in rows]
            tracer.begin(f"{prefix}.{width}")
            out[f"{prefix}.{width}.p50_us"] = _batch_us(fn, rows, BATCH[width][1])
            tracer.end()
    out["core.mod_inverse.small.p50_ns"] = out["core.mod_inverse.small.p50_us"] * 1e3
    return out


def probe_verify(lib, tracer) -> tuple[dict[str, float], list[str]]:
    verify = lib.verify
    out, problems = {}, []
    config = verify.SweepConfig()

    def timed(label, call):
        tracer.begin(label)
        t0 = time.perf_counter()
        result = call()
        wall = time.perf_counter() - t0
        tracer.end()
        if not result.passed or result.cases != SUITE_CASES[result.name]:
            problems.append(f"{label}: passed={result.passed} cases={result.cases}")
        return result, wall

    for func, classical in SUITES:
        fn = getattr(verify, func)
        args = (config,) if classical is None else (config, classical)
        result, wall = timed(f"verify.{func}", lambda: fn(*args))
        out |= {f"verify.{result.name}.wall_s": wall, f"verify.{result.name}.cases": result.cases,
                f"verify.{result.name}.cases_per_s": result.cases / wall}
    two = verify.SweepConfig(shard_count=2)
    _, wall2 = timed("verify.run_quad_sweep.shards2", lambda: verify.run_quad_sweep(two))
    out["verify.quad-pair.shard2_speedup"] = out["verify.quad-pair.wall_s"] / wall2

    # The ROADMAP's end-to-end number: `modrecip verify` at its default bounds, as a process.
    tracer.begin("verify.default.process")
    t0 = time.perf_counter()
    proc = run_child([sys.executable, "-m", "modrecip", "verify", "--json"], child_env())
    out["verify.default.process_wall_s"] = time.perf_counter() - t0
    tracer.end()
    if not verify_ok(proc):
        problems.append(f"verify at default bounds: exit {proc.returncode}")
    return out, problems


def _process_ms(argv, env, problems) -> float:
    times = []
    for _ in range(PROCESS_SAMPLES):
        t0 = time.perf_counter_ns()
        proc = run_child(argv, env)
        times.append((time.perf_counter_ns() - t0) / 1e6)
        if proc.returncode != 0 or "Traceback" in proc.stderr:
            problems.append(f"{argv[1:]}: exit {proc.returncode}")
    return statistics.median(times)


def probe_cli(lib, tracer) -> tuple[dict[str, float], list[str]]:
    cli = importlib.import_module("modrecip.cli")
    out, problems = {}, []
    env = child_env()
    py = sys.executable
    tracer.begin("cli.interpreter_start")
    out["cli.interpreter_start_ms"] = _process_ms([py, "-c", "pass"], env, problems)
    tracer.end()
    tracer.begin("cli.import")
    out["cli.import_ms"] = _process_ms([py, "-c", "import modrecip"], env, problems)
    tracer.end()
    calls, rounds = MAIN_BATCH
    for sub, argv in CLI_ARGV.items():
        tracer.begin(f"cli.main.{sub}")
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(list(argv)) != 0:
                problems.append(f"cli.main {argv}: nonzero exit")
            out[f"cli.main.{sub}.p50_us"] = _batch_us(lambda: cli.main(list(argv)), [()] * calls, rounds)
        tracer.end()
        tracer.begin(f"cli.process.{sub}")
        out[f"cli.process.{sub}.p50_us"] = _process_ms([py, "-m", "modrecip", *argv], env, problems) * 1e3
        tracer.end()
    return out, problems


def probe(lib, seed: int, tracer) -> tuple[dict[str, float], list[str]]:
    """All per-layer metrics except the tracing overhead, and any failed probe checks."""
    out = probe_routines(lib, seed, tracer)
    verify_out, problems = probe_verify(lib, tracer)
    cli_out, cli_problems = probe_cli(lib, tracer)
    return out | verify_out | cli_out, problems + cli_problems
