"""Seeded benchmark of modrecip: two closed-loop workloads and a traced per-layer run.

    python3 perfbench/run.py --workload wide-inverse --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` beside this directory, and child
processes get the same ``src/`` on ``PYTHONPATH``.  One caller runs whole
passes of the workload's fixed operation list, one operation at a time,
until ``--seconds`` have passed; every outcome is checked after its pass.
After each untraced pass the set-up (import and plan build) is timed once
more, so set-up samples come from the same stretch of time as the passes.

The last line of standard output is the result object (``correct``,
``attempted``, ``failed``, ``metrics``); the line before it holds the run's
metadata and details.  ``--trace 0`` reports the end-to-end metrics.
``--trace 1`` alternates untraced and traced passes, probes every layer
(``layers.py``), reports the per-layer metrics with the tracing overhead,
and writes the run's spans to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
from spans import Tracer
from workloads import BUILDERS, ROOT, SRC

TRACE_DIR = ROOT / ".perfbench_out"


def import_fresh():
    """Import modrecip from src/ anew, dropping any copy imported before."""
    for name in [n for n in sys.modules if n == "modrecip" or n.startswith("modrecip.")]:
        del sys.modules[name]
    lib = importlib.import_module("modrecip")
    if Path(lib.__file__).resolve().parent != (SRC / "modrecip").resolve():
        raise ImportError(f"modrecip came from {lib.__file__}, not {SRC}")
    return lib


def timed_setup(build, seed: int):
    """Import modrecip anew and build the plan: (package, plan, seconds taken)."""
    t0 = time.perf_counter()
    lib = import_fresh()
    plan = build(lib, seed)
    took = time.perf_counter() - t0
    gc.collect()  # drop the previous import's cycles, so peak RSS does not depend on the repeat count
    return lib, plan, took


def run_pass(ops, tracer=None) -> tuple[list[int], list, list[int]]:
    """Run every op once, in order: (stamps ns, outcomes, per-op latencies ns).

    ``stamps[i]`` is taken before op ``i`` and ``stamps[-1]`` after the last
    op, so a stretch of ops is timed with every span call of a traced pass.
    """
    outcomes, latencies = [], []
    stamps = [time.perf_counter_ns()]
    if tracer:
        tracer.begin("pass")
    for op in ops:
        if tracer:
            tracer.begin(op.name)
        start = time.perf_counter_ns()
        try:
            out = op.call()
        except Exception as exc:  # an error outcome is checked like a value
            out = exc
        latencies.append(time.perf_counter_ns() - start)
        if tracer:
            tracer.end()
        stamps.append(time.perf_counter_ns())
        outcomes.append(out)
    if tracer:
        tracer.end()
    return stamps, outcomes, latencies


def passes_check(op, out) -> bool:
    try:
        return bool(op.check(out))
    except Exception:  # a malformed outcome fails its check
        return False


def measure(plan, seconds: float, tracer=None, resetup=None) -> dict:
    """Run whole passes until ``seconds`` have passed; with a tracer, every other pass is traced.

    ``resetup``, if given, is called after every untraced pass and returns
    one more set-up time (s) for the run's ``setups`` sample.
    """
    setups: list[float] = []
    stamps: dict[bool, list[list[int]]] = {False: [], True: []}  # per pass, as run_pass gives them
    latencies: dict[bool, list[list[int]]] = {False: [], True: []}  # per pass, per op (ns)
    attempted = failed = unexpected = 0
    failures: list[str] = []
    start = time.perf_counter()
    n, min_passes = 0, 1 if tracer is None else 2  # a traced run needs one pass of each kind
    while n < min_passes or time.perf_counter() - start < seconds:
        traced = tracer is not None and n % 2 == 1
        st, outcomes, lat = run_pass(plan.ops, tracer if traced else None)
        stamps[traced].append(st)
        latencies[traced].append(lat)
        for op, out in zip(plan.ops, outcomes):
            attempted += 1
            if not passes_check(op, out):
                failed += 1
                unexpected += not op.known_defect
                if len(failures) < 10:
                    failures.append(f"{op.name}: {_describe(out)}")
        if resetup and not traced:
            setups.append(resetup())
        n += 1
    return {"stamps": stamps, "latencies": latencies, "attempted": attempted, "failed": failed,
            "unexpected": unexpected, "failures": failures, "passes": n, "setups": setups}


def fastest(plan, values: list[float]) -> list[int]:
    """Indices of the fastest ``plan.fast_share`` of ``values`` (at least one)."""
    keep = max(1, math.ceil(plan.fast_share * len(values)))
    return sorted(range(len(values)), key=values.__getitem__)[:keep]


def pass_walls(stamps: list[list[int]]) -> list[float]:
    return [(st[-1] - st[0]) / 1e9 for st in stamps]


def wall_and_latencies(plan, stamps: list[list[int]], passes: list[list[int]]) -> tuple[float, list[float]]:
    """The wall time (s) of one pass and the op latencies (us), from the fastest chunk instances.

    Each chunk of ``plan.chunk`` consecutive ops keeps the fastest
    ``plan.fast_share`` of its instances (one per pass); the wall time is the
    sum over chunks of their median time, and the latencies are those of the
    ops in the kept instances.
    """
    wall, latencies = 0.0, []
    for lo in range(0, len(passes[0]), plan.chunk):
        hi = min(lo + plan.chunk, len(passes[0]))
        keep = fastest(plan, [st[hi] - st[lo] for st in stamps])
        wall += statistics.median(stamps[i][hi] - stamps[i][lo] for i in keep) / 1e9
        latencies += [ns / 1e3 for i in keep for ns in passes[i][lo:hi]]
    return wall, latencies


def setup_seconds(plan, samples: list[float]) -> float:
    """Median of the fastest set-up samples, filtered like the chunks."""
    return statistics.median(samples[i] for i in fastest(plan, samples))


def _describe(out) -> str:
    if isinstance(out, BaseException):
        return f"raised {type(out).__name__}: {str(out)[:120]}"
    if isinstance(out, subprocess.CompletedProcess):
        tail = out.stderr.strip().splitlines()[-1:] or [""]
        return f"exit {out.returncode} {tail[0][:160]}"
    return f"returned {str(out)[:120]}"


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def end_to_end(run: dict, setup_s: float, plan) -> dict[str, tuple[float, str]]:
    wall, lat_us = wall_and_latencies(plan, run["stamps"][False], run["latencies"][False])
    return {
        "wall_s": (wall, "s"),
        "setup_s": (setup_s, "s"),
        "op_p50_us": (statistics.median(lat_us), "us"),
        "op_p90_us": (_p90(lat_us), "us"),
        "peak_rss_mib": (resource.getrusage(plan.rss_scope).ru_maxrss / 1024, "MiB"),
        "ok_op_ratio": ((run["attempted"] - run["failed"]) / run["attempted"], "ratio"),
    }


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                              timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "modrecip" / "__init__.py").is_file():
        print(f"perfbench: no modrecip package under {SRC}", file=sys.stderr)
        return 2
    sys.set_int_max_str_digits(0)  # expected values and child output can exceed 4300 digits
    sys.path.insert(0, str(SRC))

    build = BUILDERS[args.workload]
    lib, plan, first_setup_s = timed_setup(build, args.seed)
    details: dict = {}
    if args.trace:
        tracer = Tracer()
        tracer.begin(f"run.{args.workload}")
        run = measure(plan, args.seconds, tracer)
        values, problems = layers.probe(lib, args.seed, tracer)
        tracer.end()
        untraced, traced = (wall_and_latencies(plan, run["stamps"][kind], run["latencies"][kind])[0]
                            for kind in (False, True))
        values |= {"trace.untraced_wall_s": untraced, "trace.traced_wall_s": traced,
                   "trace.overhead_s": traced - untraced}
        units = layers.metric_units()
        metrics = {name: (values[name], unit) for name, unit in units.items()}
        spans_file = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}-{tracer.run_id}.json"
        tracer.write(spans_file)
        details |= {"run_id": tracer.run_id, "spans": len(tracer),
                    "spans_file": str(spans_file.relative_to(ROOT)), "probe_problems": problems}
    else:
        run = measure(plan, args.seconds, resetup=lambda: timed_setup(build, args.seed)[2])
        setups = [first_setup_s, *run["setups"]]
        metrics = end_to_end(run, setup_seconds(plan, setups), plan)
        problems = []
        details["setup_samples_s"] = setups

    details |= {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "cpu_count": os.cpu_count(), "git_sha": git_sha(),
        "widths": plan.widths, "passes": run["passes"], "ops_per_pass": len(plan.ops),
        "pass_walls_s": pass_walls(run["stamps"][False]),
        "failed_op_ratio": run["failed"] / run["attempted"],
        "known_defect_failures": run["failed"] - run["unexpected"], "failures": run["failures"],
    }
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": run["unexpected"] == 0 and not problems,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
