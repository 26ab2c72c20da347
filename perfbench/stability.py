"""Run the benchmark on ten seeds and report each metric's median and spread.

    python3 perfbench/stability.py [--traced] [--out FILE]

Each run is ``run.py`` in a child process, one after another, on every
workload of BENCHMARK.json for its ``run_seconds``, with seeds 1 to 10.
The spread of a metric is the distance between its first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of its median;
a spread above a third of the metric's ``bound`` in BENCHMARK.json is
flagged.  The summary also shows whether every seed gave the same failed-op
ratio, and with ``--traced`` adds one traced run per workload.  ``--out``
writes the whole summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["details"], json.loads(lines[-1])


def summarize(results: list[dict], bounds: dict[str, float]) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, 0, median)
        spread = (q3 - q1) / median if median else 0.0
        out[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                     "bound": bounds.get(name), "values": values}
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--traced", action="store_true", help="add one traced run per workload")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {"seeds": list(SEEDS), "seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        details, results = [], []
        for seed in SEEDS:
            d, r = run_once(workload, seed, seconds, 0)
            details.append(d)
            results.append(r)
            print(f"{workload} seed {d['seed']}: correct={r['correct']} attempted={r['attempted']} "
                  f"failed={r['failed']}", file=sys.stderr)
        entry = {
            "metadata": {k: details[0][k] for k in ("python", "cpu_count", "git_sha", "widths", "ops_per_pass")},
            "seeds": [d["seed"] for d in details],
            "correct": [r["correct"] for r in results],
            "failed_op_ratio": sorted({d["failed_op_ratio"] for d in details}),
            "metrics": summarize(results, bounds),
        }
        if args.traced:
            d, r = run_once(workload, SEEDS[0], seconds, 1)
            entry["traced"] = {"details": d, "correct": r["correct"],
                               "metrics": {k: v["value"] for k, v in r["metrics"].items()}}
        summary["workloads"][workload] = entry
        for name, m in entry["metrics"].items():
            flag = "" if m["bound"] is None or m["spread"] <= m["bound"] / 3 else "  <-- above bound/3"
            print(f"{workload:14s} {name:14s} median {m['median']:.6g}  spread {m['spread']:.4f}"
                  f"  bound {m['bound']}{flag}")
        print(f"{workload:14s} failed_op_ratio per seed: {entry['failed_op_ratio']}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
