"""Tests of the benchmark itself: seeded inputs, the output gate, and BENCHMARK.json.

    python3 -m pytest -q perfbench/tests
"""

import json
import subprocess
import sys
import types
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]
sys.set_int_max_str_digits(0)

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _proc(code, out="", err=""):
    return subprocess.CompletedProcess([], code, out, err)


def test_same_seed_same_inputs():
    assert workloads.wide_inputs(7) == workloads.wide_inputs(7)
    assert workloads.cli_calls(7) == workloads.cli_calls(7)
    assert layers.routine_inputs(7) == layers.routine_inputs(7)
    assert workloads.wide_inputs(7) != workloads.wide_inputs(8)
    assert workloads.cli_calls(7) != workloads.cli_calls(8)


def test_plan_shape_is_seed_independent():
    lib = run.import_fresh()
    for build in workloads.BUILDERS.values():
        a, b = build(lib, 1), build(lib, 2)
        assert sorted(op.name for op in a.ops) == sorted(op.name for op in b.ops)
        assert sum(op.known_defect for op in a.ops) == sum(op.known_defect for op in b.ops)
    calls = workloads.cli_calls(3)
    assert sum(as_json for *_, as_json in calls) * 2 == len(calls)
    assert {sub for sub, *_ in calls} == set(workloads.SUBCOMMANDS)


def test_gate_counts_a_wrong_route_without_aborting():
    lib = run.import_fresh()

    def off_by_one(a, m):
        out = lib.mod_inverse(a, m)
        return lib.InverseOutcome(result=out.result + 1) if out.ok else out

    fake = types.SimpleNamespace(**{**vars(lib), "mod_inverse": off_by_one})
    plan = workloads.build_wide(fake, seed=5)
    result = run.measure(plan, seconds=0)
    assert result["passes"] == 1 and result["attempted"] == len(plan.ops)
    # one mod_inverse call per pair: 40 pairs, of which the 5 sharing a factor still fail as expected
    assert result["failed"] == result["unexpected"] == 35

    assert run.measure(workloads.build_wide(lib, seed=5), seconds=0)["failed"] == 0


def test_cli_gate_checks_value_exit_code_and_traceback():
    lib = run.import_fresh()
    text = workloads._cli_check(lib, "inv", (7, 22), as_json=False)
    assert text(_proc(0, "19\n"))
    assert text(_proc(0, "0x13\n"))  # either notation of the same value
    assert not text(_proc(0, "20\n"))
    assert not text(_proc(1, "", "Traceback (most recent call last):\nValueError\n"))
    as_json = workloads._cli_check(lib, "inv", (7, 22), as_json=True)
    good = {"a": 7, "classical": 19, "inverse": 19, "m": 22, "method": "extended-gcd"}
    assert as_json(_proc(0, json.dumps(good)))
    assert not as_json(_proc(0, json.dumps(good | {"inverse": 20})))
    undefined = workloads._cli_check(lib, "inv", (6, 9), as_json=True)
    assert undefined(_proc(2, '{"detail": "NotCoprime", "error": "NotCoprime"}'))
    assert not undefined(_proc(0, "3\n"))
    malformed = workloads._cli_check(lib, "inv", None, as_json=False)
    assert malformed(_proc(1, "", "modrecip inv: error: argument a: invalid integer '1z'\n"))


def test_verify_gate_needs_every_case_count():
    check = layers.verify_ok
    suites = [{"name": n, "cases": c} for n, c in layers.DEFAULT_CASES.items()]
    assert check(_proc(0, json.dumps({"passed": True, "suites": suites})))
    assert not check(_proc(3, json.dumps({"passed": False, "suites": suites})))
    suites[0]["cases"] -= 1
    assert not check(_proc(0, json.dumps({"passed": True, "suites": suites})))


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.metric_units()
    # four passes of four ops; op latencies in ns, stamps from the latencies plus 1 ns per op
    lat = [[100, 300, 50, 50], [200, 300, 500, 500], [150, 250, 60, 60], [900, 900, 70, 70]]
    stamps = [[sum(p[:i]) + i for i in range(5)] for p in lat]
    fake_run = {"stamps": {False: stamps}, "latencies": {False: lat}, "attempted": 16, "failed": 4}
    for chunk, share in ((2, 0.5), (4, 1.0)):
        plan = workloads.Plan([], workloads.resource.RUSAGE_SELF, [], chunk=chunk, fast_share=share)
        reported = run.end_to_end(fake_run, 0.5, plan)
        assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: u for k, (_, u) in reported.items()}
        assert reported["ok_op_ratio"][0] == 0.75
    # one chunk of four ops, every pass kept: the median pass wall and every latency
    assert round(reported["wall_s"][0] * 1e9) == 1014 and reported["op_p50_us"][0] == 0.175
    # two chunks of two ops, the faster half kept of each: passes 0 and 2, then 0 and 2
    per_chunk = workloads.Plan([], workloads.resource.RUSAGE_SELF, [], chunk=2, fast_share=0.5)
    wall, latencies = run.wall_and_latencies(per_chunk, stamps, lat)
    assert round(wall * 1e9) == (402 + 402) / 2 + (102 + 122) / 2
    assert latencies == [0.1, 0.3, 0.15, 0.25, 0.05, 0.05, 0.06, 0.06]
    assert run.setup_seconds(per_chunk, [0.375, 0.125, 0.875, 0.25]) == 0.1875


def test_wide_chunks_are_whole_quadruples():
    plan = workloads.build_wide(run.import_fresh(), seed=2)
    assert len(plan.ops) % plan.chunk == 0
    assert all(op.name.startswith("gaussian.gaussian_inverse") for op in plan.ops[plan.chunk - 1::plan.chunk])
