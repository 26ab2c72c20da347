import itertools
import json
import math
import os
import random
import subprocess
import sys
from types import SimpleNamespace

import pytest

from child_process import child_env, run_python
from modrecip import bench as bench_mod
from modrecip import cli, verify
from modrecip.bench import BenchReport
from modrecip.cli import MAX_OPERAND_BITS, build_parser, main
from modrecip.core import (DomainError, InvariantError, NotCoprimeError, ZeroOperandError,
                           classical_inverse, inverse, mod_inverse)
from modrecip.quad import sum_inverse_values
from modrecip.verify import SweepResult


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# The fixture outputs below are golden: they must byte-match across runs.

def test_inv_golden_json(capsys):
    code, out, _ = run(capsys, "inv", "7", "22", "--json")
    assert code == 0
    assert out == '{"a": 7, "classical": 19, "inverse": 19, "m": 22, "method": "extended-gcd"}\n'
    code, again, _ = run(capsys, "inv", "7", "22", "--json")
    assert code == 0 and again == out


def test_inv_unit_golden_json(capsys):
    code, out, _ = run(capsys, "inv", "7", "1", "--json")
    assert code == 0
    assert out == '{"a": 7, "classical": 0, "inverse": 1, "m": 1, "method": "unit-closed-form"}\n'


def test_recip_unit_golden_json(capsys):
    code, out, _ = run(capsys, "recip", "5", "1", "--json")
    assert code == 0
    assert out == (
        '{"a": 5, "b": 1, "holds": true, "inv_a_mod_b": 1, "inv_b_mod_a": 1,'
        ' "k": 1, "lhs": 6, "rhs": 6}\n'
    )


def test_inv_text_forms(capsys):
    assert run(capsys, "inv", "7", "22") == (0, "19\n", "")
    assert run(capsys, "inv", "7", "1", "--classical") == (0, "1 (classical: 0)\n", "")
    assert run(capsys, "inv", "-4", "1") == (0, "0\n", "")


def test_inv_hex_input(capsys):
    assert run(capsys, "inv", "0x7", "0x16") == (0, "19\n", "")
    assert run(capsys, "inv", "7", "+22") == (0, "19\n", "")


@pytest.mark.parametrize("text, want", [
    ("0x-1", None), ("0x+5", None), ("0x 1f", None), ("-0x-1", None),
    ("-0x1f", -31), ("+0X1F", 31), (" 0x1f ", 31), ("0x1_f", 31), ("0x_1f", 31),
])
def test_hex_operand_grammar(text, want, capsys):
    # a sign goes before the 0x prefix; after it int() refuses a sign or space,
    # and takes an underscore as in a Python literal
    argv = ["inv", "--json", "--", text, "1000003"]
    outcome = code, out, err = run(capsys, *argv)
    if want is None:  # a refused operand reaches argparse, whose error main returns as 1
        assert (code, out) == (1, "") and f"invalid integer {text!r}" in err
    else:
        assert (code, err) == (0, "") and json.loads(out)["a"] == want
    proc = _module_process(argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == outcome


def test_unicode_decimal_digits(capsys):
    # int() and the Gaussian pattern's \d take any Unicode decimal digit:
    # Arabic-Indic (U+0661, U+0662) and fullwidth (U+FF13) here
    assert run(capsys, "inv", "\u0661\u0662", "7") == (0, "3\n", "")
    assert run(capsys, "inv", "\uff13", "7") == (0, "5\n", "")
    # the plain path takes only an ASCII negative, so this one goes through
    # argparse, whose negative-number pattern reads it as an operand
    assert cli._plain_call(["inv", "-\u0661\u0662", "7"]) is None
    assert run(capsys, "inv", "-\u0661\u0662", "7") == (0, "4\n", "")
    assert run(capsys, "inv", "--", "-\u0661\u0662", "7") == (0, "4\n", "")
    code, out, _ = run(capsys, "gauss-inv", "\uff13+2i", "3+5i")
    assert code == 0 and out.endswith("canonical 1+2i\n")


@pytest.mark.parametrize("text", ["1_0+2i", "0x10+2i"])
def test_gaussian_components_take_no_underscore_or_hex(text, capsys):
    code, out, err = run(capsys, "gauss-inv", text, "3+5i")
    assert (code, out) == (1, "") and f"invalid Gaussian integer {text!r}" in err


@pytest.mark.parametrize("argv", [["inv", "--"], ["gauss-inv", "--"]], ids=["inv", "gauss-inv"])
def test_refusals_quote_a_bounded_part_of_the_operand(argv, capsys):
    # up to 40 characters the whole operand is quoted; past that a prefix and
    # the length, so a long malformed operand does not come back on stderr
    kind = "integer" if argv[0] == "inv" else "Gaussian integer"
    for text, quote in ((("1" * 39 + "x"), repr("1" * 39 + "x")),
                        ("1" * 60000 + "x", f"{'1' * 40!r}... (60001 characters)")):
        code, out, err = run(capsys, *argv, text, "7")
        assert (code, out) == (1, "")
        assert err.endswith(f"invalid {kind} {quote}\n") and len(err.encode()) <= 300


def test_inv_undefined_exit_codes(capsys):
    code, out, _ = run(capsys, "inv", "2", "4", "--json")
    assert code == 2
    assert json.loads(out)["error"] == "NotCoprime"
    code, _, err = run(capsys, "inv", "5", "0")
    assert code == 2
    assert "ZeroOperand" in err
    # classical-inv reports the error of the inversion it runs, as inv does
    code, out, _ = run(capsys, "classical-inv", "2", "4", "--json")
    assert code == 2
    assert json.loads(out) == {"error": "NotCoprime", "detail": "operand and modulus share a factor"}
    code, _, err = run(capsys, "classical-inv", "0", "1")
    assert code == 2
    assert err == "error: ZeroOperand: inverse needs a nonzero operand and modulus\n"


def test_classical_inv(capsys):
    assert run(capsys, "classical-inv", "7", "1") == (0, "0\n", "")
    code, out, _ = run(capsys, "classical-inv", "3", "-5", "--json")
    assert code == 0
    assert json.loads(out) == {"a": 3, "m": -5, "classical": 2}


def test_inv_classical_value_matches_classical_inverse():
    # inv derives the classical value from its one signed inversion, and
    # classical-inv gives the same value or fails with inv's error: every
    # sign, unit and shared-factor moduli and one pair past the crossover
    rng = random.Random(4096)
    wide_a, wide_m = rng.getrandbits(4096) | 1 << 4095, rng.getrandbits(4096) | 1 << 4095
    while math.gcd(wide_a, wide_m) != 1:
        wide_m += 1
    grid = [(a, m) for a in range(-12, 13) for m in range(-12, 13)]
    inv, classical_inv = cli.COMMANDS["inv"].compute, cli.COMMANDS["classical-inv"].compute
    for a, m in grid + [(-wide_a, wide_m), (wide_a, -wide_m)]:
        try:
            want = classical_inverse(a, m).expect()
        except ValueError as exc:
            with pytest.raises(type(exc)) as inv_exc:
                inv(a, m, True)
            with pytest.raises(type(exc)) as classical_exc:
                classical_inv(a, m)
            assert str(classical_exc.value) == str(inv_exc.value)
            continue
        obj, text = inv(a, m, True)
        assert obj["classical"] == want and text == f"{obj['inverse']} (classical: {want})"
        assert classical_inv(a, m) == ({"a": a, "m": m, "classical": want}, str(want))


def test_recip_text(capsys):
    code, out, _ = run(capsys, "recip", "-3", "-5")
    assert code == 0
    assert out == "inv_a_mod_b=-2 inv_b_mod_a=-2 lhs=16 rhs=16 k=1 holds=true\n"


def test_reduce_forms(capsys):
    assert run(capsys, "reduce", "7", "1", "3") == (0, "19\n", "")
    code, out, _ = run(capsys, "reduce", "7", "1", "3", "--minus", "--json")
    assert code == 0
    assert json.loads(out) == {
        "a": 7, "b": 1, "k": 3, "form": "minus", "modulus": 20, "inverse": 3,
    }
    code, _, err = run(capsys, "reduce", "1", "5", "3")
    assert code == 2 and "Domain" in err


def test_square_inv(capsys):
    assert run(capsys, "square-inv", "3", "2") == (0, "7\n", "")


def test_quad_and_sums(capsys):
    code, out, _ = run(capsys, "quad", "3", "2", "1", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["u"] == 7 and data["x"] == [5, 2, 1, 3]
    assert data["pair_inverse_ok"] == [True] * 4

    code, out, _ = run(capsys, "quad", "2", "1", "1", "3", "--json")
    assert code == 0
    assert json.loads(out)["sum_inverse_ok"] is None

    code, out, _ = run(capsys, "sums", "3", "2", "1", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["s_inv_mod_u"] == 6 and data["t_inv_mod_u"] == 3
    code, _, _ = run(capsys, "sums", "2", "1", "1", "3")
    assert code == 2  # gcd(u, v) = 5


def test_sum_inverses_equal_direct_inverses():
    # sums reads the four inverses off two; they must equal inverting s and t
    # directly on every valid quadruple in [-9, 9]^4 and on a 1024-bit one
    rng = random.Random(1032)
    wide = [rng.choice((1, -1)) * (rng.getrandbits(1024) | 1 << 1023) for _ in range(4)]
    checked = 0
    for quad in [*itertools.product(range(-9, 10), repeat=4), wide]:
        try:
            rep, values = sum_inverse_values(*quad)
        except (DomainError, NotCoprimeError, ZeroOperandError):
            continue
        want = {f"{p}_inv_mod_{n}": inverse(getattr(rep, p), getattr(rep, n))
                for n in "uv" for p in "st"}
        assert values == want, quad
        checked += 1
    assert checked == 35136 + 1


def test_quad_text_layout(capsys):
    code, out, _ = run(capsys, "quad", "3", "2", "1", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "u=7 v=4 s=13 t=5"
    assert lines[1] == "x1=5 x2=2 x3=1 x4=3"
    assert "pair_inverse_ok=true,true,true,true" in lines


def test_gauss_inv(capsys):
    code, out, _ = run(capsys, "gauss-inv", "1+1i", "2+1i")
    assert code == 0
    assert out == "representative 3-3i\ncanonical -1\n"
    code, out, _ = run(capsys, "gauss-inv", "2+1i", "1+1i", "--json")
    assert code == 0
    assert json.loads(out)["representative"] == "2-1i"
    code, _, err = run(capsys, "gauss-inv", "1+2i", "3+4i")
    assert code == 2 and "NotCoprime" in err


def test_gauss_inv_negative_operand_after_separator(capsys):
    code, out, _ = run(capsys, "gauss-inv", "--", "-1-1i", "2+1i")
    assert code == 0
    assert out == "representative -3+3i\ncanonical 1\n"


def test_gauss_linear_inv(capsys):
    assert run(capsys, "gauss-linear-inv", "3", "2") == (0, "1+1i\n", "")
    code, out, _ = run(capsys, "gauss-linear-inv", "7", "1", "--json")
    assert code == 0
    assert json.loads(out) == {"a": 7, "b": 1, "modulus": "1+7i", "inverse": "1+6i"}


def test_usage_errors_exit_1(capsys):
    # main returns argparse's usage errors as 1; a space inside a Gaussian
    # numeral does not join its digits into one number
    for argv in (["inv", "7"], ["inv", "x", "3"], ["gauss-inv", "1+zi", "2+1i"], [],
                 ["inv", "3", "7", "--seed", "5"], ["inv", "", "5"], ["inv", " ", "5"],
                 ["gauss-inv", "--", "1 2+1i", "2+1i"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "") and err.startswith("usage: modrecip"), argv


def test_help_exits_0(capsys):
    for argv in (["-h"], ["inv", "-h"], ["verify", "--help"], ["bench", "-h"]):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "") and out.startswith("usage: modrecip"), argv


def test_repeated_double_dash_is_a_usage_error(capsys):
    # argparse hands a second "--" to the next operand as an empty list
    for argv in (["inv", "3", "--", "--"], ["quad", "0", "1", "0", "--", "--"]):
        code, _, err = run(capsys, *argv)
        assert code == 1 and "missing operand" in err


def test_usage_after_a_subcommand_lists_every_subcommand(capsys):
    # a usage error after a subcommand prints the top-level usage line, which
    # names every subcommand
    usage = build_parser().format_usage()
    assert all(name in usage for name in [*cli.COMMANDS, "verify", "bench"])
    for argv in (["inv", "3", "7", "--bogus"], ["inv", "3", "--", "--"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "") and err.startswith(usage), err


def test_wide_hex_inv_prints_in_full(capsys):
    rng = random.Random(16000)
    while True:
        a, m = (rng.getrandbits(16000) | 1 << 15999 for _ in range(2))
        if math.gcd(a, m) == 1:
            break
    limit = sys.get_int_max_str_digits()
    code, text, _ = run(capsys, "inv", "--", hex(a), hex(m))
    code_json, out, _ = run(capsys, "inv", "--json", "--", hex(a), hex(m))
    assert sys.get_int_max_str_digits() == limit  # main hands back the caller's limit
    assert code == code_json == 0
    want = mod_inverse(a, m).expect()
    sys.set_int_max_str_digits(0)  # the 4817-digit result is past the default limit
    try:
        assert int(text) == want and json.loads(out)["inverse"] == want
    finally:
        sys.set_int_max_str_digits(limit)


def test_main_restores_a_raised_limit(capsys):
    sys.set_int_max_str_digits(5000)  # neither the default nor 0, which main sets while it runs
    assert run(capsys, "inv", "3", "7") == (0, "5\n", "")
    assert sys.get_int_max_str_digits() == 5000


def test_wide_decimal_operand_accepted(capsys):
    a = "1" + "0" * 4998 + "1"  # 10**4999 + 1, past the interpreter's 4300-digit limit
    code, out, _ = run(capsys, "inv", a, "1000003")
    assert code == 0 and int(out) == mod_inverse(10**4999 + 1, 1000003).expect()


def test_operand_cap_exit_1(capsys):
    assert MAX_OPERAND_BITS == 65536
    too_wide = "0x1" + "0" * (MAX_OPERAND_BITS // 4)  # 2**65536 has 65537 bits
    for argv in (["inv", too_wide, "7"], ["recip", "7", "9" * 20000],
                 ["gauss-inv", "9" * 19730 + "+1i", "2+1i"], ["inv", "7", "1" * 70000]):
        code, _, err = run(capsys, *argv)
        assert code == 1 and "65536-bit cap" in err


def test_verify_small_bound(capsys):
    code, out, _ = run(capsys, "verify", "--bound", "4", "--gaussian-bound", "2")
    assert code == 0
    assert "all suites passed" in out
    assert "reciprocity:" in out
    assert "cases/s]" in out


def test_verify_json_and_shards(capsys):
    code, out, _ = run(
        capsys, "verify", "--bound", "4", "--gaussian-bound", "2", "--shards", "2", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert {s["name"] for s in data["suites"]} >= {"reciprocity", "quad-pair", "inverse-oracles"}
    for suite in data["suites"]:
        keys = {"name", "cases", "failure_count", "failures", "note", "elapsed_s", "cases_per_s"}
        assert keys <= set(suite)
        assert suite["elapsed_s"] >= 0 and suite["cases_per_s"] >= 0


def test_verify_shard_cap_exit_1(capsys):
    # rejected by validation before any worker process starts
    code, out, err = run(capsys, "verify", "--shards", "100000", "--bound", "4")
    assert code == 1 and out == "" and "shard_count" in err


@pytest.mark.parametrize("option, value, field", [
    ("--bound", "100000", "bound"),
    ("--gaussian-bound", "1000", "gaussian_bound"),
    ("--k-bound", "1000000", "k_bound"),
    ("--config", "quad_bound=1000", "quad_bound"),
])
def test_verify_bound_cap_exit_1(tmp_path, capsys, option, value, field):
    # a bound whose sweeps could not finish is refused before any suite runs
    if option == "--config":
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(value + "\n")
        value = str(cfg)
    code, out, err = run(capsys, "verify", option, value)
    assert code == 1 and out == ""
    assert err.startswith(f"modrecip verify: error: {field} must be in [")


def _module_process(argv: list[str]) -> subprocess.CompletedProcess:
    return run_python("-m", "modrecip", *argv, timeout=300)


def _verify_process(shards: str) -> dict:
    proc = _module_process(["verify", "--shards", shards, "--bound", "4", "--gaussian-bound", "2",
                            "--json"])
    assert proc.returncode == 0, proc.stderr
    return {s["name"]: s["cases"] for s in json.loads(proc.stdout)["suites"]}


def test_verify_module_entry_point_shards():
    assert _verify_process("2") == _verify_process("1")


def test_cli_module_entry_point():
    # the third entry point, beside the console script and `python -m modrecip`
    proc = run_python("-m", "modrecip.cli", "inv", "7", "22")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "19\n", "")


def test_closed_stdout_pipe_exits_1_without_a_traceback():
    # `modrecip verify | head -1`: the reader closes the pipe after the first
    # suite's line, and the next line's write fails with a BrokenPipeError
    proc = subprocess.Popen([sys.executable, "-m", "modrecip", "verify"], env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    first = proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=300)
    assert proc.returncode == 1, err
    assert first.startswith("division-law: ") and err == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_stdout_on_a_full_device_exits_1_without_a_traceback(unbuffered):
    # buffered, the write fails in main's own flush; unbuffered, in print itself
    env = child_env() | {"PYTHONUNBUFFERED": unbuffered}
    with open("/dev/full", "w") as full:
        proc = run_python("-m", "modrecip", "inv", "7", "22", stdout=full, env=env)
    assert proc.returncode == 1
    assert proc.stderr == "modrecip: error: [Errno 28] No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["-h"], ["inv", "-h"], ["verify", "-h"]], ids=" ".join)
def test_help_on_a_full_device_exits_1_without_a_traceback(argv, unbuffered):
    # argparse swallows a failed write of its own, so the CLI writes the help itself
    env = child_env() | {"PYTHONUNBUFFERED": unbuffered}
    with open("/dev/full", "w") as full:
        proc = run_python("-m", "modrecip", *argv, stdout=full, env=env)
    assert proc.returncode == 1
    assert proc.stderr == "modrecip: error: [Errno 28] No space left on device\n"


def test_sharded_verify_forks_without_a_deprecation_warning(tmp_path):
    # 3.12 warns at each fork in a process that has run a pool's threads; the warning
    # is shown and read from stderr, as an error filter would not end the run
    cfg = tmp_path / "small.cfg"
    cfg.write_text("bound=8\nk_bound=3\ngaussian_bound=3\nshift_bound=6\nreduce_bound=6\n"
                   "square_bound=6\nquad_bound=4\nlinear_bound=6\n")
    for mode in ([], ["--use-classical-unit-inverse"]):
        proc = run_python("-W", "always::DeprecationWarning", "-m", "modrecip", "verify",
                          "--shards", "2", "--config", str(cfg), *mode, timeout=300)
        assert (proc.returncode, proc.stderr) == (0, "")


def test_verify_classical_mode(capsys):
    code, out, _ = run(capsys, "verify", "--bound", "6", "--use-classical-unit-inverse")
    assert code == 0
    assert "reciprocity-classical-units" in out
    assert "designed breaks" in out


def test_verify_config_file(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("bound=4\ngaussian_bound=2\nquad_bound=3\nshift_bound=3\n"
                   "reduce_bound=3\nsquare_bound=3\nlinear_bound=3\nk_bound=2\n")
    code, out, _ = run(capsys, "verify", "--config", str(cfg))
    assert code == 0
    code_bad, _, err = run(capsys, "verify", "--config", str(tmp_path / "missing.cfg"))
    assert code_bad == 1
    cfg.write_text("bound=oops\n")
    code_bad, _, err = run(capsys, "verify", "--config", str(cfg))
    assert code_bad == 1 and f"{cfg}:1: invalid integer 'oops'" in err


def test_verify_config_value_takes_the_operand_cap(tmp_path, capsys):
    # the flags' reader refuses an over-long numeral before parsing it, and does not echo it
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("bound=" + "1" * 10**6 + "\n")
    code, out, err = run(capsys, "verify", "--config", str(cfg))
    assert (code, out) == (1, "")
    assert err == f"modrecip verify: error: {cfg}:1: operand exceeds the 65536-bit cap\n"


def _fake_suite(run):
    # a stand-in for a verify.Suite: the engine calls only its run(config, pool)
    return SimpleNamespace(run=lambda config, pool=None: run(config))


def test_verify_counterexample_exit_3(monkeypatch, capsys):
    fake = SweepResult("reciprocity", 10, 1, ["a=1 b=1 lhs=3 rhs=2 k=2"])
    monkeypatch.setattr(verify, "SUITES", {"reciprocity": _fake_suite(lambda config: fake)})
    code, out, _ = run(capsys, "verify")
    assert code == 3
    assert "minimal counterexample: a=1 b=1" in out
    assert "verification FAILED" in out


def test_verify_prints_each_suite_as_it_ends(monkeypatch, capsys):
    seen = []

    def second(config):
        seen.append(capsys.readouterr().out)  # what stdout holds while this suite runs
        return SweepResult("second", 2, elapsed_s=1.0)

    monkeypatch.setattr(verify, "SUITES", {
        "first": _fake_suite(lambda config: SweepResult("first", 4, elapsed_s=2.0)),
        "second": _fake_suite(second),
    })
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert seen == ["first: 4 cases, ok [2.00 s, 2 cases/s]\n"]
    assert out == "second: 2 cases, ok [1.00 s, 2 cases/s]\nall suites passed\n"


def test_verify_subject_raise_is_counterexample_exit_3(monkeypatch, tmp_path, capsys):
    def broken(a, b):
        raise InvariantError("planted fault")

    monkeypatch.setattr(verify, "square_inverse", broken)
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("bound=4\ngaussian_bound=2\nquad_bound=3\nshift_bound=3\n"
                   "reduce_bound=3\nsquare_bound=3\nlinear_bound=3\nk_bound=2\n")
    code, out, err = run(capsys, "verify", "--config", str(cfg))
    assert code == 3 and err == ""
    assert "square-inverse: 0 cases, 1 FAILED" in out
    assert "minimal counterexample: InvariantError: planted fault" in out
    # the suites after the broken one still run
    assert "unit-contradiction-fixture: 3 cases, ok" in out


def test_bench_small(capsys):
    code, out, _ = run(capsys, "bench", "--bits", "64", "--iters", "3", "--seed", "7", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["agreement_count"] == 3 == data["iterations"]
    assert data["seed"] == 7
    assert data["median_ns_reciprocity"] > 0
    assert data["median_ns_ext_gcd"] > 0 and data["median_ns_pow"] > 0


def test_bench_reports_seed_in_text(capsys):
    code, out, _ = run(capsys, "bench", "--bits", "64", "--iters", "2", "--seed", "11")
    assert code == 0
    assert "seed=11" in out
    assert "agreement_count=2" in out


def test_bench_parameter_validation(capsys):
    # the range checks are run_bench's, and the message names its parameters
    width_error = "modrecip bench: error: bit_width must be in [64, 16384]\n"
    assert run(capsys, "bench", "--bits", "32", "--iters", "5") == (1, "", width_error)
    assert run(capsys, "bench", "--bits", "16385", "--iters", "5") == (1, "", width_error)
    # a trial takes about 83 ms at 16384 bits, so the count is capped as well
    iterations_error = "modrecip bench: error: iterations must be in [1, 5000]\n"
    for iters in ("0", "5001"):
        assert run(capsys, "bench", "--bits", "64", "--iters", iters) == (1, "", iterations_error)
    # Random(-5) draws what Random(5) draws, so the U64 range is enforced
    seed_error = "modrecip bench: error: seed must be in [0, 2**64 - 1]\n"
    for seed in ("-5", str(1 << 64)):
        assert run(capsys, "bench", "--bits", "64", "--iters", "5", "--seed", seed) == (
            1, "", seed_error)


@pytest.mark.parametrize("args, name", [((64.5, 2), "bit_width"), ((64, 2.5), "iterations"),
                                        ((64, 2, 1.5), "seed"), ((64, True), "iterations"),
                                        ((64, 2, "1"), "seed")])
def test_bench_refuses_a_parameter_that_is_not_an_int(args, name):
    # a float width or count used to raise TypeError mid-run, and a float seed was taken
    with pytest.raises(DomainError, match=f"^{name} must be an integer$"):
        bench_mod.run_bench(*args)


def test_bench_counts_only_three_way_agreement(monkeypatch):
    # a wrong Bezout coefficient makes the ext-gcd route disagree alone
    monkeypatch.setattr(bench_mod, "extended_gcd", lambda a, m: (1, 0, 0))
    assert bench_mod.run_bench(64, 3, seed=7).agreement_count == 0


def test_bench_medians_come_from_their_own_routes(monkeypatch):
    # within each trial the clock advances 10, 20 and 30 ns across the three timed calls
    clock = itertools.accumulate(itertools.cycle((1, 10, 20, 30)))
    monkeypatch.setattr(bench_mod, "time", SimpleNamespace(perf_counter_ns=clock.__next__))
    report = bench_mod.run_bench(64, 5, seed=3)
    assert (report.median_ns_reciprocity, report.median_ns_ext_gcd, report.median_ns_pow) == (
        10, 20, 30)


def test_unseeded_bench_reports_a_seed_that_reproduces_its_operands(monkeypatch):
    pairs = []
    draw = bench_mod._random_coprime_pair

    def recorded(rng, bits):
        pairs.append(draw(rng, bits))
        return pairs[-1]

    monkeypatch.setattr(bench_mod, "_random_coprime_pair", recorded)
    report = bench_mod.run_bench(64, 3)
    assert 0 <= report.seed < 1 << 64
    assert report.agreement_count == 3
    first, pairs[:] = pairs[:], []
    bench_mod.run_bench(64, 3, seed=report.seed)
    assert len(first) == 3 and pairs == first


def test_bench_disagreement_suppresses_report(monkeypatch, capsys):
    fake = BenchReport(
        bit_width=64,
        iterations=5,
        seed=1,
        median_ns_reciprocity=10,
        median_ns_ext_gcd=10,
        median_ns_pow=10,
        agreement_count=4,
    )
    monkeypatch.setattr(bench_mod, "run_bench", lambda *a, **k: fake)
    code, out, err = run(capsys, "bench", "--bits", "64", "--iters", "5")
    assert code == 3
    assert out == ""
    assert "disagreed" in err
