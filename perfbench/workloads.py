"""The benchmark workloads: seeded inputs, expected outputs, and the gate.

``BUILDERS[name](lib, seed)`` turns a freshly imported ``modrecip`` package
and a seed into a :class:`Plan`: the fixed list of operations one pass of the
closed loop runs.  An :class:`Op` is one public library call
(``wide-inverse``) or one child process (``cli-oneshot``), paired with the
check its outcome must pass.  The program sees only the generated operands;
expected values come from ``pow(a, -1, m)`` and plain integer arithmetic
(``wide-inverse``) or in-process library calls (``cli-oneshot``).
"""

from __future__ import annotations

import json
import math
import os
import random
import re
import resource
import subprocess
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

CHILD_TIMEOUT_S = 150


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], bool]  # gets the return value, or the exception raised
    known_defect: bool = False  # counted when it fails, but does not make the run incorrect


@dataclass
class Plan:
    ops: list[Op]
    rss_scope: int  # resource.RUSAGE_SELF or RUSAGE_CHILDREN: whose peak RSS is reported
    widths: list  # operand widths in the plan, for the result metadata
    # A run's figures come from the fastest instances of each chunk of
    # ``chunk`` consecutive ops: the fastest ``fast_share`` of them (at least
    # one), and from the same share of set-up samples.  A shared CPU that
    # switches between two speeds needs this filter.  A chunk runs whole, so
    # a cost the program pays at least once per chunk stays in the figures.
    chunk: int
    fast_share: float


def signed_bits(rng: random.Random, bits: int) -> int:
    """A random integer of exactly ``bits`` bits with a random sign."""
    x = rng.getrandbits(bits) | (1 << (bits - 1))
    return -x if rng.getrandbits(1) else x


def ref_inverse(lib, a: int, m: int):
    """Windowed inverse of a mod m from ``pow``, or the error class the library must raise."""
    if a == 0 or m == 0:
        return lib.ZeroOperandError
    if math.gcd(a, m) != 1:
        return lib.NotCoprimeError
    if abs(m) == 1:  # the signed closed form for a unit modulus
        return (1 if a > 0 else 0) if m == 1 else (0 if a > 0 else -1)
    x = pow(a, -1, m)
    # pow follows the sign of m; equality with x therefore also proves the
    # window [1, m-1] / [m+1, -1] and a*x = 1 (mod m) for the routes gated on it
    if not (1 <= x < m or m < x <= -1) or (a * x - 1) % m:
        raise RuntimeError(f"pow({a}, -1, {m}) left the signed window")
    return x


def _is(want) -> Callable[[object], bool]:
    if isinstance(want, type):
        return lambda out: isinstance(out, want)
    return lambda out: not isinstance(out, BaseException) and out == want


# ---------------------------------------------------------------- wide-inverse

WIDE_GROUPS = {256: 2, 1024: 2, 4096: 1}  # groups of 8 pairs per pass, by width
# One group is four quadruples (two pairs each): 1/8 of the pairs share a
# factor and 1/8 have a unit modulus, so NotCoprime and the closed form show.
GROUP_KINDS = (("coprime", "coprime"), ("coprime", "coprime"), ("coprime", "unit"), ("shared", "coprime"))
SHARED_FACTOR_BITS = 32
ROUTES = (("core", "mod_inverse"), ("recip", "inverse_via_reciprocity"))
QUAD_OPS = 16  # calls per quadruple: seven per pair, then quad_pair_inverses and gaussian_inverse


def _pair(rng: random.Random, bits: int, kind: str) -> tuple[int, int]:
    if kind == "unit":
        return signed_bits(rng, bits), rng.choice((1, -1))
    if kind == "shared":
        g = rng.getrandbits(SHARED_FACTOR_BITS) | (1 << (SHARED_FACTOR_BITS - 1)) | 1
        rest = bits - SHARED_FACTOR_BITS
        return g * signed_bits(rng, rest), g * signed_bits(rng, rest)
    while True:
        a, m = signed_bits(rng, bits), signed_bits(rng, bits)
        if math.gcd(a, m) == 1:
            return a, m


def _quadruple(rng: random.Random, bits: int, kinds: tuple[str, str]) -> tuple[int, int, int, int]:
    # Redraw the second pair until every step of quad_pair_inverses and
    # gaussian_inverse runs, so a pass does the same work on every seed.
    a, b = _pair(rng, bits, kinds[0])
    while True:
        c, d = _pair(rng, bits, kinds[1])
        u, v = a * c + b * d, a * d - b * c
        if math.gcd(a * a + b * b, c * c + d * d) != 1:
            continue
        if kinds[0] == "shared" or (abs(u) > 1 and abs(v) > 1 and math.gcd(u, v) == 1):
            return a, b, c, d


def wide_inputs(seed: int) -> list[tuple[int, tuple[int, int, int, int], tuple[int, int]]]:
    """(width, quadruple, (k1, k2)) per quadruple of one pass, in pass order."""
    rng = random.Random(seed)
    out = []
    for bits, groups in WIDE_GROUPS.items():
        for _ in range(groups):
            for kinds in GROUP_KINDS:
                out.append((bits, _quadruple(rng, bits, kinds), (rng.randint(1, 9), rng.randint(1, 9))))
    return out


def _pair_ops(lib, width: int, a: int, m: int, k: int) -> list[Op]:
    ref = ref_inverse(lib, a, m)
    ops = []
    for module, route in ROUTES:
        fn = getattr(lib, route)
        ops.append(Op(f"{module}.{route}.{width}", lambda fn=fn: fn(a, m).expect(), _is(ref)))
    if isinstance(ref, type):
        recip_ok = dioph_ok = _is(ref)
    else:
        back = ref_inverse(lib, m, a)
        recip_ok = lambda r: (r.inv_a_mod_b, r.inv_b_mod_a, r.lhs, r.rhs, r.k, r.holds) == (
            ref, back, 1 + a * m, 1 + a * m, 1, True)
        dioph_ok = _is((ref, (a * ref - 1) // m))
    ops += [
        Op(f"recip.reciprocity_check.{width}", lambda: lib.reciprocity_check(a, m), recip_ok),
        Op(f"recip.solve_diophantine.{width}", lambda: lib.solve_diophantine(a, m), dioph_ok),
        Op(f"identities.reduce_inverse_plus.{width}", lambda: lib.reduce_inverse_plus(a, m, k),
           _is(ref_inverse(lib, a, k * a + m))),
        Op(f"identities.reduce_inverse_minus.{width}", lambda: lib.reduce_inverse_minus(a, m, k),
           _is(ref_inverse(lib, a, k * a - m))),
        Op(f"identities.square_inverse.{width}", lambda: lib.square_inverse(a, m),
           _is(ref_inverse(lib, m * m, a * a))),
    ]
    return ops


def _quad_ok(lib, a: int, b: int, c: int, d: int) -> Callable[[object], bool]:
    if math.gcd(a, b) != 1 or math.gcd(c, d) != 1:
        return _is(lib.NotCoprimeError)
    u, v = a * c + b * d, a * d - b * c

    def ok(rep) -> bool:
        inverse_pairs = all((x * y - 1) % n == 0 for x, y, n in zip(rep.x, rep.y, (u, u, v, v)))
        return (rep.u, rep.v) == (u, v) and inverse_pairs and rep.all_ok and rep.sum_inverse_ok is not None
    return ok


def _gaussian_ok(lib, a: int, b: int, c: int, d: int) -> Callable[[object], bool]:
    t = c * c + d * d
    r = ref_inverse(lib, a * a + b * b, t)
    if isinstance(r, type):
        return _is(r)

    def ok(out) -> bool:
        rep, can = out
        # (c+di) divides z*can - 1 iff (z*can - 1)*(c-di) has both parts divisible by t
        x, y = a * can.re - b * can.im - 1, a * can.im + b * can.re
        return ((rep.re, rep.im) == (a * r, -b * r) and 2 * (can.re ** 2 + can.im ** 2) <= t
                and (x * c + y * d) % t == 0 and (y * c - x * d) % t == 0)
    return ok


def build_wide(lib, seed: int) -> Plan:
    ops: list[Op] = []
    for width, (a, b, c, d), (k1, k2) in wide_inputs(seed):
        ops += _pair_ops(lib, width, a, b, k1) + _pair_ops(lib, width, c, d, k2)
        z, w = lib.GaussianInteger(a, b), lib.GaussianInteger(c, d)
        ops += [
            Op(f"identities.quad_pair_inverses.{width}", lambda q=(a, b, c, d): lib.quad_pair_inverses(*q),
               _quad_ok(lib, a, b, c, d)),
            Op(f"gaussian.gaussian_inverse.{width}", lambda z=z, w=w: lib.gaussian_inverse(z, w),
               _gaussian_ok(lib, a, b, c, d)),
        ]
    # a chunk is one quadruple's 16 calls; a run repeats it about 30 times and keeps the fastest
    return Plan(ops, resource.RUSAGE_SELF, list(WIDE_GROUPS), chunk=QUAD_OPS, fast_share=0.0)


# --------------------------------------------------------------- child processes

def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONINTMAXSTRDIGITS", None)  # children keep the interpreter's default digit limit
    return env


def run_child(argv: list[str], env: dict[str, str]) -> subprocess.CompletedProcess:
    return subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, env=env,
                          timeout=CHILD_TIMEOUT_S)


# ----------------------------------------------------------------- cli-oneshot

SUBCOMMANDS = ("inv", "classical-inv", "recip", "reduce", "reduce-minus", "square-inv",
               "quad", "sums", "gauss-inv", "gauss-linear-inv")
CLI_WIDE = (256, 1024, 4096)  # the third call of subcommand i is at CLI_WIDE[i % 3]
CRASH_BITS = 16000  # `inv` output past the 4300-digit str() limit: the known print crash
CRASH_CALLS = 2
REASONS = {"ZeroOperandError": "ZeroOperand", "NotCoprimeError": "NotCoprime", "DomainError": "Domain"}
_HEX = re.compile(r"-?0x[0-9a-fA-F]+")


def _draw(rng: random.Random, size) -> int:
    return rng.choice((1, -1)) * rng.randint(1, 64) if size == "small" else signed_bits(rng, size)


def valid_operands(sub: str, x: tuple) -> bool:
    """Whether operands ``x`` meet the hypotheses of ``modrecip <sub>`` (and its library call)."""
    if sub in ("inv", "classical-inv", "recip"):
        return math.gcd(*x) == 1
    if sub in ("reduce", "reduce-minus"):
        a, b, k = x
        return abs(a) > 1 and math.gcd(a, b) == 1 and (k * a - b if sub == "reduce-minus" else k * a + b) != 0
    if sub in ("square-inv", "gauss-linear-inv"):
        return abs(x[0]) > 1 and math.gcd(*x) == 1
    a, b, c, d = x
    if sub == "gauss-inv":
        return 0 not in x and a * a + b * b > 1 < c * c + d * d and math.gcd(a * a + b * b, c * c + d * d) == 1
    u, v = a * c + b * d, a * d - b * c
    return math.gcd(a, b) == 1 == math.gcd(c, d) and abs(u) > 1 and abs(v) > 1 and math.gcd(u, v) == 1


def _operands(rng: random.Random, sub: str, size) -> tuple:
    arity = 4 if sub in ("quad", "sums", "gauss-inv") else 2
    while True:
        x = tuple(_draw(rng, size) for _ in range(arity))
        if sub in ("reduce", "reduce-minus"):
            x += (rng.randint(-10, 10),)
        if valid_operands(sub, x):
            return x


def _flags(flags) -> str:
    return "n/a" if flags is None else ",".join(str(f).lower() for f in flags)


def lib_result(lib, sub: str, x: tuple) -> tuple[str, dict]:
    """Expected text and --json output of ``modrecip <sub>``, from library calls."""
    fmt = lib.format_gaussian
    if sub == "inv":
        a, m = x
        v, c = lib.mod_inverse(a, m).expect(), lib.classical_inverse(a, m).expect()
        method = "unit-closed-form" if abs(m) == 1 else "extended-gcd"
        return f"{v}\n", {"a": a, "m": m, "inverse": v, "classical": c, "method": method}
    if sub == "classical-inv":
        a, m = x
        c = lib.classical_inverse(a, m).expect()
        return f"{c}\n", {"a": a, "m": m, "classical": c}
    if sub == "recip":
        r = lib.reciprocity_check(*x)
        return (f"inv_a_mod_b={r.inv_a_mod_b} inv_b_mod_a={r.inv_b_mod_a} lhs={r.lhs} rhs={r.rhs} "
                f"k={r.k} holds={str(r.holds).lower()}\n", asdict(r))
    if sub in ("reduce", "reduce-minus"):
        a, b, k = x
        minus = sub == "reduce-minus"
        v = (lib.reduce_inverse_minus if minus else lib.reduce_inverse_plus)(a, b, k)
        return f"{v}\n", {"a": a, "b": b, "k": k, "form": "minus" if minus else "plus",
                          "modulus": k * a - b if minus else k * a + b, "inverse": v}
    if sub == "square-inv":
        a, b = x
        v = lib.square_inverse(a, b)
        return f"{v}\n", {"a": a, "b": b, "modulus": a * a, "inverse": v}
    if sub in ("quad", "sums"):
        r = (lib.sum_of_squares_inverses if sub == "sums" else lib.quad_pair_inverses)(*x)
        text = (f"u={r.u} v={r.v} s={r.s} t={r.t}\n"
                + " ".join(f"x{i}={n}" for i, n in enumerate(r.x, 1)) + "\n"
                + " ".join(f"y{i}={n}" for i, n in enumerate(r.y, 1)) + "\n"
                + " ".join(f"z{i}={n}" for i, n in enumerate(r.z, 1)) + "\n"
                f"pair_inverse_ok={_flags(r.pair_inverse_ok)}\n"
                f"sum_inverse_ok={_flags(r.sum_inverse_ok)}\n"
                f"proof_identity_ok={_flags(r.proof_identity_ok)}\n")
        obj = asdict(r)
        if sub == "sums":
            extra = {f"{p}_inv_mod_{n}": lib.mod_inverse(getattr(r, p), getattr(r, n)).expect()
                     for n in "uv" for p in "st"}
            text += " ".join(f"{key}={val}" for key, val in extra.items()) + "\n"
            obj |= extra
        return text, obj
    if sub == "gauss-inv":
        z, w = (lib.GaussianInteger(*x[:2]), lib.GaussianInteger(*x[2:]))
        rep, can = lib.gaussian_inverse(z, w)
        return (f"representative {fmt(rep)}\ncanonical {fmt(can)}\n",
                {"z": fmt(z), "w": fmt(w), "representative": fmt(rep), "canonical": fmt(can)})
    a, b = x  # gauss-linear-inv
    v = lib.inverse_mod_gaussian_linear(a, b)
    return f"{fmt(v)}\n", {"a": a, "b": b, "modulus": fmt(lib.GaussianInteger(b, a)), "inverse": fmt(v)}


def _unhex(obj):
    """Read hex numerals as integers, so either notation of a result passes."""
    if isinstance(obj, str):
        return int(obj, 16) if _HEX.fullmatch(obj) else _HEX.sub(lambda h: str(int(h[0], 16)), obj)
    if isinstance(obj, list):
        return [_unhex(o) for o in obj]
    if isinstance(obj, dict):
        return {k: _unhex(v) for k, v in obj.items()}
    return obj


def _cli_check(lib, sub: str, x: tuple | None, as_json: bool) -> Callable[[object], bool]:
    """Check one child's outcome against the library; ``x`` is None for malformed operands."""
    code, reason, text, want = 1, None, None, None
    if x is not None:
        try:
            text, obj = lib_result(lib, sub, x)
            code, want = 0, json.loads(json.dumps(obj))
        except (lib.ZeroOperandError, lib.NotCoprimeError, lib.DomainError) as exc:
            code, reason = 2, REASONS[type(exc).__name__]

    def ok(proc) -> bool:
        if proc.returncode != code or "Traceback" in proc.stderr:
            return False
        if code == 0:
            return _unhex(json.loads(proc.stdout)) == want if as_json else _unhex(proc.stdout) == text
        if code == 2:
            return (json.loads(proc.stdout)["error"] == reason if as_json
                    else proc.stderr.startswith(f"error: {reason}:"))
        return proc.stdout == "" and "error:" in proc.stderr
    return ok


def cli_calls(seed: int) -> list[tuple[str, tuple, str, bool]]:
    """One pass as (subcommand, operands, notation, --json), in run order.

    The notation is ``dec``, ``hex`` or ``raw`` (malformed text the CLI must
    reject with exit 1).  Gaussian operands are four integers, two per number.
    """
    rng = random.Random(seed)
    calls = []
    for i, sub in enumerate(SUBCOMMANDS):
        for size in ("small", "small", CLI_WIDE[i % 3]):
            hex_ok = size != "small" and sub != "gauss-inv"  # Gaussian text is decimal only
            calls.append((sub, _operands(rng, sub, size), "hex" if hex_ok else "dec"))
    calls += [("inv", _operands(rng, "inv", "small"), "dec") for _ in range(2)]
    g = rng.randint(2, 9)
    calls += [
        ("inv", (g * rng.randint(1, 30), g * rng.randint(1, 30)), "dec"),  # NotCoprime
        ("square-inv", (g * rng.randint(1, 30), g * rng.randint(1, 30)), "dec"),  # NotCoprime
        ("inv", (0, _draw(rng, "small")), "dec"),  # ZeroOperand
        ("recip", (_draw(rng, "small"), 0), "dec"),  # ZeroOperand
        ("inv", (f"{rng.randint(1, 99)}z", str(rng.randint(2, 99))), "raw"),
        ("gauss-inv", (f"{rng.randint(1, 9)}+", f"{rng.randint(1, 9)}i"), "raw"),
    ]
    calls += [("inv", _operands(rng, "inv", CRASH_BITS), "hex") for _ in range(CRASH_CALLS)]
    # exactly half use --json; the crash calls come last and alternate too
    calls = [(sub, x, notation, i % 2 == 0) for i, (sub, x, notation) in enumerate(calls)]
    rng.shuffle(calls)
    return calls


def _cli_args(lib, sub: str, x: tuple, notation: str) -> list[str]:
    if notation == "raw":
        return list(x)
    if sub == "gauss-inv":
        return [lib.format_gaussian(lib.GaussianInteger(*x[:2])), lib.format_gaussian(lib.GaussianInteger(*x[2:]))]
    if notation == "hex":
        return [("-" if n < 0 else "") + hex(abs(n)) for n in x]
    return [str(n) for n in x]


def build_cli(lib, seed: int) -> Plan:
    env = child_env()
    ops = []
    for sub, x, notation, as_json in cli_calls(seed):
        argv = [sys.executable, "-m", "modrecip", "reduce" if sub == "reduce-minus" else sub]
        argv += ["--minus"] * (sub == "reduce-minus") + ["--json"] * as_json
        argv += ["--", *_cli_args(lib, sub, x, notation)]
        check = _cli_check(lib, sub, None if notation == "raw" else x, as_json)
        crash = notation == "hex" and abs(x[0]).bit_length() == CRASH_BITS
        ops.append(Op(f"cli.process.{sub}", lambda argv=argv: run_child(argv, env), check, known_defect=crash))
    # a chunk is a whole pass of 40 processes, which repeats only about eight times
    # a run; p90 needs at least ten samples beyond it, so half of the passes are kept
    return Plan(ops, resource.RUSAGE_CHILDREN, ["small", *CLI_WIDE, CRASH_BITS], chunk=len(ops),
                fast_share=0.5)


BUILDERS = {"wide-inverse": build_wide, "cli-oneshot": build_cli}
