"""Command-line surface: single computations, verification sweeps, benchmark.

Exit codes: 0 success, 1 usage or parse error, 2 undefined inverse or
violated hypothesis, 3 verification counterexample.  Prefix operands that
start with '-' and are not plain negative decimals (hex, Gaussian forms)
with a standalone '--' argument.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, replace
from json import dumps

from . import bench as bench_mod
from .core import (
    DomainError,
    NotCoprimeError,
    ZeroOperandError,
    classical_inverse,
    mod_inverse,
)
from .gaussian import (
    GaussianInteger,
    format_gaussian,
    gaussian_inverse,
    inverse_mod_gaussian_linear,
    parse_gaussian,
)
from .identities import (
    QuadPairReport,
    quad_pair_inverses,
    reduce_inverse_minus,
    reduce_inverse_plus,
    square_inverse,
    sum_of_squares_inverses,
)
from .recip import reciprocity_check
from .verify import MAX_SHARDS, SweepConfig, load_sweep_config, run_all

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNDEFINED = 2
EXIT_COUNTEREXAMPLE = 3


class _Parser(argparse.ArgumentParser):
    # usage problems are exit code 1, not argparse's default 2
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def parse_integer(text: str) -> int:
    """Decimal by default; 0x prefix (after an optional sign) for hex."""
    t = text.strip()
    sign_part, mag = ("", t)
    if t[:1] in "+-":
        sign_part, mag = t[0], t[1:]
    if mag[:2].lower() == "0x":
        return int(sign_part + mag[2:], 16)
    return int(sign_part + mag, 10)


def _int_arg(text: str) -> int:
    try:
        return parse_integer(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None


def _gauss_arg(text: str) -> GaussianInteger:
    try:
        return parse_gaussian(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid Gaussian integer {text!r}") from None


def _emit_json(obj) -> None:
    print(dumps(obj, sort_keys=True))


def _reason(exc: Exception) -> str:
    if isinstance(exc, ZeroOperandError):
        return "ZeroOperand"
    if isinstance(exc, NotCoprimeError):
        return "NotCoprime"
    return "Domain"


def cmd_inv(args) -> int:
    value = mod_inverse(args.a, args.m).expect()
    cls = classical_inverse(args.a, args.m).expect()
    if args.json:
        _emit_json(
            {
                "a": args.a,
                "m": args.m,
                "inverse": value,
                "classical": cls,
                "method": "unit-closed-form" if abs(args.m) == 1 else "extended-gcd",
            }
        )
    elif args.classical:
        print(f"{value} (classical: {cls})")
    else:
        print(value)
    return EXIT_OK


def cmd_classical_inv(args) -> int:
    value = classical_inverse(args.a, args.m).expect()
    if args.json:
        _emit_json({"a": args.a, "m": args.m, "classical": value})
    else:
        print(value)
    return EXIT_OK


def cmd_recip(args) -> int:
    rep = reciprocity_check(args.a, args.b)
    if args.json:
        _emit_json(asdict(rep))
    else:
        print(
            f"inv_a_mod_b={rep.inv_a_mod_b} inv_b_mod_a={rep.inv_b_mod_a} "
            f"lhs={rep.lhs} rhs={rep.rhs} k={rep.k} holds={str(rep.holds).lower()}"
        )
    return EXIT_OK


def cmd_reduce(args) -> int:
    if args.minus:
        value = reduce_inverse_minus(args.a, args.b, args.k)
        target = args.k * args.a - args.b
    else:
        value = reduce_inverse_plus(args.a, args.b, args.k)
        target = args.k * args.a + args.b
    if args.json:
        _emit_json(
            {
                "a": args.a,
                "b": args.b,
                "k": args.k,
                "form": "minus" if args.minus else "plus",
                "modulus": target,
                "inverse": value,
            }
        )
    else:
        print(value)
    return EXIT_OK


def cmd_square_inv(args) -> int:
    value = square_inverse(args.a, args.b)
    if args.json:
        _emit_json({"a": args.a, "b": args.b, "modulus": args.a * args.a, "inverse": value})
    else:
        print(value)
    return EXIT_OK


def _flags(flags) -> str:
    if flags is None:
        return "n/a"
    return ",".join(str(f).lower() for f in flags)


def _print_quad(rep: QuadPairReport) -> None:
    print(f"u={rep.u} v={rep.v} s={rep.s} t={rep.t}")
    print(f"x1={rep.x[0]} x2={rep.x[1]} x3={rep.x[2]} x4={rep.x[3]}")
    print(f"y1={rep.y[0]} y2={rep.y[1]} y3={rep.y[2]} y4={rep.y[3]}")
    print(f"z1={rep.z[0]} z2={rep.z[1]} z3={rep.z[2]}")
    print(f"pair_inverse_ok={_flags(rep.pair_inverse_ok)}")
    print(f"sum_inverse_ok={_flags(rep.sum_inverse_ok)}")
    print(f"proof_identity_ok={_flags(rep.proof_identity_ok)}")


def cmd_quad(args) -> int:
    rep = quad_pair_inverses(args.a, args.b, args.c, args.d)
    if args.json:
        _emit_json(asdict(rep))
    else:
        _print_quad(rep)
    return EXIT_OK


def cmd_sums(args) -> int:
    rep = sum_of_squares_inverses(args.a, args.b, args.c, args.d)
    values = {
        "s_inv_mod_u": mod_inverse(rep.s, rep.u).expect(),
        "t_inv_mod_u": mod_inverse(rep.t, rep.u).expect(),
        "s_inv_mod_v": mod_inverse(rep.s, rep.v).expect(),
        "t_inv_mod_v": mod_inverse(rep.t, rep.v).expect(),
    }
    if args.json:
        _emit_json(asdict(rep) | values)
    else:
        _print_quad(rep)
        print(" ".join(f"{k}={v}" for k, v in values.items()))
    return EXIT_OK


def cmd_gauss_inv(args) -> int:
    representative, canonical = gaussian_inverse(args.z, args.w)
    if args.json:
        _emit_json(
            {
                "z": format_gaussian(args.z),
                "w": format_gaussian(args.w),
                "representative": format_gaussian(representative),
                "canonical": format_gaussian(canonical),
            }
        )
    else:
        print(f"representative {format_gaussian(representative)}")
        print(f"canonical {format_gaussian(canonical)}")
    return EXIT_OK


def cmd_gauss_linear_inv(args) -> int:
    value = inverse_mod_gaussian_linear(args.a, args.b)
    modulus = GaussianInteger(args.b, args.a)
    if args.json:
        _emit_json(
            {
                "a": args.a,
                "b": args.b,
                "modulus": format_gaussian(modulus),
                "inverse": format_gaussian(value),
            }
        )
    else:
        print(format_gaussian(value))
    return EXIT_OK


def _build_config(args) -> SweepConfig:
    config = SweepConfig()
    if args.config:
        config = load_sweep_config(args.config, config)
    overrides = {}
    for flag, field_name in (
        ("bound", "bound"),
        ("k_bound", "k_bound"),
        ("gaussian_bound", "gaussian_bound"),
        ("shards", "shard_count"),
    ):
        value = getattr(args, flag)
        if value is not None:
            overrides[field_name] = value
    return replace(config, **overrides)


def cmd_verify(args) -> int:
    try:
        config = _build_config(args)
    except (DomainError, ValueError, OSError) as exc:
        print(f"modrecip verify: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    results = run_all(config, classical_units=args.use_classical_unit_inverse)
    passed = all(r.passed for r in results)
    if args.json:
        suites = [asdict(r) | {"cases_per_s": r.cases_per_s} for r in results]
        _emit_json({"passed": passed, "suites": suites})
    else:
        for r in results:
            status = "ok" if r.passed else f"{r.failure_count} FAILED"
            note = f" ({r.note})" if r.note else ""
            timing = f"{r.elapsed_s:.2f} s, {r.cases_per_s:.0f} cases/s"
            print(f"{r.name}: {r.cases} cases, {status}{note} [{timing}]")
            if not r.passed:
                print(f"  minimal counterexample: {r.failures[0]}")
        print("all suites passed" if passed else "verification FAILED")
    return EXIT_OK if passed else EXIT_COUNTEREXAMPLE


def cmd_bench(args) -> int:
    if not bench_mod.MIN_BITS <= args.bits <= bench_mod.MAX_BITS:
        print(
            f"modrecip bench: error: --bits must be in "
            f"[{bench_mod.MIN_BITS}, {bench_mod.MAX_BITS}]",
            file=sys.stderr,
        )
        return EXIT_USAGE
    if args.iters < 1:
        print("modrecip bench: error: --iters must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    report = bench_mod.run_bench(args.bits, args.iters, args.seed)
    if not report.all_agreed:
        print(
            f"modrecip bench: routes disagreed on "
            f"{report.iterations - report.agreement_count} trial(s); no timing report",
            file=sys.stderr,
        )
        return EXIT_COUNTEREXAMPLE
    if args.json:
        _emit_json(asdict(report))
    else:
        print(f"bit_width={report.bit_width} iterations={report.iterations} seed={report.seed}")
        print(
            f"median_ns_reciprocity={report.median_ns_reciprocity} "
            f"median_ns_ext_gcd={report.median_ns_ext_gcd} "
            f"agreement_count={report.agreement_count}"
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit one JSON object instead of text")

    parser = _Parser(prog="modrecip", description="Signed modular inverses and identities")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("inv", parents=[common], help="windowed inverse of a modulo m")
    p.add_argument("a", type=_int_arg)
    p.add_argument("m", type=_int_arg)
    p.add_argument("--classical", action="store_true", help="also show the classical value")
    p.set_defaults(func=cmd_inv)

    p = sub.add_parser("classical-inv", parents=[common], help="classical inverse in [0, |m|-1]")
    p.add_argument("a", type=_int_arg)
    p.add_argument("m", type=_int_arg)
    p.set_defaults(func=cmd_classical_inv)

    p = sub.add_parser("recip", parents=[common], help="check a*inv_a + b*inv_b = 1 + a*b")
    p.add_argument("a", type=_int_arg)
    p.add_argument("b", type=_int_arg)
    p.set_defaults(func=cmd_recip)

    p = sub.add_parser("reduce", parents=[common],
                       help="inverse of a modulo k*a+b (or k*a-b) from smaller inverses")
    p.add_argument("a", type=_int_arg)
    p.add_argument("b", type=_int_arg)
    p.add_argument("k", type=_int_arg)
    p.add_argument("--minus", action="store_true", help="use the k*a-b form")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("square-inv", parents=[common], help="inverse of b^2 modulo a^2")
    p.add_argument("a", type=_int_arg)
    p.add_argument("b", type=_int_arg)
    p.set_defaults(func=cmd_square_inv)

    p = sub.add_parser("quad", parents=[common], help="cross-pair inverse report for (a,b,c,d)")
    for name in "abcd":
        p.add_argument(name, type=_int_arg)
    p.set_defaults(func=cmd_quad)

    p = sub.add_parser("sums", parents=[common],
                       help="sum-of-squares inverse report for (a,b,c,d)")
    for name in "abcd":
        p.add_argument(name, type=_int_arg)
    p.set_defaults(func=cmd_sums)

    p = sub.add_parser("gauss-inv", parents=[common], help="inverse of z modulo w in Z[i]")
    p.add_argument("z", type=_gauss_arg)
    p.add_argument("w", type=_gauss_arg)
    p.set_defaults(func=cmd_gauss_inv)

    p = sub.add_parser("gauss-linear-inv", parents=[common],
                       help="inverse of the integer a modulo a*i + b")
    p.add_argument("a", type=_int_arg)
    p.add_argument("b", type=_int_arg)
    p.set_defaults(func=cmd_gauss_linear_inv)

    p = sub.add_parser("verify", parents=[common], help="run every verification sweep")
    p.add_argument("--bound", type=_int_arg, default=None, help="reciprocity/oracle operand bound")
    p.add_argument("--k-bound", dest="k_bound", type=_int_arg, default=None)
    p.add_argument("--gaussian-bound", dest="gaussian_bound", type=_int_arg, default=None)
    p.add_argument("--shards", type=_int_arg, default=None,
                   help=f"worker processes for the sweeps (1 to {MAX_SHARDS})")
    p.add_argument("--config", default=None, metavar="FILE",
                   help="key=value file overriding any sweep bound")
    p.add_argument("--use-classical-unit-inverse", action="store_true",
                   help="substitute the classical 0 for unit moduli and check the designed breaks")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", parents=[common],
                       help="time reciprocity-route inversion against extended gcd")
    p.add_argument("--bits", type=_int_arg, required=True, help="operand width in bits")
    p.add_argument("--iters", type=_int_arg, default=1000, help="number of trials")
    p.add_argument("--seed", type=_int_arg, metavar="U64", default=None,
                   help="seed for the random operands")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ZeroOperandError, NotCoprimeError, DomainError) as exc:
        reason = _reason(exc)
        if getattr(args, "json", False):
            _emit_json({"error": reason, "detail": str(exc)})
        else:
            print(f"error: {reason}: {exc}", file=sys.stderr)
        return EXIT_UNDEFINED


if __name__ == "__main__":
    sys.exit(main())
