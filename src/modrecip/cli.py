"""Command-line surface: single computations, verification sweeps, benchmark.

Exit codes: 0 success, 1 usage or parse error, 2 undefined inverse or
violated hypothesis, 3 verification counterexample.  Prefix operands that
start with '-' and are not plain negative decimals (hex, Gaussian forms)
with a standalone '--' argument.

Only :mod:`modrecip.core` is imported up front.  Each subcommand imports
the modules it runs when it runs, so a one-shot process such as
``python -m modrecip inv 3 7`` loads neither the sweeps nor the bench, and
only the subcommands that build a dataclass record (``recip``, ``quad``,
``sums``, ``verify``, ``bench``) load :mod:`dataclasses`.  A compute call
of flags and well-formed operands, the common case, is read straight from
the command table and never imports :mod:`argparse`; everything else, help
and usage errors included, goes to the argparse parser.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, NamedTuple

from .core import (MAX_BITS, MAX_SHARDS, MIN_BITS, DomainError, NotCoprimeError,
                   ZeroOperandError, classical_inverse, inverse)

if TYPE_CHECKING:
    import argparse

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNDEFINED = 2
EXIT_COUNTEREXAMPLE = 3

# Widest integer operand or Gaussian component.  Results reach about three times
# this width, so main lifts the interpreter's 4300-digit int/str limit while it
# runs.  Operand text longer than this many characters is refused unparsed
# (decimal parsing is quadratic); no in-cap numeral is that long.
MAX_OPERAND_BITS = 1 << 16


class _Refused(ValueError):
    """An operand that does not parse or exceeds the cap; the message says which."""


def parse_integer(text: str) -> int:
    """Decimal by default; hex with a 0x prefix, which a sign may precede but not follow."""
    t = text.strip()
    return int(t, 16 if t.lstrip("+-")[:2].lower() == "0x" else 10)


def _capped(text: str, parse: Callable, kind: str, parts: Callable):
    if len(text) <= MAX_OPERAND_BITS:
        try:
            value = parse(text)
        except ValueError:
            raise _Refused(f"invalid {kind} {text!r}") from None
        if all(n.bit_length() <= MAX_OPERAND_BITS for n in parts(value)):
            return value
    raise _Refused(f"operand exceeds the {MAX_OPERAND_BITS}-bit cap")


def _int_arg(text: str) -> int:
    return _capped(text, parse_integer, "integer", lambda n: (n,))


def _gauss_arg(text: str):
    from .gaussian import parse_gaussian
    return _capped(text, parse_gaussian, "Gaussian integer", lambda z: (z.re, z.im))


def _emit_json(obj) -> None:
    from json import dumps
    print(dumps(obj, sort_keys=True))


def _inv(a, m, classical):
    value = inverse(a, m)
    # the classical value is the same residue modulo |m|, and 0 for a unit modulus
    cls = value % abs(m) if abs(m) > 1 else 0
    method = "unit-closed-form" if abs(m) == 1 else "extended-gcd"
    text = f"{value} (classical: {cls})" if classical else str(value)
    return {"a": a, "m": m, "inverse": value, "classical": cls, "method": method}, text


def _classical_inv(a, m):
    value = classical_inverse(a, m).expect()
    return {"a": a, "m": m, "classical": value}, str(value)


def _recip(a, b):
    from dataclasses import asdict
    from .recip import reciprocity_check
    rep = reciprocity_check(a, b)
    text = (f"inv_a_mod_b={rep.inv_a_mod_b} inv_b_mod_a={rep.inv_b_mod_a} "
            f"lhs={rep.lhs} rhs={rep.rhs} k={rep.k} holds={str(rep.holds).lower()}")
    return asdict(rep), text


def _reduce(a, b, k, minus):
    from .identities import reduce_inverse_minus, reduce_inverse_plus
    value = (reduce_inverse_minus if minus else reduce_inverse_plus)(a, b, k)
    obj = {"a": a, "b": b, "k": k, "form": "minus" if minus else "plus",
           "modulus": k * a - b if minus else k * a + b, "inverse": value}
    return obj, str(value)


def _square_inv(a, b):
    from .identities import square_inverse
    value = square_inverse(a, b)
    return {"a": a, "b": b, "modulus": a * a, "inverse": value}, str(value)


def _flags(flags) -> str:
    return "n/a" if flags is None else ",".join(str(f).lower() for f in flags)


def _quad_text(rep) -> str:
    return "\n".join((
        f"u={rep.u} v={rep.v} s={rep.s} t={rep.t}",
        f"x1={rep.x[0]} x2={rep.x[1]} x3={rep.x[2]} x4={rep.x[3]}",
        f"y1={rep.y[0]} y2={rep.y[1]} y3={rep.y[2]} y4={rep.y[3]}",
        f"z1={rep.z[0]} z2={rep.z[1]} z3={rep.z[2]}",
        f"pair_inverse_ok={_flags(rep.pair_inverse_ok)}",
        f"sum_inverse_ok={_flags(rep.sum_inverse_ok)}",
        f"proof_identity_ok={_flags(rep.proof_identity_ok)}",
    ))


def _quad(a, b, c, d):
    from dataclasses import asdict
    from .identities import quad_pair_inverses
    rep = quad_pair_inverses(a, b, c, d)
    return asdict(rep), _quad_text(rep)


def _sums(a, b, c, d):
    from dataclasses import asdict
    from .identities import sum_inverse_values
    rep, values = sum_inverse_values(a, b, c, d)
    text = _quad_text(rep) + "\n" + " ".join(f"{k}={v}" for k, v in values.items())
    return asdict(rep) | values, text


def _gauss_inv(z, w):
    from .gaussian import format_gaussian, gaussian_inverse
    representative, canonical = map(format_gaussian, gaussian_inverse(z, w))
    obj = {"z": format_gaussian(z), "w": format_gaussian(w),
           "representative": representative, "canonical": canonical}
    return obj, f"representative {representative}\ncanonical {canonical}"


def _gauss_linear_inv(a, b):
    from .gaussian import GaussianInteger, format_gaussian, inverse_mod_gaussian_linear
    value = format_gaussian(inverse_mod_gaussian_linear(a, b))
    modulus = format_gaussian(GaussianInteger(b, a))
    return {"a": a, "b": b, "modulus": modulus, "inverse": value}, value


class Command(NamedTuple):
    """A compute subcommand: compute(*operands[, flag]) returns (JSON object, text)."""

    help: str
    operands: str  # one single-letter name per positional operand
    compute: Callable
    operand_type: Callable = _int_arg
    flag: tuple[str, str] | None = None  # (option, help) of one store_true flag


COMMANDS = {
    "inv": Command("windowed inverse of a modulo m", "am", _inv,
                   flag=("--classical", "also show the classical value")),
    "classical-inv": Command("classical inverse in [0, |m|-1]", "am", _classical_inv),
    "recip": Command("check a*inv_a + b*inv_b = 1 + a*b", "ab", _recip),
    "reduce": Command("inverse of a modulo k*a+b (or k*a-b) from smaller inverses", "abk",
                      _reduce, flag=("--minus", "use the k*a-b form")),
    "square-inv": Command("inverse of b^2 modulo a^2", "ab", _square_inv),
    "quad": Command("cross-pair inverse report for (a,b,c,d)", "abcd", _quad),
    "sums": Command("sum-of-squares inverse report for (a,b,c,d)", "abcd", _sums),
    "gauss-inv": Command("inverse of z modulo w in Z[i]", "zw", _gauss_inv, _gauss_arg),
    "gauss-linear-inv": Command("inverse of the integer a modulo a*i + b", "ab",
                                _gauss_linear_inv),
}


def _run_command(args) -> int:
    """Compute one table subcommand and print its text or JSON result."""
    command = COMMANDS[args.command]
    operands = [getattr(args, name) for name in command.operands]
    if command.flag:
        operands.append(getattr(args, command.flag[0].lstrip("-")))
    obj, text = command.compute(*operands)
    if args.json:
        _emit_json(obj)
    else:
        print(text)
    return EXIT_OK


def cmd_verify(args) -> int:
    from dataclasses import asdict, replace
    from .verify import SweepConfig, load_sweep_config, run_all
    overrides = {"bound": args.bound, "k_bound": args.k_bound,
                 "gaussian_bound": args.gaussian_bound, "shard_count": args.shards}
    try:
        config = load_sweep_config(args.config) if args.config else SweepConfig()
        config = replace(config, **{k: v for k, v in overrides.items() if v is not None})
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
    if not MIN_BITS <= args.bits <= MAX_BITS:
        print(f"modrecip bench: error: --bits must be in [{MIN_BITS}, {MAX_BITS}]",
              file=sys.stderr)
        return EXIT_USAGE
    if args.iters < 1:
        print("modrecip bench: error: --iters must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    from dataclasses import asdict
    from .bench import run_bench
    report = run_bench(args.bits, args.iters, args.seed)
    if not report.all_agreed:
        print(f"modrecip bench: routes disagreed on {report.iterations - report.agreement_count}"
              " trial(s); no timing report", file=sys.stderr)
        return EXIT_COUNTEREXAMPLE
    if args.json:
        _emit_json(asdict(report))
    else:
        print(f"bit_width={report.bit_width} iterations={report.iterations} seed={report.seed}")
        print(f"median_ns_reciprocity={report.median_ns_reciprocity} "
              f"median_ns_ext_gcd={report.median_ns_ext_gcd} "
              f"median_ns_pow={report.median_ns_pow} "
              f"agreement_count={report.agreement_count}")
    return EXIT_OK


def _plain_call(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse gives a compute call of flags and plain operands, else None.

    Plain means whole flag names, at most one '--' and not as the last token
    (argparse refuses a last '--' after a flag), no other token before it
    that starts with '-' but an ASCII negative decimal, which argparse also
    reads as an operand, and operands that parse.  Anything else, help and
    usage errors included, is left to argparse.
    """
    command = COMMANDS.get(argv[0]) if argv else None
    if command is None or argv[-1] == "--":
        return None
    flags = {"--json": "json"} | ({command.flag[0]: command.flag[0][2:]} if command.flag else {})
    values = dict.fromkeys(flags.values(), False)
    texts = []
    rest = iter(argv[1:])
    for arg in rest:
        if arg == "--":
            texts += rest  # everything after it is an operand
        elif arg in flags:
            values[flags[arg]] = True
        elif arg[:1] != "-" or arg[1:].isascii() and arg[1:].isdigit():
            texts.append(arg)
        else:
            return None
    if len(texts) != len(command.operands):
        return None
    try:
        values |= {name: command.operand_type(text) for name, text in zip(command.operands, texts)}
    except _Refused:
        return None
    return SimpleNamespace(command=argv[0], func=_run_command, **values)


def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, with one subparser per subcommand."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        # usage problems are exit code 1, not argparse's default 2
        def error(self, message: str):
            self.print_usage(sys.stderr)
            self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    def typed(convert: Callable) -> Callable:
        # argparse prints an ArgumentTypeError's own message
        def operand(text: str):
            try:
                return convert(text)
            except _Refused as exc:
                raise argparse.ArgumentTypeError(str(exc)) from None
        return operand

    int_arg = typed(_int_arg)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit one JSON object instead of text")

    parser = _Parser(prog="modrecip", description="Signed modular inverses and identities")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    for name, command in COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=command.help)
        for operand in command.operands:
            p.add_argument(operand, type=typed(command.operand_type))
        if command.flag:
            p.add_argument(command.flag[0], action="store_true", help=command.flag[1])
        p.set_defaults(func=_run_command)

    p = sub.add_parser("verify", parents=[common], help="run every verification sweep")
    p.add_argument("--bound", type=int_arg, default=None,
                   help="reciprocity/oracle operand bound")
    p.add_argument("--k-bound", dest="k_bound", type=int_arg, default=None)
    p.add_argument("--gaussian-bound", dest="gaussian_bound", type=int_arg, default=None)
    p.add_argument("--shards", type=int_arg, default=None,
                   help=f"worker processes for the sweeps (1 to {MAX_SHARDS})")
    p.add_argument("--config", default=None, metavar="FILE",
                   help="key=value file overriding any sweep bound")
    p.add_argument("--use-classical-unit-inverse", action="store_true",
                   help="substitute the classical 0 for unit moduli and check the designed breaks")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", parents=[common], help="time reciprocity-route inversion "
                       "against extended gcd and the built-in pow")
    p.add_argument("--bits", type=int_arg, required=True,
                   help=f"operand width in bits ({MIN_BITS} to {MAX_BITS})")
    p.add_argument("--iters", type=int_arg, default=1000, help="number of trials")
    p.add_argument("--seed", type=int_arg, metavar="U64", default=None,
                   help="seed for the random operands")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        argv = sys.argv[1:] if argv is None else list(argv)
        args = _plain_call(argv)
        if args is None:
            parser = build_parser()
            args = parser.parse_args(argv)
            # argparse takes a second "--" as an operand and hands it over as []
            empty = [name for name, value in vars(args).items() if isinstance(value, list)]
            if empty:
                parser.error(f"missing operand(s): {', '.join(empty)}")
        try:
            return args.func(args)
        except (ZeroOperandError, NotCoprimeError, DomainError) as exc:
            reason = type(exc).__name__.removesuffix("Error")
            if args.json:
                _emit_json({"error": reason, "detail": str(exc)})
            else:
                print(f"error: {reason}: {exc}", file=sys.stderr)
            return EXIT_UNDEFINED
    finally:
        # callers that run main in-process keep their own limit
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
