"""Property tests of the compute subcommands, calling ``main`` in-process.

Differential: the --json output of every compute subcommand equals the
library call (or names the library's failure).  Robustness: no argv given
to a compute subcommand ends in anything but a returned exit code 0-3;
``main`` raises nothing, not even argparse's SystemExit.  ``verify`` and
``bench`` reach the random-argv test only through explicit examples that
stop in the parser: random bounds make them run without limit.
Equivalence: a call that ``main`` reads without argparse gets the
namespace argparse would give it.
"""

import contextlib
import io
import itertools
import json
from dataclasses import asdict

from hypothesis import example, given, settings
from hypothesis import strategies as st

from modrecip import (
    DomainError,
    GaussianInteger,
    NotCoprimeError,
    ZeroOperandError,
    classical_inverse,
    format_gaussian,
    gaussian_inverse,
    inverse_mod_gaussian_linear,
    mod_inverse,
    quad_pair_inverses,
    reciprocity_check,
    reduce_inverse_minus,
    reduce_inverse_plus,
    square_inverse,
    sum_of_squares_inverses,
)
from modrecip import cli
from modrecip.cli import COMMANDS, build_parser, main

small = st.integers(-40, 40)
wide = st.integers(-(1 << 1024), 1 << 1024)
operand = st.one_of(small, small, wide)


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _expected(sub, x, flag):
    """The --json object of ``modrecip <sub>``, built from library calls."""
    if sub == "inv":
        a, m = x
        return {"a": a, "m": m, "inverse": mod_inverse(a, m).expect(),
                "classical": classical_inverse(a, m).expect(),
                "method": "unit-closed-form" if abs(m) == 1 else "extended-gcd"}
    if sub == "classical-inv":
        a, m = x
        return {"a": a, "m": m, "classical": classical_inverse(a, m).expect()}
    if sub == "recip":
        return asdict(reciprocity_check(*x))
    if sub == "reduce":
        a, b, k = x
        value = (reduce_inverse_minus if flag else reduce_inverse_plus)(a, b, k)
        return {"a": a, "b": b, "k": k, "form": "minus" if flag else "plus",
                "modulus": k * a - b if flag else k * a + b, "inverse": value}
    if sub == "square-inv":
        a, b = x
        return {"a": a, "b": b, "modulus": a * a, "inverse": square_inverse(a, b)}
    if sub == "quad":
        return asdict(quad_pair_inverses(*x))
    if sub == "sums":
        rep = sum_of_squares_inverses(*x)
        return asdict(rep) | {
            "s_inv_mod_u": mod_inverse(rep.s, rep.u).expect(),
            "t_inv_mod_u": mod_inverse(rep.t, rep.u).expect(),
            "s_inv_mod_v": mod_inverse(rep.s, rep.v).expect(),
            "t_inv_mod_v": mod_inverse(rep.t, rep.v).expect(),
        }
    if sub == "gauss-inv":
        z, w = GaussianInteger(*x[:2]), GaussianInteger(*x[2:])
        rep, can = gaussian_inverse(z, w)
        return {"z": format_gaussian(z), "w": format_gaussian(w),
                "representative": format_gaussian(rep), "canonical": format_gaussian(can)}
    a, b = x  # gauss-linear-inv
    return {"a": a, "b": b, "modulus": format_gaussian(GaussianInteger(b, a)),
            "inverse": format_gaussian(inverse_mod_gaussian_linear(a, b))}


@st.composite
def valid_calls(draw):
    sub = draw(st.sampled_from(sorted(COMMANDS)))
    arity = {"reduce": 3, "quad": 4, "sums": 4, "gauss-inv": 4}.get(sub, 2)
    x = tuple(draw(small if sub == "gauss-inv" else operand) for _ in range(arity))
    flag = draw(st.booleans()) if COMMANDS[sub].flag else False
    if sub == "gauss-inv":
        args = [format_gaussian(GaussianInteger(*x[:2])), format_gaussian(GaussianInteger(*x[2:]))]
    else:
        args = [draw(st.sampled_from([str(n), hex(n)])) for n in x]
    flags = [COMMANDS[sub].flag[0]] if flag else []
    return sub, x, flag, [*flags, "--", *args]


@settings(max_examples=150, deadline=None)
@given(valid_calls())
def test_json_output_equals_library_call(call):
    sub, x, flag, args = call
    argv = [sub, "--json", *args]
    try:
        want, reason = _expected(sub, x, flag), None
    except (ZeroOperandError, NotCoprimeError, DomainError) as exc:
        want, reason = None, type(exc).__name__.removesuffix("Error")
    code, out, err = _call(argv)
    if reason is None:
        assert (code, err) == (0, "")
        assert json.loads(out) == json.loads(json.dumps(want))
    else:
        assert code == 2 and json.loads(out)["error"] == reason


tokens = st.one_of(
    st.integers(-(1 << 64), 1 << 64).map(str),
    st.integers(-(1 << 64), 1 << 64).map(hex),
    st.sampled_from(["", " ", "+", "-", "0x", "-0x", "0", "1", "-1", "i", "-i", "1+i", "2-3i",
                     "1+zi", "--json", "--classical", "--minus", "--", "-h", "--seed", "5"]),
    st.text(max_size=6),
)


@settings(max_examples=150, deadline=None)
@given(st.builds(lambda sub, rest: [sub, *rest], st.sampled_from(sorted(COMMANDS)),
                 st.lists(tokens, max_size=6)))
@example([])
@example(["-h"])
@example(["verify", "-h"])
@example(["bench", "--bits", "x"])
@example(["inv", "x", "3"])
def test_no_argv_ends_in_a_traceback(argv):
    code, _, _ = _call(argv)
    assert code in (0, 1, 2, 3)


def _argparse_namespace(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(build_parser().parse_args(argv))
        except SystemExit as exc:
            return exc.code


def test_plain_calls_parse_as_argparse_does():
    # every order of up to five operands, flags and '--' over two small alphabets
    accepted = 0
    for sub, alphabet in (("inv", ["3", "-7", "0x1f", "-0x1f", "--json", "--classical", "--", "-h"]),
                          ("gauss-inv", ["1+1i", "-i", "", "-", "--json", "--"])):
        for size in range(6):
            for rest in itertools.product(alphabet, repeat=size):
                argv = [sub, *rest]
                plain = cli._plain_call(argv)
                if plain is not None:
                    accepted += 1
                    assert vars(plain) == _argparse_namespace(argv), argv
    assert accepted > 300  # the grid reaches the plain path, not only argparse


def test_benchmark_form_is_a_plain_call():
    # flags, then '--', then operands: how scripts call the CLI
    plain = cli._plain_call(["reduce", "--minus", "--json", "--", "-7", "0x1", "3"])
    assert vars(plain) == vars(build_parser().parse_args(
        ["reduce", "--minus", "--json", "--", "-7", "0x1", "3"]))
    for argv in (["inv", "3", "7", "--json", "--"], ["inv", "--", "3", "--", "7"], ["inv", "-h"],
                 ["inv", "3", "7", "--js"], ["inv", "3", "-0x7"], ["verify"],
                 ["-h"], ["nosuch", "1"], [], ["verify", "-h"], ["bench", "-h"],
                 ["inv", "3", "7", "--bogus"], ["gauss-inv", "1+i"], ["bench", "--bits", "x"]):
        assert cli._plain_call(argv) is None, argv
