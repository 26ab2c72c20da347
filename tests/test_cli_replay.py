"""A committed replay of the CLI's output over a seeded argv corpus.

Each row of ``cli_replay.txt`` is a 16-hex digest of (exit code, stdout,
stderr) from one in-process ``cli.main`` call, in the order :func:`corpus`
builds the argv.  argparse wraps its usage text differently across Python
versions, so a row whose output is argparse's help or usage keeps only the
exit code and the last stderr line.  A change that alters output on purpose
regenerates the file, as does any change to the generator:

    PYTHONPATH=src python tests/test_cli_replay.py > tests/cli_replay.txt
"""

import hashlib
import io
import json
import math
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from modrecip.cli import main

DIGESTS = Path(__file__).with_name("cli_replay.txt")
SEED, ROWS = 13, 3000

SUBCOMMANDS = ("inv", "classical-inv", "recip", "reduce", "square-inv", "quad", "sums",
               "gauss-linear-inv", "gauss-inv")
_ARITY = {"reduce": 3, "quad": 4, "sums": 4}
_FLAG = {"inv": "--classical", "reduce": "--minus"}
# Subcommands whose calls reach the operand cap.  quad, sums and square-inv
# print several results of twice its width or more, 0.1-0.3 s each in decimal
_CAPPED = ("inv", "classical-inv", "recip", "reduce", "gauss-linear-inv")

# The README's CLI examples, the operand grammar, and refusals that stop
# before any sweep or timing runs
_FIXED = [
    ["inv", "7", "22"], ["inv", "7", "1", "--classical"], ["recip", "-3", "-5"],
    ["reduce", "7", "1", "3"], ["square-inv", "3", "2"], ["quad", "3", "2", "1", "2"],
    ["sums", "3", "2", "1", "2"], ["gauss-inv", "1+1i", "2+1i"], ["gauss-linear-inv", "3", "2"],
    ["inv", "\u0661\u0662", "7"], ["inv", "\uff13", "7"], ["inv", "-\u0661\u0662", "7"],
    ["inv", "--", "-\u0661\u0662", "7"], ["gauss-inv", "\uff13+2i", "3+5i"],
    ["gauss-inv", "1_0+2i", "3+5i"], ["gauss-inv", "0x10+2i", "3+5i"],
    ["gauss-inv", "--", "1 2+1i", "2+1i"], ["gauss-inv", " 3 - 3i ", "2+1i"],
    *[["inv", "--json", "--", text, "1000003"]
      for text in ("0x-1", "0x+5", "0x 1f", "-0x-1", "-0x1f", "+0X1F", " 0x1f ", "0x1_f", "0x_1f")],
    ["inv", "0x7", "0x16"], ["inv", "7", "+22"], ["inv", "1_000", "7"],
    ["inv", "2", "4", "--json"], ["inv", "5", "0"], ["classical-inv", "0", "1"],
    ["inv", "9" * 19729, "3"], ["inv", "1" * 65537, "3"], ["inv", "--", hex((1 << 65536) - 1), "3"],
    ["inv", "--", "1" * 39 + "x", "7"], ["gauss-inv", "--", "1" * 60 + "x", "7"],
    ["inv", "3", "--", "--"], ["quad", "0", "1", "0", "--", "--"], ["inv", "7"], ["inv", "x", "3"],
    [], ["bogus"], ["inv", "3", "7", "--bogus"], ["-h"], ["inv", "-h"], ["verify", "--help"],
    ["bench", "-h"], ["bench", "--bits", "32"], ["bench", "--bits", "x"],
    ["verify", "--shards", "100000"], ["verify", "--bound", "1"], ["verify", "--shards", "0x21"],
]


def _bits(rng: random.Random) -> int:
    """3 to 4096 bits, log-uniform."""
    return round(2 ** rng.uniform(math.log2(3), 12))


def _integer(rng: random.Random, bits: int) -> int:
    """A signed integer of the given width, or now and then a zero or unit operand."""
    pick = rng.random()
    if pick < 0.03:
        return 0
    if pick < 0.08:
        return rng.choice((1, -1))
    return rng.choice((1, -1)) * (rng.getrandbits(bits) | 1 << bits - 1)


def _coprime(pair: tuple[int, int]) -> tuple[int, int]:
    g = math.gcd(*pair)
    return pair if g <= 1 else (pair[0] // g, pair[1] // g)


def _gaussian_text(rng: random.Random, re: int, im: int) -> str:
    form = rng.random()
    if form < 0.1:
        return str(re)
    if form < 0.2:
        return f"{im}i"
    if form < 0.25:
        return f"{re} {'-' if im < 0 else '+'} {abs(im)}i"
    return f"{re}{'-' if im < 0 else '+'}{abs(im)}i"


def _operand_texts(rng: random.Random, sub: str) -> list[str]:
    coprime = rng.random() < 0.8
    if sub == "gauss-inv":
        bits = min(_bits(rng), 2048)
        for _ in range(20):  # coprime norms make coprime Gaussian operands
            parts = [_integer(rng, bits) for _ in range(4)]
            norms = parts[0] ** 2 + parts[1] ** 2, parts[2] ** 2 + parts[3] ** 2
            if not coprime or math.gcd(*norms) == 1:
                break
        return [_gaussian_text(rng, *parts[:2]), _gaussian_text(rng, *parts[2:])]
    bits = _bits(rng)
    values = [_integer(rng, bits) for _ in range(_ARITY.get(sub, 2))]
    capped = sub in _CAPPED and rng.random() < 0.02
    if capped:  # one operand at the 65536-bit cap, in hex, which parses in linear time
        values[0] = _integer(rng, 1 << 16)
    if sub == "reduce":
        values[2] = rng.randint(-3, 6)
    if coprime:
        values[:2] = _coprime(values[:2])
        if sub in ("quad", "sums"):
            values[2:] = _coprime(values[2:])
    hexed = capped or rng.random() < 0.3
    return [f"{'-' * (n < 0)}0x{abs(n):x}" if hexed else str(n) for n in values]


def _plain_negative(text: str) -> bool:
    return text[:1] == "-" and text[1:].isascii() and text[1:].isdigit()


def corpus() -> list[list[str]]:
    """The fixed rows, then seeded compute calls over the nine subcommands: ROWS argv in all."""
    rng = random.Random(SEED)
    rows = [list(argv) for argv in _FIXED]
    while len(rows) < ROWS:
        sub = rng.choice(SUBCOMMANDS)
        texts = _operand_texts(rng, sub)
        flags = ["--json"] * (rng.random() < 0.5)
        if sub in _FLAG and rng.random() < 0.5:
            flags.insert(rng.randint(0, len(flags)), _FLAG[sub])
        dashed = any(t[:1] == "-" and not _plain_negative(t) for t in texts)
        if dashed and rng.random() < 0.97 or rng.random() < 0.2:
            rows.append([sub, *flags, "--", *texts])  # without it a dashed operand is refused
        else:
            rows.append([sub, *texts, *flags] if rng.random() < 0.5 else [sub, *flags, *texts])
    return rows


def digest(argv: list[str]) -> str:
    """The 16-hex digest of one in-process main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    if out.startswith("usage: ") or err.startswith("usage: "):
        out, err = "", err.rstrip("\n").rpartition("\n")[2]
    return hashlib.sha256(json.dumps([code, out, err]).encode()).hexdigest()[:16]


def _shown(argv: list[str]) -> str:
    return " ".join(a if len(a) <= 40 else f"{a[:20]}...({len(a)} characters)" for a in argv)


def test_cli_output_matches_the_committed_replay():
    rows = corpus()
    want = DIGESTS.read_text(encoding="ascii").split()
    assert len(want) == len(rows), "regenerate cli_replay.txt: the corpus changed size"
    changed = [_shown(argv) for argv, d in zip(rows, want) if digest(argv) != d]
    assert not changed, f"{len(changed)} rows changed, the first: {changed[:5]}"


if __name__ == "__main__":
    sys.stdout.writelines(digest(argv) + "\n" for argv in corpus())
