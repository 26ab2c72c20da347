"""Exhaustive verification sweeps over every identity in the package.

Each suite is a module-level generator ``cases(config, chunk)`` that walks
its share of the outer operands in ascending order and yields one outcome
per case: ``None`` when the case passes, a counterexample label when it
fails, or ``BREAK`` for a designed break in a classical-units suite.  One
engine, ``Suite.run``, counts the outcomes, keeps the first few labels (so the
first recorded failure is the minimal counterexample for that ordering),
times the suite and shards its outer operands across worker processes.
One table, ``SUITES``, lists every suite in run order; ``CLASSICAL_UNITS``
holds the counterfactual entries that classical-units mode runs instead.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field
from itertools import repeat
from typing import Callable, Iterable, Iterator, NamedTuple

from .cli import _int_arg
from .core import (
    MAX_SHARDS,
    DomainError,
    InvariantError,
    NotCoprimeError,
    ZeroOperandError,
    brute_force_inverse,
    classical_inverse,
    extended_gcd,
    floor_div,
    floor_mod,
    inverse,
    mod_inverse,
    unit_inverse,
)
from .gaussian import (
    GaussianInteger,
    divides,
    gaussian_bezout_identity,
    gaussian_divmod,
    gaussian_inverse,
    inverse_mod_gaussian_linear,
)
from .identities import reduce_inverse_minus, reduce_inverse_plus, shift_invariance, square_inverse
from .quad import positive_case_exact, quad_pair_inverses, sum_inverse_values
from .recip import inverse_via_reciprocity, reciprocity_check, solve_diophantine

_SAMPLE_LIMIT = 5
# |a| bound of the unit-modulus table
_UNIT_MODULUS_LIMIT = 100

# outcome of a classical-units case that breaks exactly as predicted
BREAK = object()


# The range of each SweepConfig field, with the suite that each cap bounds.
# The caps come from the case rates `verify` prints: with every field at its
# cap, one serial run (2 vCPUs, Python 3.11) took at most 326 s per suite,
# within a ten-minute budget.
_LIMITS = {
    "bound": (2, 1600),  # inverse-oracles, a brute-force search per case: O(bound^3)
    "k_bound": (0, 300),  # reduction: O(reduce_bound^2 * k_bound)
    "gaussian_bound": (2, 24),  # gaussian-inverse: O(gaussian_bound^4)
    "shard_count": (1, MAX_SHARDS),
    "shift_bound": (2, 200),  # shift-invariance: O(shift_bound^2 * k_bound)
    "reduce_bound": (2, 200),  # reduction
    "square_bound": (2, 4000),  # square-inverse: O(square_bound^2)
    "quad_bound": (2, 36),  # quad-pair: O(quad_bound^4)
    "linear_bound": (2, 4000),  # gaussian-linear: O(linear_bound^2)
}


@dataclass
class SweepConfig:
    """Operand bounds for the verification sweeps, all overridable."""

    bound: int = 64  # reciprocity / oracle operand magnitude
    k_bound: int = 10
    gaussian_bound: int = 8
    shard_count: int = 1
    shift_bound: int = 40
    reduce_bound: int = 40
    square_bound: int = 30
    quad_bound: int = 12
    linear_bound: int = 30

    def __post_init__(self) -> None:
        for name, (least, most) in _LIMITS.items():
            if not least <= getattr(self, name) <= most:
                raise DomainError(f"{name} must be in [{least}, {most}]")


def load_sweep_config(path: str) -> SweepConfig:
    """Read key=value overrides (one per line, # comments) of the default config,
    each value by the flags' reader: their integer grammar and operand cap."""
    values = asdict(SweepConfig())
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or key not in values:
            raise ValueError(f"{path}:{lineno}: expected <bound-name>=<integer>, got {raw.strip()!r}")
        try:
            values[key] = _int_arg(value)
        except ValueError as exc:  # the flags' refusal: a bad numeral or the operand cap
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    return SweepConfig(**values)


@dataclass
class SweepResult:
    name: str
    cases: int
    failure_count: int = 0
    failures: list[str] = field(default_factory=list)  # first few only
    note: str = ""
    elapsed_s: float = 0.0

    @property
    def passed(self) -> bool:
        return self.failure_count == 0

    @property
    def cases_per_s(self) -> float:
        return self.cases / self.elapsed_s if self.elapsed_s > 0 else 0.0


def signed_range(bound: int, start: int = 1) -> list[int]:
    """All n with start <= |n| <= bound, ascending."""
    return [n for n in range(-bound, bound + 1) if abs(n) >= start]


def _coprime(outer, inner):
    """(x, y) for x in outer, y in inner with gcd(x, y) = 1, in that order."""
    return ((x, y) for x in outer for y in inner if math.gcd(x, y) == 1)


def _tally(cases, config: SweepConfig, chunk: list) -> tuple[int, int, list[str], int]:
    """(cases, failures, first labels, designed breaks) of one chunk."""
    count = fails = breaks = 0
    samples: list[str] = []
    for outcome in cases(config, chunk):
        count += 1
        if outcome is BREAK:
            breaks += 1
        elif outcome is not None:
            fails += 1
            if len(samples) < _SAMPLE_LIMIT:
                samples.append(outcome)
    return count, fails, samples, breaks


class Suite(NamedTuple):
    """One verification suite: its generator runs over ``outer(config)``."""

    name: str
    cases: Callable  # module-level, so that workers unpickle it by reference
    outer: Callable[[SweepConfig], Iterable]
    note: str = ""  # may use {breaks}, the count of designed breaks

    def run(self, config: SweepConfig) -> SweepResult:
        """Run the suite over its outer operands, sharded when the config asks."""
        start = time.perf_counter()
        outer = list(self.outer(config))
        shards = config.shard_count
        note = self.note
        try:
            if shards <= 1 or len(outer) < 2 * shards:
                parts = [_tally(self.cases, config, outer)]
            else:
                from concurrent.futures import ProcessPoolExecutor

                # several contiguous chunks per worker even out uneven case costs; merged in
                # order, they keep the labels in sweep order, and map raises the first chunk's error
                size = -(-len(outer) // (4 * shards))
                chunks = [outer[i : i + size] for i in range(0, len(outer), size)]
                with ProcessPoolExecutor(max_workers=shards) as ex:
                    parts = list(ex.map(_tally, repeat(self.cases), repeat(config), chunks))
        except (DomainError, InvariantError, NotCoprimeError, ZeroOperandError) as exc:
            # a subject that raises is one counterexample for the whole suite
            parts = [(0, 1, [f"{type(exc).__name__}: {exc}"], 0)]
            note = ""  # its count of designed breaks is unknown
        count, fails, breaks = (sum(part[i] for part in parts) for i in (0, 1, 3))
        samples = [label for part in parts for label in part[2]][:_SAMPLE_LIMIT]
        elapsed = time.perf_counter() - start
        return SweepResult(self.name, count, fails, samples, note.format(breaks=breaks), elapsed)


def _division_law_cases(config, chunk):
    """a = m*floor_div + floor_mod with the sign-of-m remainder window."""
    moduli = signed_range(config.bound)
    for a in chunk:
        for m in moduli:
            q, r = floor_div(a, m), floor_mod(a, m)
            ok = a == m * q + r and (0 <= r < m if m > 0 else m < r <= 0)
            yield None if ok else f"a={a} m={m} q={q} r={r}"


def _unit_modulus_cases(config, chunk):
    """The four closed-form branch values for moduli +1 and -1."""
    for a in chunk:
        for m in (1, -1):
            expected = (1 if a > 0 else 0) if m == 1 else (0 if a > 0 else -1)
            got = inverse(a, m)
            yield None if got == expected else f"a={a} m={m} got={got} expected={expected}"


def _divergence_cases(config, chunk):
    """Where the signed and classical inverses disagree, and how.

    For |m| > 1 they name the same residue class (identical for m > 1,
    offset by m for m < -1); for |m| = 1 the raw values differ exactly
    when (m=1, a>0) or (m=-1, a<0), with the signed value 1 or -1.
    """
    for m, a in _coprime(chunk, signed_range(config.bound)):
        new = inverse(a, m)
        cls = classical_inverse(a, m).expect()
        if m > 1:
            ok = new == cls
        elif m < -1:
            ok = new == cls + m
        else:
            diff = (m == 1 and a > 0) or (m == -1 and a < 0)
            ok = (new != cls) == diff and (not diff or (cls == 0 and new == (1 if m == 1 else -1)))
        yield None if ok else f"a={a} m={m} new={new} classical={cls}"


def _oracle_cases(config, chunk):
    """Windowed inverse (mod_inverse) == brute force == reciprocity route, plus Bezout."""
    for m, a in _coprime(chunk, signed_range(config.bound)):
        lo, hi = (1, m - 1) if m > 0 else (m + 1, -1)
        v = mod_inverse(a, m).expect()
        ok = lo <= v <= hi and a * v % m == 1 % m
        ok = ok and v == brute_force_inverse(a, m).expect()
        ok = ok and v == inverse_via_reciprocity(a, m).expect()
        g, x, y = extended_gcd(a, m)
        ok = ok and g == 1 and a * x + m * y == 1 and x % m == v
        yield None if ok else f"a={a} m={m} inverse={v}"


def _reciprocity_cases(config, chunk):
    """a*inv_a + b*inv_b = 1 + a*b over every coprime signed pair, inv_b against a direct
    inverse; and solve_diophantine's a*x - k*b = 1, with x the windowed inv_a."""
    for a, b in _coprime(chunk, signed_range(config.bound)):
        rep = reciprocity_check(a, b)
        x, k = solve_diophantine(a, b)
        ok = rep.holds and rep.k == 1 and rep.inv_b_mod_a == inverse(b, a)
        ok = ok and x == rep.inv_a_mod_b and a * x - k * b == 1
        yield None if ok else (f"a={a} b={b} lhs={rep.lhs} rhs={rep.rhs} k={rep.k}"
                               f" inv_b={rep.inv_b_mod_a} solve=({x}, {k})")


def _reciprocity_classical_cases(config, chunk):
    """The reciprocity identity with the classical 0 for unit moduli.

    The unit-modulus inverses are replaced by the conventional 0, and each
    case checks that the identity breaks exactly on the predicted set of
    unit-operand pairs and nowhere else.
    """
    for a, b in _coprime(chunk, signed_range(config.bound)):
        inv_a = 0 if abs(b) == 1 else inverse(a, b)
        inv_b = 0 if abs(a) == 1 else inverse(b, a)
        breaks = a * inv_a + b * inv_b != 1 + a * b
        delta = (a * unit_inverse(a, b) if abs(b) == 1 else 0) + (
            b * unit_inverse(b, a) if abs(a) == 1 else 0
        )
        predicted = delta != 0
        if breaks == predicted:
            yield BREAK if breaks else None
        else:
            yield f"a={a} b={b} breaks={breaks} predicted={predicted}"


def _shift_cases(config, chunk):
    """inv(k*a + b mod a) from inv(b mod a), against the direct inverse."""
    ks = range(-config.k_bound, config.k_bound + 1)
    for a, b in _coprime(chunk, signed_range(config.shift_bound)):
        for k in ks:
            if k * a + b == 0:
                continue
            got = shift_invariance(a, b, k)
            want = inverse(k * a + b, a)
            yield None if got == want else f"a={a} b={b} k={k} got={got} want={want}"


def _reduction_cases(config, chunk):
    """Both reduction formulas against the direct inverse of the target."""
    ks = range(-config.k_bound, config.k_bound + 1)
    for a, b in _coprime(chunk, signed_range(config.reduce_bound)):
        for k in ks:
            for plus in (True, False):
                target = k * a + b if plus else k * a - b
                got = (reduce_inverse_plus if plus else reduce_inverse_minus)(a, b, k)
                want = inverse(a, target)
                form, ok = "+" if plus else "-", got == want
                yield None if ok else f"a={a} b={b} k={k} form={form} got={got} want={want}"


def _reduction_classical_cases(config, chunk):
    """The reduction formulas with the classical 0 for unit moduli.

    The right-hand side takes 0 for the unit-modulus inverse, and each case
    checks the formula breaks exactly when that value actually differs from
    the signed closed form (targets with |m| = 1 are skipped, since the
    comparison baseline itself is the disputed branch).
    """
    ks = range(-config.k_bound, config.k_bound + 1)
    for a, b in _coprime(chunk, signed_range(config.reduce_bound)):
        inv_ba = inverse(b, a)
        inv_ab = 0 if abs(b) == 1 else inverse(a, b)
        predicted = abs(b) == 1 and unit_inverse(a, b) != 0
        for k in ks:
            for plus in (True, False):
                target = k * a + b if plus else k * a - b
                if abs(target) == 1:
                    continue
                formula = k * (a - inv_ba) + inv_ab if plus else k * inv_ba - (b - inv_ab)
                breaks = formula != inverse(a, target)
                if breaks == predicted:
                    yield BREAK if breaks else None
                else:
                    form = "+" if plus else "-"
                    yield f"a={a} b={b} k={k} form={form} breaks={breaks} predicted={predicted}"


def _square_cases(config, chunk):
    """Both squared-modulus forms against the direct inverse of b*b mod a*a."""
    for a, b in _coprime(chunk, signed_range(config.square_bound)):
        got = square_inverse(a, b)
        want = inverse(b * b, a * a)
        yield None if got == want else f"a={a} b={b} got={got} want={want}"


def _quad_pairs(config) -> list[tuple[int, int]]:
    values = signed_range(config.quad_bound)
    return list(_coprime(values, values))


def _quad_cases(config, chunk):
    """Every cross-pair report flag and x_i*y_i = 1 modulo u or v, checked here; plus, for
    positive quadruples, the exact positive-case value and, when gcd(u, v) = 1, the four
    sum-of-squares inverses, whose report is the one checked."""
    pairs = _quad_pairs(config)
    for a, b in chunk:
        for c, d in pairs:
            u = a * c + b * d
            v = a * d - b * c
            if abs(u) <= 1 or abs(v) <= 1:
                continue
            positive = a > 0 and b > 0 and c > 0 and d > 0
            sums = positive and math.gcd(u, v) == 1
            rep, inv = (sum_inverse_values(a, b, c, d) if sums
                        else (quad_pair_inverses(a, b, c, d), None))
            (x1, x2, x3, x4), (y1, y2, y3, y4) = rep.x, rep.y
            ok = rep.all_ok and (x1 * y1 - 1) % u == 0 and (x2 * y2 - 1) % u == 0
            ok = ok and (x3 * y3 - 1) % v == 0 and (x4 * y4 - 1) % v == 0
            if ok and positive:
                ok = positive_case_exact(a, b, c, d) == y1
            if ok and sums:
                ok = all((value * n - 1) % modulus == 0 for value, n, modulus in (
                    (inv["s_inv_mod_u"], rep.s, u), (inv["t_inv_mod_u"], rep.t, u),
                    (inv["s_inv_mod_v"], rep.s, v), (inv["t_inv_mod_v"], rep.t, v)))
            yield None if ok else f"a={a} b={b} c={c} d={d}"


def _gaussian_cases(config, chunk):
    """Gaussian inversion and the exact four-factor identity.  gaussian_divmod's raise
    guards the norm bound; tests/test_gaussian.py::test_divmod_law checks the division law."""
    values = signed_range(config.gaussian_bound)
    for a in chunk:
        for b in values:
            z = GaussianInteger(a, b)
            s = z.norm()
            for c in values:
                for d in values:
                    w = GaussianInteger(c, d)
                    t = w.norm()
                    if math.gcd(s, t) != 1:
                        continue
                    rep, canon = gaussian_inverse(z, w)
                    # the documented representative: conj(z)*x with 1 <= x <= t - 1
                    x, r = divmod(rep.re, a)
                    ok = not r and rep.im == -b * x and 0 < x < t
                    ok = ok and divides(w, z * canon - 1)
                    ok = ok and gaussian_bezout_identity(a, b, c, d)
                    # the canonical residue ignores which representative is reduced
                    ok = ok and gaussian_divmod(rep + w * 3, w).remainder == canon
                    ok = ok and gaussian_divmod(rep - w, w).remainder == canon
                    yield None if ok else f"z={z} w={w}"


def _gaussian_linear_cases(config, chunk):
    """The Gaussian inverse modulo a*i + b, which checks a * inv = 1 itself, held to
    inv(a mod b) + i*(a - inv(b mod a)) by two direct inversions; and divides held to
    refusing the residue -1, since the modulus has norm a^2 + b^2 >= 4."""
    for a, b in _coprime(chunk, signed_range(config.linear_bound)):
        g = inverse_mod_gaussian_linear(a, b)
        ok = g == GaussianInteger(inverse(a, b), a - inverse(b, a)) and not divides(
            GaussianInteger(b, a), g * a - 2)
        yield None if ok else f"a={a} b={b} inverse={g}"


def _fixture_cases(config, chunk):
    """The reduction replay that separates the two unit-inverse choices.

    inv(7 mod 22) = 19 and the reduction formula reproduces it with the
    signed unit value; substituting the classical 0 yields 18 instead.
    """
    direct = inverse(7, 22)
    yield None if direct == 19 else "direct inv(7 mod 22) = 19"
    replay = reduce_inverse_plus(7, 1, 3)
    yield None if replay == direct == 19 else "reduction replay = 19"
    classical_replay = 3 * (7 - inverse(1, 3)) + classical_inverse(7, 1).expect()
    ok = classical_replay == 18 and classical_replay != direct
    yield None if ok else "classical replay = 18 != 19"


# Every suite, keyed by name, in the order run_all reports them.
SUITES = {suite.name: suite for suite in (
    Suite("division-law", _division_law_cases, lambda c: range(-c.bound, c.bound + 1)),
    Suite("unit-modulus-table", _unit_modulus_cases, lambda c: signed_range(_UNIT_MODULUS_LIMIT)),
    Suite("classical-divergence", _divergence_cases, lambda c: signed_range(c.bound)),
    Suite("inverse-oracles", _oracle_cases, lambda c: signed_range(c.bound, start=2)),
    Suite("reciprocity", _reciprocity_cases, lambda c: signed_range(c.bound)),
    Suite("shift-invariance", _shift_cases, lambda c: signed_range(c.shift_bound)),
    Suite("reduction", _reduction_cases, lambda c: signed_range(c.reduce_bound, start=2)),
    Suite("square-inverse", _square_cases, lambda c: signed_range(c.square_bound, start=2)),
    Suite("quad-pair", _quad_cases, _quad_pairs),
    Suite("gaussian-inverse", _gaussian_cases, lambda c: signed_range(c.gaussian_bound)),
    Suite("gaussian-linear", _gaussian_linear_cases, lambda c: signed_range(c.linear_bound, start=2)),
    Suite("unit-contradiction-fixture", _fixture_cases, lambda c: [None]),
)}

# Classical-units mode runs these in place of the suites they are keyed by,
# over the same outer operands.
CLASSICAL_UNITS = {
    "reciprocity": SUITES["reciprocity"]._replace(
        name="reciprocity-classical-units", cases=_reciprocity_classical_cases,
        note="{breaks} designed breaks, all on unit operands"),
    "reduction": SUITES["reduction"]._replace(
        name="reduction-classical-units", cases=_reduction_classical_cases,
        note="{breaks} designed breaks, all with |b| = 1"),
}


def run_each(config: SweepConfig, classical_units: bool = False) -> Iterator[SweepResult]:
    """Run every sweep, yielding each result as its suite finishes; classical-units mode
    swaps in the counterfactual suites."""
    table = SUITES | CLASSICAL_UNITS if classical_units else SUITES
    return (suite.run(config) for suite in table.values())


def run_all(config: SweepConfig, classical_units: bool = False) -> list[SweepResult]:
    """Run every sweep, as :func:`run_each` does, and return their results."""
    return list(run_each(config, classical_units))


# The run_* names are kept only for perfbench/layers.py, which runs each suite by
# one of them; ROADMAP item 1 moves it onto the SUITES keys and deletes this block.
run_division_law_sweep = SUITES["division-law"].run
run_unit_modulus_sweep = SUITES["unit-modulus-table"].run
run_divergence_sweep = SUITES["classical-divergence"].run
run_oracle_sweep = SUITES["inverse-oracles"].run
run_shift_invariance_sweep = SUITES["shift-invariance"].run
run_square_sweep = SUITES["square-inverse"].run
run_quad_sweep = SUITES["quad-pair"].run
run_gaussian_sweep = SUITES["gaussian-inverse"].run
run_gaussian_linear_sweep = SUITES["gaussian-linear"].run
run_unit_contradiction_fixture = SUITES["unit-contradiction-fixture"].run


def run_reciprocity_sweep(config: SweepConfig, classical_units: bool) -> SweepResult:
    return (CLASSICAL_UNITS if classical_units else SUITES)["reciprocity"].run(config)


def run_reduction_sweep(config: SweepConfig, classical_units: bool) -> SweepResult:
    return (CLASSICAL_UNITS if classical_units else SUITES)["reduction"].run(config)
