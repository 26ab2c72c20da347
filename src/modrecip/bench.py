"""Timing harness comparing three inversion routes on wide operands.

The routes are the reciprocity climb (the first value of
``core.reciprocal_pair``, Lehmer batched above 120 bits), the pure-Python
extended gcd (its Bezout coefficient reduced into the signed window) and
the built-in ``pow(a, -1, m)``, each called directly.  ``mod_inverse`` is
not timed: above its crossover it is the reciprocity route itself, so it
would not be a third independent route.  Widths run up to MAX_BITS, past that crossover,
so a run at a few widths shows where the batched route overtakes ``pow``.
Correctness gates the numbers: a trial counts as agreeing only when all
three routes give the same inverse, and a report should only be shown
when every trial agreed.  Timings are comparative instrumentation, not an
acceptance threshold.
"""


import math
import random
import statistics
import time
from dataclasses import dataclass

from .core import MAX_BITS, MIN_BITS, DomainError, extended_gcd, reciprocal_pair

# A trial takes about 83 ms at MAX_BITS (2 vCPUs, Python 3.11), so a run with
# both at their caps ends in about 7 minutes, within ten.
MAX_ITERATIONS = 5_000


@dataclass(frozen=True)
class BenchReport:
    bit_width: int
    iterations: int
    seed: int  # reprinting with this seed reproduces the operand stream
    median_ns_reciprocity: int
    median_ns_ext_gcd: int
    median_ns_pow: int
    agreement_count: int  # trials on which all three routes agreed


def _random_coprime_pair(rng: random.Random, bits: int) -> tuple[int, int]:
    while True:
        a = rng.getrandbits(bits) | (1 << (bits - 1))
        m = rng.getrandbits(bits) | (1 << (bits - 1))
        if math.gcd(a, m) == 1:
            return a, m


def run_bench(bit_width: int, iterations: int, seed: int | None = None) -> BenchReport:
    """Time the three inversion routes on random coprime pairs of one width."""
    for name, value in ("bit_width", bit_width), ("iterations", iterations), ("seed", seed):
        if value is not None and (isinstance(value, bool) or not isinstance(value, int)):
            raise DomainError(f"{name} must be an integer")
    if not MIN_BITS <= bit_width <= MAX_BITS:
        raise DomainError(f"bit_width must be in [{MIN_BITS}, {MAX_BITS}]")
    if not 1 <= iterations <= MAX_ITERATIONS:
        raise DomainError(f"iterations must be in [1, {MAX_ITERATIONS}]")
    if seed is None:
        seed = random.SystemRandom().getrandbits(64)
    elif not 0 <= seed < 1 << 64:
        # Random(-s) draws what Random(s) draws, so a signed seed would give one stream two names
        raise DomainError("seed must be in [0, 2**64 - 1]")
    rng = random.Random(seed)

    rows: list[tuple[int, int, int]] = []
    agreement = 0
    for _ in range(iterations):
        a, m = _random_coprime_pair(rng, bit_width)
        t0 = time.perf_counter_ns()
        via_recip = reciprocal_pair(a, m)[0]
        t1 = time.perf_counter_ns()
        g, x, _ = extended_gcd(a, m)
        via_gcd = x % m
        t2 = time.perf_counter_ns()
        via_pow = pow(a, -1, m)
        t3 = time.perf_counter_ns()
        rows.append((t1 - t0, t2 - t1, t3 - t2))
        agreement += g == 1 and via_recip == via_gcd == via_pow

    recip_ns, gcd_ns, pow_ns = (int(statistics.median(column)) for column in zip(*rows))
    return BenchReport(
        bit_width=bit_width,
        iterations=iterations,
        seed=seed,
        median_ns_reciprocity=recip_ns,
        median_ns_ext_gcd=gcd_ns,
        median_ns_pow=pow_ns,
        agreement_count=agreement,
    )
