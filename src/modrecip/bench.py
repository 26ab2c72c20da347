"""Timing harness comparing three inversion routes on wide operands.

The routes are the reciprocity climb (``inverse_via_reciprocity``, Lehmer
batched above 120 bits), the pure-Python extended gcd (its Bezout
coefficient reduced into the signed window) and the built-in
``pow(a, -1, m)``, called directly.  ``mod_inverse`` is not timed: above
its crossover it is the reciprocity route itself, so it would not be a
third independent route.  Widths run up to MAX_BITS, past that crossover,
so a run at a few widths shows where the batched route overtakes ``pow``.
Correctness gates the numbers: a trial counts as agreeing only when all
three routes give the same inverse, and a report should only be shown
when every trial agreed.  Timings are comparative instrumentation, not an
acceptance threshold.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from dataclasses import dataclass

from .core import MAX_BITS, MIN_BITS, DomainError, extended_gcd
from .recip import inverse_via_reciprocity


@dataclass(frozen=True)
class BenchReport:
    bit_width: int
    iterations: int
    seed: int  # reprinting with this seed reproduces the operand stream
    median_ns_reciprocity: int
    median_ns_ext_gcd: int
    median_ns_pow: int
    agreement_count: int  # trials on which all three routes agreed

    @property
    def all_agreed(self) -> bool:
        return self.agreement_count == self.iterations


def _random_coprime_pair(rng: random.Random, bits: int) -> tuple[int, int]:
    while True:
        a = rng.getrandbits(bits) | (1 << (bits - 1))
        m = rng.getrandbits(bits) | (1 << (bits - 1))
        if math.gcd(a, m) == 1:
            return a, m


def run_bench(bit_width: int, iterations: int, seed: int | None = None) -> BenchReport:
    """Time the three inversion routes on random coprime pairs of one width."""
    if not MIN_BITS <= bit_width <= MAX_BITS:
        raise DomainError(f"bit_width must be in [{MIN_BITS}, {MAX_BITS}]")
    if iterations < 1:
        raise DomainError("iterations must be at least 1")
    if seed is None:
        seed = random.SystemRandom().getrandbits(64)
    elif not 0 <= seed < 1 << 64:
        # Random(-s) draws what Random(s) draws, so a signed seed would give one stream two names
        raise DomainError("seed must be in [0, 2**64 - 1]")
    rng = random.Random(seed)

    recip_ns: list[int] = []
    gcd_ns: list[int] = []
    pow_ns: list[int] = []
    agreement = 0
    for _ in range(iterations):
        a, m = _random_coprime_pair(rng, bit_width)
        t0 = time.perf_counter_ns()
        via_recip = inverse_via_reciprocity(a, m)
        t1 = time.perf_counter_ns()
        g, x, _ = extended_gcd(a, m)
        via_gcd = x % m
        t2 = time.perf_counter_ns()
        via_pow = pow(a, -1, m)
        t3 = time.perf_counter_ns()
        recip_ns.append(t1 - t0)
        gcd_ns.append(t2 - t1)
        pow_ns.append(t3 - t2)
        agreement += g == 1 and via_recip.result == via_gcd == via_pow

    return BenchReport(
        bit_width=bit_width,
        iterations=iterations,
        seed=seed,
        median_ns_reciprocity=int(statistics.median(recip_ns)),
        median_ns_ext_gcd=int(statistics.median(gcd_ns)),
        median_ns_pow=int(statistics.median(pow_ns)),
        agreement_count=agreement,
    )
