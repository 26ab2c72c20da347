"""Signed modular arithmetic built around a reciprocity identity.

The inverse of a modulo m lives in a window that follows the sign of m,
and unit moduli get a signed closed-form value instead of 0.  With that
convention, a*inv(a mod b) + b*inv(b mod a) = 1 + a*b holds for every
coprime nonzero pair, which powers a gcd-free inversion algorithm, a
family of modulus-shifting identities, and Gaussian integer inversion.
"""

from .bench import BenchReport, run_bench
from .core import (
    DomainError,
    InvariantError,
    InverseFailure,
    InverseOutcome,
    NotCoprimeError,
    ZeroOperandError,
    brute_force_inverse,
    classical_inverse,
    extended_gcd,
    floor_div,
    floor_mod,
    mod_inverse,
    sign,
    unit_inverse,
)
from .gaussian import (
    GaussianDivMod,
    GaussianInteger,
    divides,
    format_gaussian,
    gaussian_bezout_identity,
    gaussian_divmod,
    gaussian_inverse,
    inverse_mod_gaussian_linear,
    parse_gaussian,
)
from .identities import (
    QuadPairReport,
    positive_case_exact,
    quad_pair_inverses,
    reduce_inverse_minus,
    reduce_inverse_plus,
    shift_invariance,
    square_inverse,
    sum_of_squares_inverses,
)
from .recip import (
    ReciprocityReport,
    inverse_via_reciprocity,
    reciprocity_check,
    solve_diophantine,
)
from .verify import SweepConfig, SweepResult, load_sweep_config, run_all

__version__ = "0.1.0"

__all__ = [
    "BenchReport",
    "DomainError",
    "GaussianDivMod",
    "GaussianInteger",
    "InvariantError",
    "InverseFailure",
    "InverseOutcome",
    "NotCoprimeError",
    "QuadPairReport",
    "ReciprocityReport",
    "SweepConfig",
    "SweepResult",
    "ZeroOperandError",
    "brute_force_inverse",
    "classical_inverse",
    "divides",
    "extended_gcd",
    "floor_div",
    "floor_mod",
    "format_gaussian",
    "gaussian_bezout_identity",
    "gaussian_divmod",
    "gaussian_inverse",
    "inverse_mod_gaussian_linear",
    "inverse_via_reciprocity",
    "load_sweep_config",
    "mod_inverse",
    "parse_gaussian",
    "positive_case_exact",
    "quad_pair_inverses",
    "reciprocity_check",
    "reduce_inverse_minus",
    "reduce_inverse_plus",
    "run_all",
    "run_bench",
    "shift_invariance",
    "sign",
    "solve_diophantine",
    "square_inverse",
    "sum_of_squares_inverses",
    "unit_inverse",
]
