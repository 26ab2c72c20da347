"""Signed modular arithmetic built around a reciprocity identity.

The inverse of a modulo m lives in a window that follows the sign of m,
and unit moduli get a signed closed-form value instead of 0.  With that
convention, a*inv(a mod b) + b*inv(b mod a) = 1 + a*b holds for every
coprime nonzero pair, which powers a gcd-free inversion algorithm, a
family of modulus-shifting identities, and Gaussian integer inversion.

Names resolve on first use (PEP 562), so ``import modrecip`` loads no
submodule; a one-shot CLI process loads only what its subcommand runs.
"""

import sys as _sys
from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

__version__ = "0.1.0"

# each exported name, by the submodule that defines it
_EXPORTS = {
    "bench": ("BenchReport", "run_bench"),
    "core": ("DomainError", "InvariantError", "InverseFailure", "InverseOutcome",
             "NotCoprimeError", "ZeroOperandError", "brute_force_inverse", "classical_inverse",
             "extended_gcd", "floor_div", "floor_mod", "mod_inverse", "sign", "unit_inverse"),
    "gaussian": ("GaussianDivMod", "GaussianInteger", "divides", "format_gaussian",
                 "gaussian_bezout_identity", "gaussian_divmod", "gaussian_inverse",
                 "inverse_mod_gaussian_linear", "parse_gaussian"),
    "identities": ("reduce_inverse_minus", "reduce_inverse_plus", "shift_invariance",
                   "square_inverse"),
    "quad": ("QuadPairReport", "positive_case_exact", "quad_pair_inverses",
             "sum_of_squares_inverses"),
    "recip": ("ReciprocityReport", "inverse_via_reciprocity", "reciprocity_check",
              "solve_diophantine"),
    "verify": ("SweepConfig", "SweepResult", "load_sweep_config", "run_all"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS:
        return _import_module(f".{name}", __name__)  # the import binds it here too
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups no longer reach this hook
    return value


class _Package(_ModuleType):
    @property
    def __dict__(self):  # vars() and dir() read every export, resolving each first
        for name in __all__:
            getattr(self, name)
        return globals()


_sys.modules[__name__].__class__ = _Package
