"""The package surface resolves names lazily, and one-shot CLI calls import
only the modules their subcommand runs."""

import json
import sys

import pytest

import modrecip
from child_process import run_python

# Records the modules that importing the CLI and running one in-process
# main(argv) add to a fresh interpreter, and the exit code main returns.
_IMPORT_GRAPH = """
import contextlib, io, json, sys
before = set(sys.modules)
from modrecip.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps({"code": code, "added": sorted(set(sys.modules) - before)}))
"""


def _child(script: str, *argv: str) -> str:
    proc = run_python("-c", script, *argv)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _added_modules(*argv: str, code: int = 0) -> set[str]:
    result = json.loads(_child(_IMPORT_GRAPH, *argv))
    assert result["code"] == code
    return set(result["added"])


_HEAVY = {"modrecip.verify", "modrecip.bench", "statistics"}


_WIDE = (1 << 2047) + 1  # odd, so coprime to _WIDE + 2: a pair past the pow route


@pytest.mark.parametrize("argv", [
    ("inv", "3", "7"),
    ("inv", "3", "7", "--classical", "--json"),
    ("classical-inv", "-3", "7"),
    ("inv", str(_WIDE), str(_WIDE + 2)),  # core holds the batched route too
])
def test_inverse_commands_import_only_core(argv):
    added = _added_modules(*argv)
    assert {"modrecip.cli", "modrecip.core"} <= added
    unwanted = _HEAVY | {"modrecip.gaussian", "modrecip.identities", "modrecip.recip",
                         "dataclasses", "argparse"}
    assert not added & unwanted, sorted(added & unwanted)


def test_quad_imports_identities_only():
    added = _added_modules("quad", "3", "2", "1", "2")
    assert "modrecip.identities" in added
    unwanted = _HEAVY | {"modrecip.gaussian"}
    assert not added & unwanted, sorted(added & unwanted)


def test_module_run_of_inv_loads_core_alone():
    # the `python -m modrecip` path, through runpy and __main__, as one-shot calls run it
    proc = run_python("-X", "importtime", "-m", "modrecip", "inv", "3", "7")
    assert (proc.returncode, proc.stdout) == (0, "5\n"), proc.stderr
    loaded = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
    assert "modrecip.core" in loaded
    unwanted = _HEAVY | {"modrecip.gaussian", "modrecip.identities", "modrecip.recip",
                         "dataclasses", "argparse"}
    assert not loaded & unwanted, sorted(loaded & unwanted)


def test_gauss_inv_imports_gaussian_only():
    added = _added_modules("gauss-inv", "1+1i", "2+1i")
    assert "modrecip.gaussian" in added
    unwanted = _HEAVY | {"modrecip.identities"}
    assert not added & unwanted, sorted(added & unwanted)


@pytest.mark.parametrize("argv, code, runs", [
    (("reduce", "7", "1", "3"), 0, "modrecip.identities"),
    (("reduce", "7", "1", "3", "--minus"), 0, "modrecip.identities"),
    (("square-inv", "3", "2"), 0, "modrecip.identities"),
    (("gauss-inv", "1+1i", "2+1i"), 0, "modrecip.gaussian"),
    (("gauss-inv", "1+1i", "2+xi"), 1, "modrecip.gaussian"),
    (("gauss-linear-inv", "3", "2"), 0, "modrecip.gaussian"),
    (("inv", str(_WIDE), str(_WIDE + 2)), 0, "modrecip.core"),
], ids=["reduce", "reduce-minus", "square-inv", "gauss-inv", "gauss-inv-malformed",
        "gauss-linear-inv", "inv-2048-bit"])
def test_commands_without_a_report_load_no_dataclasses(argv, code, runs):
    added = _added_modules(*argv, code=code)
    assert runs in added
    assert not added & {"dataclasses", "modrecip.reports"}, sorted(added)
    assert ("argparse" in added) == (code != 0)  # only the refused operand needs the parser


@pytest.mark.parametrize("argv, code", [
    (("-h",), 0),
    (("inv", "3", "7", "--bogus"), 1),
    (("inv", "12z", "7"), 1),
    (("verify", "-h"), 0),
    (("bench", "--bits", "x"), 1),
], ids=["help", "unknown-flag", "malformed-operand", "verify-help", "bench-malformed-bits"])
def test_argparse_calls_load_neither_sweeps_nor_bench(argv, code):
    # the parser builds the verify and bench subparsers, whose help prints
    # core's bounds, and must not import those modules to do it; a malformed
    # --bits stops in the parser, while an out-of-range one reaches run_bench
    added = _added_modules(*argv, code=code)
    assert "argparse" in added
    assert not added & (_HEAVY | {"dataclasses"}), sorted(added)


@pytest.mark.parametrize("argv", [
    ("recip", "3", "5"),
    ("quad", "3", "2", "1", "2"),
    ("sums", "3", "2", "1", "2"),
], ids=["recip", "quad", "sums"])
def test_report_commands_load_the_reports(argv):
    added = _added_modules(*argv)
    assert "modrecip.reports" in added
    assert not added & (_HEAVY | {"modrecip.gaussian"}), sorted(added)


def test_exports_are_the_defining_modules_objects():
    for name in modrecip.__all__:
        obj = getattr(modrecip, name)
        assert obj.__module__.startswith("modrecip."), name
        assert getattr(sys.modules[obj.__module__], name) is obj, name


def test_vars_and_dir_of_a_fresh_import_list_every_export():
    script = """
import sys
import modrecip
namespace = vars(modrecip)
for name in modrecip.__all__:
    obj = namespace[name]
    assert getattr(sys.modules[obj.__module__], name) is obj, name
assert set(modrecip.__all__) <= set(dir(modrecip))
print(namespace is modrecip.__dict__ and namespace["verify"] is sys.modules["modrecip.verify"])
"""
    assert _child(script) == "True\n"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        modrecip.no_such_name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from modrecip import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(modrecip.__all__)


def test_fresh_import_loads_no_submodule_and_resolves_them():
    script = """
import sys
import modrecip
print(sorted(m for m in sys.modules if m.startswith("modrecip.")))
verify, core, bench = modrecip.verify, modrecip.core, modrecip.bench
assert verify is sys.modules["modrecip.verify"] and core is sys.modules["modrecip.core"]
assert (verify.MAX_SHARDS, bench.MIN_BITS, bench.MAX_BITS) == (32, 64, 16384)
print(modrecip.run_all is verify.run_all)
"""
    loaded, same = _child(script).splitlines()
    assert loaded == "[]"
    assert same == "True"
