"""Run a child Python process that imports modrecip from this checkout's src/."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def child_env() -> dict[str, str]:
    """The environment with src/ first on PYTHONPATH."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def run_python(*args: str, timeout: float = 60, stdout=subprocess.PIPE,
               env: dict[str, str] | None = None) -> subprocess.CompletedProcess:
    """`python *args` under child_env() or env; text stderr, and stdout unless redirected, captured."""
    return subprocess.run([sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE,
                          text=True, env=env or child_env(), timeout=timeout)
