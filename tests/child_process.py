"""Run a child Python process that imports modrecip from this checkout's src/."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(*args: str, timeout: float = 60) -> subprocess.CompletedProcess:
    """`python *args` with src/ first on PYTHONPATH; text output captured."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=timeout)
