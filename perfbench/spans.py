"""In-memory span recorder for the traced benchmark run.

Each span keeps its name, start and end (``perf_counter_ns``) and the index
of its parent span; every span of one run shares the tracer's run id.  The
spans stay in memory until :meth:`Tracer.write` is called at the end of the
run, so writing them never lands inside a timed region.
"""

from __future__ import annotations

import json
import time
import uuid
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.run_id = uuid.uuid4().hex
        self._spans: list[list] = []  # [name, start_ns, end_ns, parent_index]
        self._open: list[int] = []

    def begin(self, name: str) -> None:
        parent = self._open[-1] if self._open else None
        self._open.append(len(self._spans))
        self._spans.append([name, time.perf_counter_ns(), None, parent])

    def end(self) -> None:
        self._spans[self._open.pop()][2] = time.perf_counter_ns()

    def __len__(self) -> int:
        return len(self._spans)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = [
            {"id": i, "name": n, "start_ns": s, "end_ns": e, "parent": p}
            for i, (n, s, e, p) in enumerate(self._spans)
        ]
        path.write_text(json.dumps({"run_id": self.run_id, "spans": spans}) + "\n")
