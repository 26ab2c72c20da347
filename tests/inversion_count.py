"""Count the inversions modrecip makes; every one is a core.inverse_pair call."""

import sys

from modrecip import core


def count_inversions(monkeypatch) -> list:
    """Route core.inverse_pair and every module-level alias of it through a
    counter; the list returned gains one (a, b) per call."""
    calls = []
    real = core.inverse_pair

    def counted(a, b):
        calls.append((a, b))
        return real(a, b)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("modrecip"):
            for name, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, name, counted)
    return calls
