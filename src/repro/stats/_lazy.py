"""SciPy, imported on first use.

The simulation layers import :mod:`repro.stats` (the netlog folds its
summaries with the streaming estimators) but never fit anything.
Importing ``scipy.stats`` is most of the time ``import repro`` takes
and about half a pattern drive's peak memory, so the package defers
it until a pdf/cdf, a maximum-likelihood fit or a Ljung-Box test
first runs.
"""

from __future__ import annotations

import importlib
from functools import lru_cache
from types import ModuleType


@lru_cache(maxsize=None)
def scipy_module(name: str) -> ModuleType:
    """Return ``scipy.<name>`` (e.g. ``"stats"``), importing it on the first call."""
    return importlib.import_module(f"scipy.{name}")
