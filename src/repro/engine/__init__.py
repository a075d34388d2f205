"""Prediction engine: the prediction core, caches, and batching.

The package has four modules (see their docstrings for details):

* :mod:`repro.engine.cache` — :class:`BlockAnalysis` objects memoized per
  (block-signature, µarch), shared by every model/predictor that shares a
  uops database;
* :mod:`repro.engine.columnar` — :class:`ColumnarCore`, the
  template-compiled prediction core every prediction path holds,
  bit-for-bit equal to the :class:`~repro.core.model.Facile` object
  model;
* :mod:`repro.engine.batching` — :class:`MicroBatcher`, the queue that
  merges concurrent single-block requests (the prediction service's
  traffic) into one ``predict_many`` call per window, a window being
  the backlog queued while the previous one ran;
* :mod:`repro.engine.bench` — the performance-regression harness behind
  ``benchmarks/perf/`` and ``scripts/bench.py``.

The oracle's measurement pool, ``measure_many``, lives next to the
oracle in :mod:`repro.sim.measure`.

``ColumnarCore`` and ``MicroBatcher`` are exposed lazily because they
build on :mod:`repro.core.model`, which itself imports the cache layer
from this package.
"""

from repro.engine.cache import AnalysisCache, BlockAnalysis

__all__ = [
    "AnalysisCache",
    "BlockAnalysis",
    "ColumnarCore",
    "MicroBatcher",
]

_LAZY = {
    "MicroBatcher": "repro.engine.batching",
    "ColumnarCore": "repro.engine.columnar",
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is not None:
        import importlib
        return getattr(importlib.import_module(module), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
