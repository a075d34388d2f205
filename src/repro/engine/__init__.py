"""Batch prediction engine: shared analysis cache + parallel evaluation.

The engine has three layers (see the module docstrings for details):

* :mod:`repro.engine.cache` — :class:`BlockAnalysis` objects memoized per
  (block-signature, µarch), shared by every model/predictor that shares a
  uops database;
* :mod:`repro.engine.engine` — :class:`Engine`, the batch front end with
  a serial fast path and an opt-in ``multiprocessing`` pool shipping
  compact picklable payloads to workers;
* :mod:`repro.engine.columnar` — :class:`ColumnarCore`, the
  template-compiled prediction core (the engine's default), bit-for-bit
  equal to the :class:`~repro.core.model.Facile` object model;
* :mod:`repro.engine.batching` — :class:`MicroBatcher`, the queue that
  merges concurrent single-block requests (the prediction service's
  traffic) into one ``predict_many`` call per window, a window being
  the backlog queued while the previous one ran;
* :mod:`repro.engine.bench` — the performance-regression harness behind
  ``benchmarks/perf/`` and ``scripts/bench.py``.

``Engine``, ``MicroBatcher``, and the bench helpers are exposed lazily
because they build on :mod:`repro.core.model`, which itself imports the
cache layer from this package.
"""

from repro.engine.cache import AnalysisCache, BlockAnalysis

__all__ = [
    "ALL_MODES",
    "AnalysisCache",
    "BlockAnalysis",
    "ColumnarCore",
    "Engine",
    "MicroBatcher",
    "ModelSpec",
    "default_workers",
    "resolve_core",
    "set_default_workers",
]

_LAZY = {
    "Engine": "repro.engine.engine",
    "ModelSpec": "repro.engine.engine",
    "ALL_MODES": "repro.engine.engine",
    "default_workers": "repro.engine.engine",
    "set_default_workers": "repro.engine.engine",
    "MicroBatcher": "repro.engine.batching",
    "ColumnarCore": "repro.engine.columnar",
    "resolve_core": "repro.engine.columnar",
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is not None:
        import importlib
        return getattr(importlib.import_module(module), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
