"""In-memory spans around calls into the program's public functions.

The benchmark does not change the program to trace it: :class:`Tracer`
replaces a function (or method, classmethod, property) with a wrapper
that records a span while the tracer is enabled, in every ``repro``
module that holds a reference to it.  Spans nest per thread, so a
layer's *self* time excludes the spans it caused.  Totals are kept per
span name; the first ``keep`` spans are also kept in full and written
out with :meth:`Tracer.dump` when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from typing import Callable, Dict, List, Tuple

#: Span name -> the program functions it wraps, as (module, attribute)
#: where the attribute may be ``Class.member``.
ENGINE_SPANS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "isa.decode": (("repro.isa.block", "BasicBlock.from_bytes"),),
    "uops.analyze": (("repro.uops.blockinfo", "analyze_block"),
                     ("repro.uops.blockinfo", "macro_ops")),
    "core.jcc": (("repro.core.jcc", "affected_by_jcc_erratum"),),
    "graph.depgraph": (("repro.graph.depgraph",
                        "DependenceGraphBuilder.build"),),
    "graph.mcr": (("repro.graph.howard", "howard_max_cycle_ratio"),),
    "engine.cache.analysis": (("repro.engine.cache", "AnalysisCache.analysis"),
                              ("repro.engine.cache", "BlockAnalysis.analyzed"),
                              ("repro.engine.cache", "BlockAnalysis.ops")),
}

SERVICE_SPANS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "isa.decode": (("repro.isa.block", "BasicBlock.from_bytes"),),
    "service.parse": (("repro.service.serialize", "parse_blocks"),),
    "service.serialize": (("repro.service.serialize", "prediction_to_dict"),
                          ("repro.service.serialize", "json_bytes")),
}


class Tracer:
    """Span recorder; install() patches, enabled gates the recording."""

    def __init__(self, keep: int = 20000):
        self.enabled = False
        self.keep = keep
        self.totals: Dict[str, List[float]] = {}  # name -> [n, total, self]
        self.spans: List[Tuple[str, str, float, float]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: List[Callable[[], None]] = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            frame = [name, 0.0]  # [span name, time covered by children]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                parent = stack[-1][0] if stack else ""
                if stack:
                    stack[-1][1] += duration
                with tracer._lock:
                    total = tracer.totals.setdefault(name, [0, 0.0, 0.0])
                    total[0] += 1
                    total[1] += duration
                    total[2] += duration - frame[1]
                    if len(tracer.spans) < tracer.keep:
                        tracer.spans.append((name, parent, start, end))

        return traced

    def self_s(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0, 0.0])[2]

    def total_s(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0, 0.0])[1]

    # -- patching ----------------------------------------------------------

    def install(self, spans: Dict[str, Tuple[Tuple[str, str], ...]]
                ) -> List[str]:
        """Patch every listed function; undone by :meth:`uninstall`.

        Returns the targets the program no longer has: their layers
        read 0 instead of failing the run.
        """
        missing = []
        for name, targets in spans.items():
            for module_name, attr in targets:
                try:
                    module = importlib.import_module(module_name)
                    if "." in attr:
                        cls_name, member = attr.split(".", 1)
                        self._patch_member(getattr(module, cls_name),
                                           member, name)
                    else:
                        self._patch_function(getattr(module, attr), name)
                except (ImportError, AttributeError, KeyError):
                    missing.append(f"{module_name}.{attr}")
        return missing

    def _patch_function(self, fn: Callable, name: str) -> None:
        """Replace *fn* in every ``repro`` module namespace holding it."""
        traced = self.wrap(name, fn)
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, traced)
                    self._undo.append(
                        lambda m=module, a=attr: setattr(m, a, fn))

    def _patch_member(self, cls: type, member: str, name: str) -> None:
        original = cls.__dict__[member]
        if isinstance(original, classmethod):
            patched = classmethod(self.wrap(name, original.__func__))
        elif isinstance(original, property):
            patched = property(self.wrap(name, original.fget),
                               original.fset, original.fdel, original.__doc__)
        else:
            patched = self.wrap(name, original)
        setattr(cls, member, patched)
        self._undo.append(lambda: setattr(cls, member, original))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def dump(self, path: str, **extra) -> None:
        """Write totals, the kept spans and *extra* as JSON to *path*."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with self._lock:
            payload = {
                **extra,
                "totals": {name: {"count": int(n), "total_s": total,
                                  "self_s": own}
                           for name, (n, total, own)
                           in sorted(self.totals.items())},
                "spans": [{"name": n, "parent": p, "start": s, "end": e}
                          for n, p, s, e in self.spans],
            }
        with open(path, "w") as handle:
            json.dump(payload, handle)
