"""Graph algorithms for the Precedence bound (§4.9 of the paper).

The dependence graph carries two edge weights: a latency and an iteration
count.  The throughput bound due to precedence constraints is the maximum
over all cycles of (total latency / total iteration count) — the maximum
cycle ratio (MCR).

Two MCR algorithms are provided:

* :func:`~repro.graph.howard.howard_max_cycle_ratio` — Howard's policy
  iteration (the algorithm the paper uses), exact rational arithmetic.
* :func:`~repro.graph.lawler.lawler_max_cycle_ratio` — Lawler's binary
  search with Bellman-Ford feasibility checks, used as a reference
  implementation and for the MCR ablation bench.

:func:`~repro.graph.howard_int.howard_max_cycle_ratio_int` is Howard's
algorithm again, on integer node ids in exact integer arithmetic, with
the same result and critical cycle as the reference; the columnar
prediction core runs it.
"""

from repro.graph.core import RatioGraph
from repro.graph.howard import howard_max_cycle_ratio
from repro.graph.lawler import lawler_max_cycle_ratio
from repro.graph.depgraph import DependenceGraphBuilder, build_dependence_graph

__all__ = [
    "DependenceGraphBuilder",
    "RatioGraph",
    "build_dependence_graph",
    "howard_max_cycle_ratio",
    "lawler_max_cycle_ratio",
]
