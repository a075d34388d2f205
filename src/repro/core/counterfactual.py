"""Counterfactual analysis: what if a component were infinitely fast?

Because Facile is the maximum of independent bounds, idealizing a
component is simply recombining the remaining bounds (§6.4, Table 4).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence

from repro.core.components import Component, ThroughputMode
from repro.core.model import Prediction
from repro.isa.block import BasicBlock
from repro.uarch.config import MicroArchConfig


def idealized_speedup(prediction: Prediction,
                      component: Component) -> Optional[float]:
    """Speedup when *component* is made infinitely fast.

    Returns None when the remaining bounds are all zero (a block whose
    throughput was entirely determined by the idealized component).
    """
    if prediction.throughput is None:
        return None
    enabled = set(Component) - {component}
    ideal = prediction.recombined(enabled)
    if ideal.throughput is None or ideal.throughput == 0:
        return None
    return float(prediction.throughput / ideal.throughput)


def speedup_table(cfg: MicroArchConfig, blocks: Sequence[BasicBlock],
                  components: Iterable[Component],
                  mode: ThroughputMode = ThroughputMode.UNROLLED,
                  ) -> Dict[Component, float]:
    """Average speedup per idealized component over a benchmark suite.

    This regenerates one row of the paper's Table 4.  The average is the
    arithmetic mean of per-block speedups (blocks whose throughput is
    entirely due to the idealized component are skipped).

    The base predictions are produced in one batch by the columnar core;
    every idealization is then a cheap recombination of the batch
    results.
    """
    # Deferred import: the columnar core builds on repro.core.
    from repro.engine.columnar import ColumnarCore

    speedups: Dict[Component, List[float]] = {c: [] for c in components}
    predictions = ColumnarCore(cfg).predict_many(list(blocks), mode)
    for prediction in predictions:
        for component in speedups:
            value = idealized_speedup(prediction, component)
            if value is not None:
                speedups[component].append(value)
    return {
        component: (sum(values) / len(values) if values else 1.0)
        for component, values in speedups.items()
    }
