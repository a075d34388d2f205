"""The Facile model: per-component bounds and their combination (§4.1-4.2).

:class:`Facile` computes every relevant component bound for a block and
combines them:

* TPU (unrolled):  ``max{Predec, Dec, Issue, Ports, Precedence}``
* TPL (loop):      ``max{FE, Issue, Ports, Precedence}`` where FE is
  ``max{Predec, Dec}`` under the JCC erratum, the LSD bound when the loop
  fits the IDQ on an LSD-enabled µarch, and the DSB bound otherwise.

Because the model is compositional, the argmax components *are* the
bottleneck report, and ablations ("only X", "without X", simple variants)
are expressed as component subsets — which is also how the counterfactual
analysis (Table 4) is implemented.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, Optional, Set

from repro.core.components import (
    Component,
    LOOP_COMPONENTS,
    ThroughputMode,
    UNROLLED_COMPONENTS,
)
from repro.core.decoder import dec_bound, simple_dec_bound
from repro.core.dsb import dsb_bound
from repro.core.issue import issue_bound
from repro.core.jcc import affected_by_jcc_erratum
from repro.core.lsd import lsd_bound, lsd_fits
from repro.core.ports import PortsResult
from repro.core.precedence import PrecedenceResult
from repro.core.predecoder import predec_bound, simple_predec_bound
from repro.isa.block import BasicBlock
from repro.uarch.config import MicroArchConfig
from repro.uops.database import UopsDatabase

_ALL_COMPONENTS = frozenset(Component)
#: The front-end components under the JCC erratum, in tie-break order:
#: on equal bounds ``max`` keeps the first, so the choice never depends
#: on set iteration (hash) order.
_JCC_FRONT_END = (Component.PREDEC, Component.DEC)
#: Every component, front end first (the bottleneck report's order).
_COMPONENT_ORDER = tuple(Component)


@dataclass
class Prediction:
    """A throughput prediction with its interpretable decomposition.

    Attributes:
        throughput: predicted cycles per iteration (None when every
            relevant component was excluded — only reachable in ablations).
        mode: the throughput notion (TPU or TPL).
        bounds: raw per-component bounds; components that are not
            applicable in this mode are absent.
        bottlenecks: components attaining the predicted throughput,
            front-end-first.
        fe_component: the front-end path used in loop mode.
        jcc_affected: whether the JCC-erratum mitigation applied.
        lsd_applicable: whether the loop fits the LSD.
        ports_detail / precedence_detail: interpretable feedback payloads.
        critical_instruction_indices: instructions responsible for the
            bottleneck (port contenders or the critical dependency chain).
        ports_critical_indices: the instructions that would be critical if
            Ports were the bottleneck; kept regardless of the actual
            bottleneck so recombinations can report critical instructions
            without re-analyzing the block.
    """

    throughput: Optional[Fraction]
    mode: ThroughputMode
    bounds: Dict[Component, Fraction]
    bottlenecks: List[Component]
    fe_component: Optional[Component] = None
    jcc_affected: bool = False
    lsd_applicable: bool = False
    ports_detail: Optional[PortsResult] = None
    precedence_detail: Optional[PrecedenceResult] = None
    critical_instruction_indices: List[int] = field(default_factory=list)
    ports_critical_indices: List[int] = field(default_factory=list)

    @property
    def cycles(self) -> float:
        """The prediction as a float, rounded like the paper (2 digits)."""
        if self.throughput is None:
            return 0.0
        return round(float(self.throughput), 2)

    def recombined(self, enabled: Iterable[Component]) -> "Prediction":
        """The prediction that a Facile restricted to *enabled* components
        would make, reusing the already-computed bounds.

        This is what makes counterfactual reasoning cheap: idealizing a
        component is a recombination, not a re-analysis.
        """
        tp, fe, bottlenecks = _combine(
            self.bounds, self.mode, frozenset(enabled),
            self.jcc_affected, self.lsd_applicable)
        return Prediction(
            throughput=tp, mode=self.mode, bounds=self.bounds,
            bottlenecks=bottlenecks, fe_component=fe,
            jcc_affected=self.jcc_affected,
            lsd_applicable=self.lsd_applicable,
            ports_detail=self.ports_detail,
            precedence_detail=self.precedence_detail,
            critical_instruction_indices=_critical_indices(
                bottlenecks, self.ports_critical_indices,
                self.precedence_detail),
            ports_critical_indices=self.ports_critical_indices,
        )


def _combine(bounds: Dict[Component, Fraction], mode: ThroughputMode,
             enabled: FrozenSet[Component], jcc_affected: bool,
             lsd_applicable: bool):
    """Combine component bounds into a throughput (Eqs. 1-3)."""
    candidates: Dict[Component, Fraction] = {}

    if mode is ThroughputMode.UNROLLED:
        for comp in UNROLLED_COMPONENTS:
            if comp in enabled and comp in bounds:
                candidates[comp] = bounds[comp]
        fe = None
    else:
        fe = None
        if jcc_affected:
            fe_set = [c for c in _JCC_FRONT_END if c in enabled]
            if fe_set:
                fe = max(fe_set, key=lambda c: bounds[c])
        elif lsd_applicable and Component.LSD in enabled:
            fe = Component.LSD
        elif Component.DSB in enabled:
            fe = Component.DSB
        if fe is not None:
            candidates[fe] = bounds[fe]
            if jcc_affected:
                for comp in fe_set:
                    candidates[comp] = bounds[comp]
        for comp in (Component.ISSUE, Component.PORTS,
                     Component.PRECEDENCE):
            if comp in enabled and comp in bounds:
                candidates[comp] = bounds[comp]

    if not candidates:
        return None, fe, []
    throughput = max(candidates.values())
    bottlenecks = [comp for comp, bound in candidates.items()
                   if bound == throughput]
    if len(bottlenecks) > 1:  # front-end-first: declaration order
        bottlenecks = [comp for comp in _COMPONENT_ORDER
                       if comp in bottlenecks]
    return throughput, fe, bottlenecks


def _critical_indices(bottlenecks: List[Component],
                      ports_critical: List[int],
                      precedence_detail: Optional[PrecedenceResult],
                      ) -> List[int]:
    """The critical-instruction report for a combined prediction."""
    if bottlenecks and bottlenecks[0] is Component.PORTS:
        return list(ports_critical)
    if (bottlenecks and bottlenecks[0] is Component.PRECEDENCE
            and precedence_detail is not None):
        return list(precedence_detail.critical_chain)
    return []


class Facile:
    """The analytical throughput predictor.

    Args:
        cfg: the target microarchitecture.
        simple_predec / simple_dec: use the simpler component variants of
            §4.3/§4.4 (the "Facile w/ SimpleX" rows of Table 3).
        components: restrict the model to this component subset (default:
            all) — the "only X" ablations.
        exclude: remove components — the "Facile w/o X" ablations and the
            counterfactual analysis.
        db: optionally share a uops database across predictors.
        cache: optionally share an analysis cache; by default the cache
            attached to *db* is used, so every Facile variant sharing a
            database analyzes each block at most once.
    """

    def __init__(self, cfg: MicroArchConfig, *,
                 simple_predec: bool = False,
                 simple_dec: bool = False,
                 components: Optional[Iterable[Component]] = None,
                 exclude: Iterable[Component] = (),
                 db: Optional[UopsDatabase] = None,
                 cache: Optional["AnalysisCache"] = None):
        # Deferred: repro.core is imported by the engine's cache layer,
        # so the reverse dependency must not be resolved at import time.
        from repro.engine.cache import AnalysisCache
        self.cfg = cfg
        if db is None:
            db = cache.db if cache is not None else UopsDatabase(cfg)
        self.db = db
        self.cache = cache if cache is not None \
            else AnalysisCache.shared(self.db)
        self.simple_predec = simple_predec
        self.simple_dec = simple_dec
        base = frozenset(components) if components is not None \
            else _ALL_COMPONENTS
        self.enabled: FrozenSet[Component] = base - frozenset(exclude)

    # ------------------------------------------------------------------

    def predict(self, block: BasicBlock,
                mode: ThroughputMode) -> Prediction:
        """Predict the throughput of *block* under *mode*.

        Computes every enabled component bound (through the shared
        :class:`~repro.engine.cache.AnalysisCache`, so repeated calls
        on equal-byte blocks reuse the derived analysis) and combines
        them with ``max`` — Eq. 1 for
        :attr:`~repro.core.components.ThroughputMode.UNROLLED`,
        Eqs. 2-3 for
        :attr:`~repro.core.components.ThroughputMode.LOOP`.  The
        returned :class:`Prediction` carries the full interpretable
        decomposition: per-component bounds, the bottleneck set, the
        front-end path taken, and the critical instructions.

        This object model is the reference; the program's prediction
        paths run its compiled twin,
        :class:`repro.engine.columnar.ColumnarCore`, which answers
        bit-for-bit the same predictions.
        """
        analysis = self.cache.analysis(block)
        block = analysis.block
        analyzed = analysis.analyzed
        ops = analysis.ops

        bounds: Dict[Component, Fraction] = {}
        ports_detail: Optional[PortsResult] = None
        precedence_detail: Optional[PrecedenceResult] = None
        ports_critical: List[int] = []

        relevant = (UNROLLED_COMPONENTS if mode is ThroughputMode.UNROLLED
                    else LOOP_COMPONENTS)
        active = [c for c in relevant if c in self.enabled]

        if Component.PREDEC in active:
            bounds[Component.PREDEC] = (
                simple_predec_bound(block, self.cfg, mode)
                if self.simple_predec
                else predec_bound(block, self.cfg, mode))
        if Component.DEC in active:
            bounds[Component.DEC] = (
                simple_dec_bound(ops, self.cfg) if self.simple_dec
                else dec_bound(ops, self.cfg))
        if Component.DSB in active:
            bounds[Component.DSB] = dsb_bound(ops, block.num_bytes,
                                              self.cfg)
        if Component.LSD in active:
            bounds[Component.LSD] = lsd_bound(ops, self.cfg)
        if Component.ISSUE in active:
            bounds[Component.ISSUE] = issue_bound(ops, self.cfg)
        if Component.PORTS in active:
            ports_detail = analysis.ports()
            ports_critical = analysis.ports_critical()
            bounds[Component.PORTS] = ports_detail.bound
        if Component.PRECEDENCE in active:
            precedence_detail = analysis.precedence()
            bounds[Component.PRECEDENCE] = precedence_detail.bound

        jcc_affected = (mode is ThroughputMode.LOOP
                        and affected_by_jcc_erratum(block, self.cfg,
                                                    analyzed))
        lsd_applicable = (mode is ThroughputMode.LOOP
                          and lsd_fits(ops, self.cfg))

        tp, fe, bottlenecks = _combine(bounds, mode, self.enabled,
                                       jcc_affected, lsd_applicable)

        return Prediction(
            throughput=tp, mode=mode, bounds=bounds,
            bottlenecks=bottlenecks, fe_component=fe,
            jcc_affected=jcc_affected, lsd_applicable=lsd_applicable,
            ports_detail=ports_detail,
            precedence_detail=precedence_detail,
            critical_instruction_indices=_critical_indices(
                bottlenecks, ports_critical, precedence_detail),
            ports_critical_indices=ports_critical,
        )

    def predict_many(self, blocks: Iterable[BasicBlock],
                     mode: ThroughputMode) -> List[Prediction]:
        """Predict every block of a batch (serial, shared analysis cache)."""
        return [self.predict(block, mode) for block in blocks]

    def predict_unrolled(self, block: BasicBlock) -> Prediction:
        """TPU prediction (paper Eq. 1)."""
        return self.predict(block, ThroughputMode.UNROLLED)

    def predict_loop(self, block: BasicBlock) -> Prediction:
        """TPL prediction (paper Eqs. 2-3)."""
        return self.predict(block, ThroughputMode.LOOP)

    def component_bound(self, block: BasicBlock, component: Component,
                        mode: ThroughputMode) -> Fraction:
        """The raw bound of a single component ("only X" ablations).

        Routed through the shared :class:`BlockAnalysis`, so querying
        every component of a block in a loop (as the ablation benches do)
        analyzes the block once instead of once per query.
        """
        analysis = self.cache.analysis(block)
        block = analysis.block
        ops = analysis.ops
        if component is Component.PREDEC:
            return (simple_predec_bound(block, self.cfg, mode)
                    if self.simple_predec
                    else predec_bound(block, self.cfg, mode))
        if component is Component.DEC:
            return (simple_dec_bound(ops, self.cfg) if self.simple_dec
                    else dec_bound(ops, self.cfg))
        if component is Component.DSB:
            return dsb_bound(ops, block.num_bytes, self.cfg)
        if component is Component.LSD:
            return lsd_bound(ops, self.cfg)
        if component is Component.ISSUE:
            return issue_bound(ops, self.cfg)
        if component is Component.PORTS:
            return analysis.ports().bound
        if component is Component.PRECEDENCE:
            return analysis.precedence().bound
        raise ValueError(f"unknown component {component}")
