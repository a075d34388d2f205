"""Measurement/prediction collection shared by all tables and figures."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.bhive.suite import BenchmarkSuite
from repro.core.components import ThroughputMode
from repro.eval.metrics import kendall_tau, mape
from repro.isa.block import BasicBlock
from repro.sim.measure import default_workers, measure, measure_many, \
    registered
from repro.uarch.config import MicroArchConfig
from repro.uops.database import UopsDatabase


@dataclass
class EvaluationResult:
    """Accuracy of one predictor on one (µarch, mode) combination."""

    predictor: str
    uarch: str
    mode: ThroughputMode
    measured: List[float]
    predicted: List[float]

    @property
    def mape(self) -> float:
        return mape(self.measured, self.predicted)

    @property
    def kendall(self) -> float:
        return kendall_tau(self.measured, self.predicted)


def measured_suite(suite: BenchmarkSuite, cfg: MicroArchConfig,
                   mode: ThroughputMode,
                   db: Optional[UopsDatabase] = None,
                   n_workers: Optional[int] = None) -> List[float]:
    """Oracle measurements for the whole suite (cached per block).

    When a worker count is given — or a process-wide default is set
    (:func:`repro.sim.measure.set_default_workers`, the CLI's
    ``--workers``) — the cycle-level simulations fan out over
    ``measure_many``'s pool, which is where most of a full-suite
    evaluation's wall-clock goes.
    """
    loop = mode is ThroughputMode.LOOP
    workers = n_workers if n_workers is not None else default_workers()
    # Custom configs cannot be rebuilt by name inside workers: measure
    # them serially rather than fail.
    if workers is not None and len(suite) > 1 and registered(cfg):
        return measure_many(cfg, [b.block(loop) for b in suite],
                            mode, n_workers=workers)
    db = db or UopsDatabase(cfg)
    return [measure(b.block(loop), cfg, mode, db) for b in suite]


def evaluate_predictor(predictor, suite: BenchmarkSuite,
                       mode: ThroughputMode,
                       measured: Optional[List[float]] = None,
                       ) -> EvaluationResult:
    """Run one predictor over the suite and pair it with measurements.

    The suite is predicted as one batch via ``predictor.predict_many``,
    which lets engine-backed predictors share analyses; plain predictors
    fall back to a serial loop.
    """
    cfg = predictor.cfg
    loop = mode is ThroughputMode.LOOP
    if measured is None:
        measured = measured_suite(suite, cfg, mode, predictor.db)
    predictor.prepare()
    predicted = predictor.predict_many([b.block(loop) for b in suite],
                                       mode)
    return EvaluationResult(predictor.name, cfg.abbrev, mode,
                            measured, predicted)


def evaluate_callable(name: str, fn: Callable[[BasicBlock], float],
                      suite: BenchmarkSuite, cfg: MicroArchConfig,
                      mode: ThroughputMode,
                      measured: Optional[List[float]] = None,
                      db: Optional[UopsDatabase] = None,
                      ) -> EvaluationResult:
    """Evaluate a bare prediction function (used for model variants)."""
    loop = mode is ThroughputMode.LOOP
    if measured is None:
        measured = measured_suite(suite, cfg, mode, db)
    predicted = [fn(b.block(loop)) for b in suite]
    return EvaluationResult(name, cfg.abbrev, mode, measured, predicted)
