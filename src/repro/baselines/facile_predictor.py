"""Facile wrapped in the common predictor interface."""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.baselines.base import Predictor, register
from repro.core.components import ThroughputMode
from repro.engine.engine import Engine
from repro.isa.block import BasicBlock
from repro.uarch.config import MicroArchConfig
from repro.uops.database import UopsDatabase


@register
class FacilePredictor(Predictor):
    """The paper's contribution, for side-by-side comparison.

    Predictions are routed through the batch engine and its resolved
    prediction core (columnar by default), in-process.
    """

    name = "Facile"
    native_mode = "both"

    def __init__(self, cfg: MicroArchConfig,
                 db: Optional[UopsDatabase] = None, **facile_kwargs):
        super().__init__(cfg, db)
        self.engine = Engine(cfg, db=self.db, **facile_kwargs)
        self.model = self.engine.model

    def predict(self, block: BasicBlock, mode: ThroughputMode) -> float:
        return self.engine.predict(block, mode).cycles

    def predict_many(self, blocks: Sequence[BasicBlock],
                     mode: ThroughputMode) -> List[float]:
        return [p.cycles for p in self.engine.predict_many(blocks, mode)]
