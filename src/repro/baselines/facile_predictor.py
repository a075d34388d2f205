"""Facile wrapped in the common predictor interface."""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.baselines.base import Predictor, register
from repro.core.components import ThroughputMode
from repro.engine.columnar import ColumnarCore
from repro.isa.block import BasicBlock
from repro.uarch.config import MicroArchConfig
from repro.uops.database import UopsDatabase


@register
class FacilePredictor(Predictor):
    """The paper's contribution, for side-by-side comparison.

    Predictions run in-process on a :class:`ColumnarCore` of the
    requested Facile variant (*facile_kwargs*).
    """

    name = "Facile"
    native_mode = "both"

    def __init__(self, cfg: MicroArchConfig,
                 db: Optional[UopsDatabase] = None, **facile_kwargs):
        super().__init__(cfg, db)
        self.core = ColumnarCore(cfg, db=self.db, **facile_kwargs)

    def predict(self, block: BasicBlock, mode: ThroughputMode) -> float:
        return self.core.predict(block, mode).cycles

    def predict_many(self, blocks: Sequence[BasicBlock],
                     mode: ThroughputMode) -> List[float]:
        return [p.cycles for p in self.core.predict_many(blocks, mode)]
