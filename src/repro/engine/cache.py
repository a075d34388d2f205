"""Shared per-block analysis cache (the engine's caching layer).

Every consumer of a basic block — ``Facile.predict``, single-component
bound queries, ablation variants, the counterfactual analysis, the
back-end-only baseline analogs, and the oracle simulator — needs the same
derived artifacts: the characterized instruction stream, the macro-op
stream, and (for the Precedence bound) the weighted dependence graph.
The seed code re-derived all of them on every call; :class:`AnalysisCache`
memoizes them per block so each is computed at most once per
(block-signature, µarch) pair.

Cache-key design
----------------

* The **block signature** is the block's raw byte encoding
  (``block.raw``).  Two blocks with equal bytes decode to equal
  instruction streams, so every derived artifact is identical — a block
  rebuilt from its bytes (``BasicBlock.from_bytes``) hits the entry of
  the original.
* The **µarch dimension** is implicit: an :class:`AnalysisCache` is owned
  by one :class:`~repro.uops.database.UopsDatabase` (and therefore one
  :class:`~repro.uarch.config.MicroArchConfig`).  Callers that share a
  database share a cache via :meth:`AnalysisCache.shared`, so e.g. all
  seventeen Table-3 ablation variants analyze each block once.
* The expensive *Ports* sub-result is additionally memoized globally on
  its canonical port-multiset key (see
  :func:`repro.core.ports.ports_bound`), which deduplicates across
  blocks, µarchs with equal port maps, and predictors.

The cache is **LRU-bounded** (``max_blocks``, default
:data:`DEFAULT_MAX_BLOCKS`) and keeps lifetime ``hits`` / ``misses`` /
``evictions`` counters; :meth:`AnalysisCache.stats` returns them as a
JSON-ready dict.

The cached artifacts are treated as immutable by all consumers; do not
mutate ``analyzed``/``ops`` in place.  The cache itself is **not**
thread-safe: batch consumers route all lookups through one thread (a
:class:`~repro.engine.batching.MicroBatcher` dispatcher does exactly
this).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional

from repro.core.ports import PortsResult, critical_instructions, ports_bound
from repro.core.precedence import PrecedenceResult, precedence_bound
from repro.isa.block import BasicBlock
from repro.uarch.config import MicroArchConfig
from repro.uops.blockinfo import AnalyzedInstruction, MacroOp, analyze_block, \
    macro_ops
from repro.uops.database import UopsDatabase


class BlockAnalysis:
    """All derived artifacts of one block on one µarch, computed lazily.

    Every artifact — the characterized instruction stream, the macro-op
    stream, and the Ports/Precedence sub-results — is computed on first
    request and then shared by every later consumer (e.g. a
    precedence-only consumer never pays for macro-op construction).
    """

    __slots__ = ("block", "signature", "cfg", "db", "_analyzed", "_ops",
                 "_ports", "_ports_critical", "_precedence")

    def __init__(self, block: BasicBlock, db: UopsDatabase):
        self.block = block
        self.signature: bytes = block.raw
        self.cfg: MicroArchConfig = db.cfg
        self.db = db
        self._analyzed: Optional[List[AnalyzedInstruction]] = None
        self._ops: Optional[List[MacroOp]] = None
        self._ports: Optional[PortsResult] = None
        self._ports_critical: Optional[List[int]] = None
        self._precedence: Optional[PrecedenceResult] = None

    @property
    def analyzed(self) -> List[AnalyzedInstruction]:
        """The characterized instruction stream (computed once)."""
        if self._analyzed is None:
            self._analyzed = analyze_block(self.block, self.cfg, self.db)
        return self._analyzed

    @property
    def ops(self) -> List[MacroOp]:
        """The macro-op stream (computed once)."""
        if self._ops is None:
            self._ops = macro_ops(self.analyzed, self.cfg)
        return self._ops

    def ports(self) -> PortsResult:
        """The Ports bound of the block (computed once)."""
        if self._ports is None:
            self._ports = ports_bound(self.ops)
        return self._ports

    def ports_critical(self) -> List[int]:
        """Instruction indices experiencing the maximal port contention."""
        if self._ports_critical is None:
            self._ports_critical = critical_instructions(self.ops,
                                                         self.ports())
        return self._ports_critical

    def precedence(self) -> PrecedenceResult:
        """The Precedence bound of the block (computed once)."""
        if self._precedence is None:
            self._precedence = precedence_bound(self.block, self.db)
        return self._precedence


#: Default cache capacity.  Suites are a few hundred blocks; the cap
#: matters for process-lifetime shared databases (e.g. the no-elim
#: baseline database), where it bounds memory while the LRU policy
#: keeps the hot working set resident.
DEFAULT_MAX_BLOCKS = 65536


class AnalysisCache:
    """Memoized :class:`BlockAnalysis` per block signature.

    One cache serves one :class:`UopsDatabase` (hence one µarch);
    consumers sharing a database should share the cache via
    :meth:`shared` so analysis work is deduplicated across them.

    Capacity-bounded with LRU replacement: once *max_blocks* analyses
    are held, each insertion evicts the least-recently-used entry (a
    hit refreshes the entry's recency).  Eviction only costs a
    re-analysis on a later lookup — results never change.  The LRU
    policy is what makes a bounded cache serve a long-lived process
    well: a hot working set of blocks stays resident while one-off
    blocks age out.

    Attributes:
        hits / misses / evictions: lifetime lookup statistics (see
            :meth:`stats`).
    """

    def __init__(self, db: UopsDatabase,
                 max_blocks: int = DEFAULT_MAX_BLOCKS):
        if max_blocks < 1:
            raise ValueError("max_blocks must be >= 1")
        self.db = db
        self.cfg: MicroArchConfig = db.cfg
        self.max_blocks = max_blocks
        self._blocks: "OrderedDict[bytes, BlockAnalysis]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @classmethod
    def shared(cls, db: UopsDatabase) -> "AnalysisCache":
        """The cache attached to *db*, created on first use.

        All predictors/models constructed with the same database instance
        receive the same cache, which is what makes whole-suite variant
        sweeps (Table 3, counterfactuals) analyze each block once.
        """
        cache = getattr(db, "_analysis_cache", None)
        if cache is None:
            cache = cls(db)
            db._analysis_cache = cache
        return cache

    def analysis(self, block: BasicBlock) -> BlockAnalysis:
        """The (memoized) analysis of *block*.

        A hit refreshes the entry's LRU recency; a miss computes the
        analysis lazily and may evict the least-recently-used entry.
        """
        signature = block.raw
        found = self._blocks.get(signature)
        if found is None:
            self.misses += 1
            found = BlockAnalysis(block, self.db)
            while len(self._blocks) >= self.max_blocks:
                self._blocks.popitem(last=False)
                self.evictions += 1
            self._blocks[signature] = found
        else:
            self.hits += 1
            self._blocks.move_to_end(signature)
        return found

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, object]:
        """A JSON-ready snapshot of the cache counters."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": len(self._blocks),
            "max_blocks": self.max_blocks,
            "hit_rate": round(self.hit_rate, 4),
        }

    def clear(self) -> None:
        """Drop all cached analyses (statistics are kept)."""
        self._blocks.clear()

    def __len__(self) -> int:
        return len(self._blocks)
