"""Seeded inputs of the workloads, and the checks shared between them.

Every timed stream is a pure function of the ``--seed`` the benchmark
was given; the program under test only ever sees the generated bytes.
Hot sets and samples use seeds derived from it.  Warm-up sets are the
same in every run, so set-up time measures the same work each time.
"""

from __future__ import annotations

import json
import os
import random
from typing import Dict, Iterator, List, Set, Tuple

from common import ROOT, UARCHS, shape_key

from repro.bhive.categories import CATEGORIES
from repro.bhive.generator import BlockGenerator
from repro.core.components import ThroughputMode
from repro.core.model import Facile
from repro.engine.cache import AnalysisCache
from repro.isa.block import BasicBlock
from repro.service import serialize
from repro.uarch import uarch_by_name
from repro.uops.database import UopsDatabase

#: The seed of every warm-up set.
WARMUP_SEED = 1_000_003
#: Offsets that separate the derived seeds of one run.
HOT_SEED = 2_000_003
SAMPLE_SEED = 3_000_017

GOLDEN = os.path.join(ROOT, "tests", "data", "golden_predictions.json")

Item = Tuple[str, ThroughputMode, BasicBlock]


def benchmark_pairs(seed: int) -> Iterator[Tuple[BasicBlock, BasicBlock]]:
    """Endless (unrolled, loop) block pairs, exactly as
    ``BenchmarkSuite.generate(n, seed)`` draws its first *n*."""
    generator = BlockGenerator(seed)
    weights = [c.weight for c in CATEGORIES]
    while True:
        category = generator.rng.choices(CATEGORIES, weights=weights)[0]
        yield generator.block_pair(category)


def items(seed: int) -> Iterator[Item]:
    """Endless (µarch, mode, block) items, round-robin over the four
    (µarch, mode) configurations: benchmark *j* runs on ``UARCHS[j % 2]``,
    its loop form in loop mode, its unrolled form in unrolled mode."""
    for index, (block_u, block_l) in enumerate(benchmark_pairs(seed)):
        uarch = UARCHS[index % len(UARCHS)]
        yield uarch, ThroughputMode.LOOP, block_l
        yield uarch, ThroughputMode.UNROLLED, block_u


def take(stream: Iterator[Item], n: int) -> List[Item]:
    return [next(stream) for _ in range(n)]


class NovelItems:
    """Items of *seed* whose signature shape was never seen before.

    Feeding only these keeps every timed lookup a compile (a miss):
    shapes seen in warm-up or earlier in the stream are skipped.
    """

    def __init__(self, seed: int):
        self._stream = items(seed)
        self.seen: Set[tuple] = set()
        self.skipped = 0

    def mark(self, batch: List[Item]) -> None:
        for uarch, _, block in batch:
            self.seen.add(shape_key(uarch, block))

    def next_batch(self, n: int) -> List[Item]:
        batch: List[Item] = []
        while len(batch) < n:
            item = next(self._stream)
            key = shape_key(item[0], item[2])
            if key in self.seen:
                self.skipped += 1
                continue
            self.seen.add(key)
            batch.append(item)
        return batch


def wire(result, block: BasicBlock, uarch: str):
    """The wire dict of a prediction, or the identity of an error."""
    if isinstance(result, Exception):
        return ("error", type(result).__name__, str(result))
    return serialize.prediction_to_dict(result, block, uarch)


class ObjectModel:
    """The reference ``Facile`` per µarch, for checking outputs.

    Its analysis caches are emptied after every check, so checking
    between timed batches does not grow this process's memory.
    """

    def __init__(self):
        self.models: Dict[str, Facile] = {}
        self.caches: List[AnalysisCache] = []
        for uarch in UARCHS:
            db = UopsDatabase(uarch_by_name(uarch))
            cache = AnalysisCache(db)
            self.caches.append(cache)
            self.models[uarch] = Facile(db.cfg, db=db, cache=cache)

    def mismatches(self, records) -> int:
        """Count (uarch, mode, raw, result) records whose result differs
        from the object model's, error outcomes included."""
        bad = 0
        for uarch, mode, raw, result in records:
            block = BasicBlock.from_bytes(raw)
            try:
                want = self.models[uarch].predict(block, mode)
            except Exception as exc:  # an error outcome is compared
                want = exc
            bad += wire(result, block, uarch) != wire(want, block, uarch)
        for cache in self.caches:
            cache.clear()
        return bad


def golden_mismatches() -> Tuple[int, int]:
    """Replay the golden corpus through fresh columnar cores.

    Returns (records, mismatches).
    """
    from repro.engine.columnar import ColumnarCore
    with open(GOLDEN) as handle:
        golden = json.load(handle)
    cores: Dict[str, object] = {}
    bad = 0
    for record in golden["records"]:
        uarch = record["uarch"]
        core = cores.get(uarch)
        if core is None:
            core = cores[uarch] = ColumnarCore(uarch_by_name(uarch))
        raw = bytes.fromhex(record["block"]["hex"])
        mode = ThroughputMode(record["mode"])
        got = serialize.prediction_to_dict(core.predict_raw(raw, mode),
                                           BasicBlock.from_bytes(raw), uarch)
        bad += got != record
    return len(golden["records"]), bad


class PayloadVariants:
    """Never-seen byte strings with the signature of a known block.

    Only immediate bytes change (all but the top byte of each
    immediate, so signs and branch targets stay sane); displacements
    and every form byte stay, so the columnar signature is unchanged.
    Variant *c* of a source writes ``(c * mult + base) mod 2**(8k)``
    into its *k* free bytes: distinct counters give distinct bytes, so
    no variant repeats one seen before.  Sources of one µarch must
    differ in their *skeleton* (the bytes with the free ones zeroed),
    and no variant is one of the bytes in *avoid* (the warm-up set).
    """

    MIN_FREE_BYTES = 2

    def __init__(self, uarch: str, mode: ThroughputMode,
                 block: BasicBlock, rng: random.Random, avoid: Set[bytes]):
        self.uarch = uarch
        self.mode = mode
        self.block = block
        self.avoid = avoid
        self.template = bytearray(block.raw)
        self.positions: List[int] = []
        offset = 0
        for instr in block:
            enc = instr.template.encoding
            imm_len = enc.imm_width // 8 if enc.imm_width else 0
            if imm_len and enc.fixed_bytes is None:
                end = offset + instr.length
                self.positions.extend(range(end - imm_len, end - 1))
            offset += instr.length
        skeleton = bytearray(self.template)
        for pos in self.positions:
            skeleton[pos] = 0
        self.skeleton = (uarch, bytes(skeleton))
        self.capacity = 1 << (8 * len(self.positions))
        self.mult = rng.randrange(1, self.capacity, 2) if self.positions \
            else 1
        self.base = rng.randrange(self.capacity) if self.positions else 0
        self.counter = 0

    @property
    def usable(self) -> bool:
        return len(self.positions) >= self.MIN_FREE_BYTES

    @property
    def exhausted(self) -> bool:
        # Leave room for the values skipped as bytes in *avoid*.
        return self.counter >= self.capacity - len(self.avoid)

    def next(self) -> bytes:
        """The next variant; never one of the bytes in *avoid*."""
        while True:
            value = (self.counter * self.mult + self.base) % self.capacity
            self.counter += 1
            out = self.template
            for pos in self.positions:
                out[pos] = value & 0xFF
                value >>= 8
            raw = bytes(out)
            if raw not in self.avoid:
                return raw
