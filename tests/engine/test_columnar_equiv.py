"""Differential equivalence: the columnar core IS the object model.

The columnar core's acceptance property is *bit-for-bit equality* with
the :class:`~repro.core.model.Facile` reference on every block: equal
``Prediction`` dataclasses (throughput, bounds, bottlenecks, detail
payloads, critical indices — ``Prediction.__eq__`` compares all of it).
This harness sweeps

* every generator category × every µarch × both modes (deterministic
  generated blocks, via ``predict``, ``predict_many`` and the
  byte-level ``predict_raw`` entry points),
* seeded property-based fuzz over the *whole template table* via the
  discovery layer's abstract-block sampler (a fully-TOP abstraction
  admits any instruction), 50 blocks in tier-1 and ≥500 under
  ``-m slow`` (CI's columnar job).

Payload-variant equality — blocks differing from a compiled signature
only in displacement/immediate *values* — is covered separately, since
that is the path where the columnar core answers from a warm entry the
object model has never seen.
"""

import random

import pytest

from repro.bhive.categories import CATEGORIES
from repro.bhive.generator import BlockGenerator
from repro.core.components import ThroughputMode
from repro.core.decoder import decoder_ops
from repro.core.jcc import branch_spans
from repro.core.model import Facile
from repro.core.ports import port_ops
from repro.core.precedence import lower_dependences
from repro.core.predecoder import block_layout
from repro.discovery.abstraction import (
    AbstractBlock,
    AbstractInsn,
    FEATURE_ORDER,
    sample_block,
)
from repro.engine.columnar import ColumnarCore
from repro.isa.block import BasicBlock
from repro.uarch import ALL_UARCHS, uarch_by_name
from repro.uops.blockinfo import analyze_block, macro_ops
from repro.uops.database import UnsupportedInstruction, UopsDatabase

MODES = (ThroughputMode.UNROLLED, ThroughputMode.LOOP)

#: Blocks per generator category in the category sweep.
PER_CATEGORY = 4
#: Fuzz volume: tier-1 smoke vs the full `-m slow` sweep.
FUZZ_SMOKE = 50
FUZZ_FULL = 500


def category_blocks(seed=90):
    """Deterministic (category, block) pairs covering every category
    in both its unrolled and loop forms."""
    generator = BlockGenerator(seed)
    out = []
    for category in CATEGORIES:
        for _ in range(PER_CATEGORY):
            block_u, block_l = generator.block_pair(category)
            out.append((category.name, block_u))
            out.append((category.name, block_l))
    return out


def assert_identical(reference, candidate, context):
    """Full-dataclass equality plus the pieces whose diff is readable."""
    assert reference.throughput == candidate.throughput, context
    assert reference.bounds == candidate.bounds, context
    assert reference.bottlenecks == candidate.bottlenecks, context
    assert reference.fe_component == candidate.fe_component, context
    assert reference.jcc_affected == candidate.jcc_affected, context
    assert reference.lsd_applicable == candidate.lsd_applicable, context
    assert reference.critical_instruction_indices \
        == candidate.critical_instruction_indices, context
    assert reference.ports_critical_indices \
        == candidate.ports_critical_indices, context
    assert reference == candidate, context


@pytest.fixture(scope="module")
def swept_blocks():
    return category_blocks()


@pytest.mark.parametrize("cfg", ALL_UARCHS, ids=lambda c: c.abbrev)
@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
def test_every_category_every_uarch_every_mode(cfg, mode, swept_blocks):
    reference = Facile(cfg)
    columnar = ColumnarCore(cfg)
    # A core that sees only bytes, so its entries come from the raw
    # path (its own rows; the bytes-only core after ``predict`` would
    # just hit the raw-bytes LRU).
    raw_only = ColumnarCore(cfg)
    blocks = [block for _, block in swept_blocks]
    expected = reference.predict_many(blocks, mode)
    batched = columnar.predict_many(blocks, mode)
    for (name, block), want, got in zip(swept_blocks, expected, batched):
        context = f"{cfg.abbrev}/{mode.value}/{name}/{block.raw.hex()}"
        assert_identical(want, got, context)
        assert_identical(want, columnar.predict(block, mode), context)
        assert_identical(want, columnar.predict_raw(block.raw, mode),
                         context)
        assert_identical(want, raw_only.predict_raw(block.raw, mode),
                         context)
    raw_batch = columnar.predict_raw_many([b.raw for b in blocks], mode)
    for want, got in zip(expected, raw_batch):
        assert want == got


def test_payload_variants_hit_warm_signatures():
    """Blocks that differ only in disp/imm *values* share a compiled
    signature — and still match the object model exactly."""
    cfg = uarch_by_name("SKL")
    reference = Facile(cfg)
    columnar = ColumnarCore(cfg)
    rng = random.Random(41)
    originals = [block for _, block in category_blocks(seed=91)]
    columnar.predict_many(originals, ThroughputMode.LOOP)  # compile

    checked = 0
    for block in originals:
        out = bytearray()
        mutated = False
        for instr in block:
            raw = bytearray(instr.raw)
            enc = instr.template.encoding
            imm_len = enc.imm_width // 8 if enc.imm_width else 0
            if imm_len and enc.fixed_bytes is None:
                # Randomize all but the top imm byte (sign stays valid).
                for i in range(len(raw) - imm_len, len(raw) - 1):
                    raw[i] = rng.randrange(256)
                mutated = True
            out += raw
        if not mutated:
            continue
        variant = bytes(out)
        try:
            rebuilt = BasicBlock.from_bytes(variant)
        except Exception:
            continue  # e.g. a relative branch whose target went wild
        before = columnar.misses
        got = columnar.predict_raw(variant, ThroughputMode.LOOP)
        assert columnar.misses == before, "variant should not recompile"
        assert_identical(reference.predict(rebuilt, ThroughputMode.LOOP),
                         got, variant.hex())
        checked += 1
    assert checked >= 10  # the sweep actually exercised the warm path


def fully_top_abstraction(n_insns):
    insns = []
    for _ in range(n_insns):
        insn = AbstractInsn()
        for name in FEATURE_ORDER:
            insn.widen(name)
        insns.append(insn)
    return AbstractBlock(insns)


def outcome(fn, *args):
    """A comparable (ok, value-or-error-text) of a prediction call."""
    try:
        return True, fn(*args)
    except Exception as exc:  # noqa: BLE001 - compared, not hidden
        return False, f"{type(exc).__name__}: {exc}"


def run_fuzz(n_blocks, seed):
    """Sample *n_blocks* whole-template-table blocks and assert
    identical per-block outcomes — predictions *and* errors (a sampled
    template can be unsupported on an older µarch; the columnar core
    must replay the reference failure, not hide it) — across every
    µarch and both modes."""
    sampler_db = UopsDatabase(uarch_by_name("SKL"))
    rng = random.Random(seed)
    blocks = []
    while len(blocks) < n_blocks:
        block = sample_block(fully_top_abstraction(rng.randint(1, 8)),
                             rng, sampler_db)
        if block is not None:
            blocks.append(block)
    for cfg in ALL_UARCHS:
        reference = Facile(cfg)
        columnar = ColumnarCore(cfg)
        raw_only = ColumnarCore(cfg)  # entries from the raw path only
        for mode in MODES:
            supported = []
            for block in blocks:
                context = f"{cfg.abbrev}/{mode.value}/{block.raw.hex()}"
                # First, so forms new to the process go through the
                # raw path's one-instruction decode.
                fresh_ok, fresh = outcome(raw_only.predict_raw,
                                          block.raw, mode)
                want_ok, want = outcome(reference.predict, block, mode)
                got_ok, got = outcome(columnar.predict, block, mode)
                raw_ok, via_raw = outcome(columnar.predict_raw,
                                          block.raw, mode)
                assert (want_ok, got_ok, raw_ok, fresh_ok) \
                    == (want_ok,) * 4, (context, want, got, via_raw, fresh)
                if want_ok:
                    assert_identical(want, got, context)
                    assert want == via_raw, context
                    assert_identical(want, fresh, context)
                    supported.append((block, want))
                else:
                    assert want == got, context
                    assert want == via_raw, context
                    assert want == fresh, context
            if supported:
                batch = columnar.predict_many(
                    [b for b, _ in supported], mode)
                for (_, want), got in zip(supported, batch):
                    assert want == got


def test_fuzz_smoke():
    run_fuzz(FUZZ_SMOKE, seed=2023)


@pytest.mark.slow
def test_fuzz_full():
    run_fuzz(FUZZ_FULL, seed=20230)


@pytest.mark.parametrize("cfg", ALL_UARCHS, ids=lambda c: c.abbrev)
def test_rows_project_like_the_object_model(cfg, swept_blocks):
    """A signature's per-form rows feed every component kernel the
    object model's own projection of the block: the predecoder layout,
    Algorithm 1's ops, the port ops, the jump spans, the µop totals and
    the dependence templates — for signatures from the predict path and
    from the raw path alike."""
    core = ColumnarCore(cfg)
    raw_only = ColumnarCore(cfg)
    for name, block in swept_blocks:
        context = f"{cfg.abbrev}/{name}/{block.raw.hex()}"
        sigs = (core._entry_for_block(block).sig,
                raw_only._entry_for_raw(block.raw).sig)
        try:
            analyzed = analyze_block(block, cfg, core.db)
        except UnsupportedInstruction as exc:
            for sig in sigs:
                with pytest.raises(UnsupportedInstruction) as error:
                    core._project(sig)
                assert str(error.value) == str(exc), context
            continue
        ops = macro_ops(analyzed, cfg)
        for projected in (core._project(sigs[0]), raw_only._project(sigs[1])):
            assert projected.layout == block_layout(block), context
            assert projected.num_bytes == block.num_bytes, context
            assert projected.dec_ops == decoder_ops(ops), context
            assert projected.port_ops == port_ops(ops), context
            assert projected.spans == branch_spans(block, analyzed), context
            assert projected.n_fused == sum(op.info.fused_uops
                                            for op in ops), context
            assert projected.n_issued == sum(op.info.issued_uops
                                             for op in ops), context
            assert projected.templates == tuple(
                lower_dependences(instr, core.db) for instr in block), \
                context
