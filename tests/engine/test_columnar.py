"""Columnar-core unit behavior: equivalence, memoization, bounds,
errors."""

import ast
import gc
import inspect
import traceback
import tracemalloc

import pytest

from repro.bhive.suite import BenchmarkSuite
from repro.core.components import Component, ThroughputMode
from repro.core.model import Facile
from repro.engine import ColumnarCore
from repro.engine.columnar import _BlockEntry
from repro.isa.block import BasicBlock
from repro.uarch import uarch_by_name

SKL = uarch_by_name("SKL")
MODES = (ThroughputMode.UNROLLED, ThroughputMode.LOOP)


@pytest.fixture(scope="module")
def blocks():
    return [b.block_l for b in BenchmarkSuite.generate(12, seed=13)]


class TestEngineRouting:
    """The columnar core, as every prediction path builds it, against
    the object model: the reference keeps its analysis cache, and both
    answer equal predictions."""

    def test_object_core_still_populates_analysis_cache(self, blocks):
        model = Facile(SKL)
        model.predict_many(blocks, ThroughputMode.LOOP)
        assert model.cache.misses >= len(blocks)

    def test_columnar_engine_equals_object_engine(self, blocks):
        columnar = ColumnarCore(SKL)
        reference = Facile(SKL)
        for mode in MODES:
            assert columnar.predict_many(blocks, mode) \
                == reference.predict_many(blocks, mode)
            for block in blocks:
                assert columnar.predict(block, mode) \
                    == reference.predict(block, mode)

    def test_variant_engines_route_through_columnar(self, blocks):
        kwargs = dict(simple_predec=True, simple_dec=True,
                      exclude=(Component.PORTS,))
        reference = Facile(SKL, **kwargs)
        core = ColumnarCore(SKL, **kwargs)
        for mode in MODES:
            assert core.predict_many(blocks, mode) \
                == reference.predict_many(blocks, mode)

    def test_components_subset(self, blocks):
        only = (Component.ISSUE, Component.PORTS)
        reference = Facile(SKL, components=only)
        core = ColumnarCore(SKL, components=only)
        for block in blocks:
            want = reference.predict(block, ThroughputMode.UNROLLED)
            got = core.predict(block, ThroughputMode.UNROLLED)
            assert want == got
            assert set(got.bounds) == set(only)


class TestMemoization:
    def test_signature_sharing_across_payload_values(self):
        core = ColumnarCore(SKL)
        a = BasicBlock.from_asm("add rax, 100\nmov rbx, [rsi + 8]")
        b = BasicBlock.from_asm("add rax, 101\nmov rbx, [rsi + 96]")
        core.predict(a, ThroughputMode.LOOP)
        stats = core.stats()
        assert stats["misses"] == 1
        core.predict(b, ThroughputMode.LOOP)
        stats = core.stats()
        assert stats["misses"] == 1  # warm signature, no recompile
        assert stats["sig_hits"] == 1

    def test_disp_zero_is_a_distinct_signature(self):
        # disp == 0 changes the µop memory-component count, so it must
        # not share an entry with disp != 0.
        core = ColumnarCore(SKL)
        with_disp = BasicBlock.from_asm("mov rbx, [rsi + 8]")
        zero_disp = BasicBlock.from_asm("mov rbx, [rsi]")
        core.predict(with_disp, ThroughputMode.LOOP)
        core.predict(zero_disp, ThroughputMode.LOOP)
        assert core.stats()["misses"] == 2
        reference = Facile(SKL)
        for block in (with_disp, zero_disp):
            assert core.predict(block, ThroughputMode.LOOP) \
                == reference.predict(block, ThroughputMode.LOOP)

    def test_repeated_bytes_are_a_sig_hit(self, blocks):
        # No index of exact bytes: the repeat walks the trie to the
        # entry the first call compiled.
        core = ColumnarCore(SKL)
        core.predict(blocks[0], ThroughputMode.LOOP)
        core.predict_raw(blocks[0].raw, ThroughputMode.LOOP)
        stats = core.stats()
        assert (stats["misses"], stats["sig_hits"]) == (1, 1)

    def test_max_entries_bound(self, blocks):
        unbounded = ColumnarCore(SKL)
        unbounded.predict_many(blocks, ThroughputMode.LOOP)
        assert unbounded.stats()["templates"] > 4  # the bound will bite
        core = ColumnarCore(SKL, max_entries=4)
        core.predict_many(blocks, ThroughputMode.LOOP)
        assert core.stats()["entries"] <= 4
        assert core.stats()["templates"] <= 4
        # Evicted entries and templates recompile correctly.
        reference = Facile(SKL)
        for block in blocks:
            assert core.predict(block, ThroughputMode.LOOP) \
                == reference.predict(block, ThroughputMode.LOOP)
        assert core.stats()["templates"] <= 4

    def test_clear(self, blocks):
        core = ColumnarCore(SKL)
        core.predict_many(blocks, ThroughputMode.LOOP)
        assert core.stats()["templates"] > 0
        core.clear()
        assert core.stats()["entries"] == 0
        assert core.stats()["templates"] == 0
        assert core.predict(blocks[0], ThroughputMode.LOOP) \
            == Facile(SKL).predict(blocks[0], ThroughputMode.LOOP)

    def test_max_entries_validation(self):
        with pytest.raises(ValueError):
            ColumnarCore(SKL, max_entries=0)

    def test_predictions_are_fresh_objects(self, blocks):
        core = ColumnarCore(SKL)
        first = core.predict(blocks[0], ThroughputMode.LOOP)
        second = core.predict(blocks[0], ThroughputMode.LOOP)
        assert first == second
        assert first.bounds is not second.bounds
        assert first.bottlenecks is not second.bottlenecks
        first.bounds.clear()
        assert core.predict(blocks[0], ThroughputMode.LOOP) == second


class TestOneEntryTable:
    """The compiled-entry LRU is a core's only map from a block to its
    entry: an entry it evicts is freed, and new bytes of compiled
    signatures leave nothing behind."""

    @staticmethod
    def entries_alive():
        gc.collect()
        return sum(isinstance(obj, _BlockEntry) for obj in gc.get_objects())

    def test_evicted_entries_are_freed_under_repeated_bytes(self, blocks):
        raws = [block.raw for block in blocks[:8]]
        before = self.entries_alive()
        core = ColumnarCore(SKL, max_entries=4)
        for raw in raws:
            core.predict_raw(raw, ThroughputMode.LOOP)
            # The first block's bytes again between new signatures: an
            # index of exact bytes would keep its entry alive after the
            # entry table had evicted it.
            core.predict_raw(raws[0], ThroughputMode.LOOP)
            assert self.entries_alive() - before <= 4
        stats = core.stats()
        assert (stats["entries"], stats["misses"], stats["sig_hits"]) \
            == (4, 8, 8)

    def test_payload_variants_add_no_memory(self):
        templates = ("add rax, rbx\nmov ecx, {imm}",
                     "imul rax, rbx\nadd rdx, {imm}",
                     "mov rbx, [rsi + 8]\nsub rbx, {imm}",
                     "lea rax, [rbx + 8]\ncmp rax, {imm}\njne -16")
        # 500 immediate-only variants of each block, all distinct bytes.
        variants = [[BasicBlock.from_asm(asm.format(imm=1000 + k)).raw
                     for k in range(500)] for asm in templates]
        core = ColumnarCore(SKL)
        for raws in variants:
            core.predict_raw(raws[0], ThroughputMode.LOOP)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            for raws in variants:
                for raw in raws:
                    core.predict_raw(raw, ThroughputMode.LOOP)
            grown = tracemalloc.get_traced_memory()[0] - start
        finally:
            if not tracing:
                tracemalloc.stop()
        assert core.stats()["entries"] == 4
        assert grown < 64 * 1024


#: Raw-path errors: (bytes predicted first, so their forms are known;
#: the bad block).
RAW_ERROR_CASES = {
    # The walk passes the known add, then decodes only the bad byte.
    "known-then-undecodable": ("4801d8", "4801d806"),
    # A known add-imm8 form whose immediate is cut off.
    "known-truncated": ("4801d84883c001", "4801d84883c0"),
    # A known [disp32] form (no base, no index) whose displacement is
    # 0, which the decoder rejects: alone, the walk knows every form.
    "payload-rejected": ("488b042510000000", "488b042500000000"),
    # The same, before an undecodable byte, which must not win over it.
    "payload-rejected-first": ("488b042510000000", "488b04250000000006"),
    "empty": ("", ""),
}


def assert_raw_error_like_from_bytes(core, bad):
    """``predict_raw(bad)`` raises what ``BasicBlock.from_bytes(bad)``
    raises, type and message (the shard sends the message to clients),
    on a miss and on the next call."""
    with pytest.raises(Exception) as reference:
        BasicBlock.from_bytes(bad)
    for _ in range(2):
        with pytest.raises(type(reference.value)) as error:
            core.predict_raw(bad, ThroughputMode.LOOP)
        assert str(error.value) == str(reference.value)


class TestErrors:
    def test_decode_error_propagates_like_from_bytes(self):
        assert_raw_error_like_from_bytes(ColumnarCore(SKL),
                                         bytes.fromhex("060606"))

    @pytest.mark.parametrize("known, bad", RAW_ERROR_CASES.values(),
                             ids=RAW_ERROR_CASES.keys())
    def test_raw_path_error_matches_from_bytes(self, known, bad):
        core = ColumnarCore(SKL)
        if known:
            core.predict_raw(bytes.fromhex(known), ThroughputMode.LOOP)
        assert_raw_error_like_from_bytes(core, bytes.fromhex(bad))

    def test_empty_raw_raises_value_error(self):
        core = ColumnarCore(SKL)
        with pytest.raises(ValueError):
            core.predict_raw(b"", ThroughputMode.LOOP)

    def test_unsupported_template_error_replays(self):
        # AVX on Sandy Bridge is fine, but e.g. SKL-sampled templates
        # may not exist everywhere; use a µarch/template mismatch.
        from repro.uops.database import UnsupportedInstruction
        block = BasicBlock.from_asm("popcnt rax, rbx")
        old = uarch_by_name("SNB")
        try:
            Facile(old).predict(block, ThroughputMode.LOOP)
        except UnsupportedInstruction:
            core = ColumnarCore(old)
            for _ in range(2):  # the stored error replays per call
                with pytest.raises(UnsupportedInstruction):
                    core.predict(block, ThroughputMode.LOOP)
        else:
            pytest.skip("popcnt supported on SNB in this table")

    @pytest.mark.parametrize("uarch, raw", (
        ("SKL", b""),
        ("IVB", bytes.fromhex("c5f5fec2")),  # vpaddd ymm: no AVX2 on IVB
    ), ids=("empty", "avx2-on-ivb"))
    def test_replayed_error_traceback_does_not_grow(self, uarch, raw):
        core = ColumnarCore(uarch_by_name(uarch))
        depths = []
        for _ in range(50):
            with pytest.raises(Exception) as error:
                core.predict_raw(raw, ThroughputMode.LOOP)
            depths.append(len(traceback.extract_tb(
                error.value.__traceback__)))
        stats = core.stats()
        # The same cached error, compiled once.
        assert (stats["misses"], stats["sig_hits"]) == (1, 49)
        assert depths == [depths[0]] * 50


def _trie_leaves(node):
    leaves = [node.leaf] if node.leaf is not None else []
    for child in node.children.values():
        leaves.extend(_trie_leaves(child))
    return leaves


def test_reset_empties_every_module_table(blocks):
    """``_reset_global_tables`` leaves only the NOP forms it reinstalls
    in every process-wide table of the module, whatever its name: a
    table it missed would make a later set-up start warm."""
    from repro.engine import columnar
    from repro.isa.templates import _NOP_BYTES

    core = ColumnarCore(SKL)
    for block in blocks:
        core.predict_raw(block.raw, ThroughputMode.LOOP)
        core.predict(block, ThroughputMode.UNROLLED)
    defined = set()  # names the module assigns at top level
    for node in ast.parse(inspect.getsource(columnar)).body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign)
                   else [])
        defined.update(t.id for t in targets if isinstance(t, ast.Name))
    tables = {name: getattr(columnar, name) for name in defined
              if isinstance(getattr(columnar, name),
                            (dict, list, set, columnar._TrieNode))}
    assert columnar._REP_INSTRS and columnar._FORM_FACTS
    columnar._reset_global_tables()
    nop_forms = {bytes(pattern) for pattern in _NOP_BYTES.values()}
    for name, table in tables.items():
        if isinstance(table, columnar._TrieNode):
            assert set(_trie_leaves(table)) \
                == set(columnar._FORM_INDEX.values()), name
        elif name == "_FORM_INDEX":
            assert set(table) == nop_forms, name
        else:
            assert not table, name

