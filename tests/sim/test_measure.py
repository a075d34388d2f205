"""Measurement-harness tests."""

import dataclasses
import importlib
import sys
import threading

import pytest

from repro.core.components import ThroughputMode
from repro.isa.block import BasicBlock
from repro.sim.measure import Measurement, cached_measurement, clear_cache, \
    measure, measure_many, measure_suite, store_measurement
from repro.uarch import uarch_by_name

#: The module, not the function ``repro.sim`` re-exports under its name.
measure_module = importlib.import_module("repro.sim.measure")

SKL = uarch_by_name("SKL")


class TestMeasure:
    def test_rounded_to_two_decimals(self):
        block = BasicBlock.from_asm("add rax, rbx\nnop5\nadd rcx, rdx")
        value = measure(block, SKL, ThroughputMode.UNROLLED,
                        use_cache=False)
        assert value == round(value, 2)

    def test_cache_hit_returns_same_value(self):
        clear_cache()
        block = BasicBlock.from_asm("imul rax, rbx")
        first = measure(block, SKL, ThroughputMode.UNROLLED)
        second = measure(block, SKL, ThroughputMode.UNROLLED)
        assert first == second

    def test_cache_key_includes_mode_and_uarch(self):
        clear_cache()
        block = BasicBlock.from_asm("add cx, 1000\nnop\njne -8")
        u = measure(block, SKL, ThroughputMode.UNROLLED)
        l = measure(block, SKL, ThroughputMode.LOOP)
        assert u != l  # LCP stalls only hit the unrolled path

    def test_measure_suite(self):
        blocks = [BasicBlock.from_asm("add rax, rbx"),
                  BasicBlock.from_asm("imul rax, rbx")]
        results = measure_suite(blocks, SKL, ThroughputMode.UNROLLED)
        assert [type(r) for r in results] == [Measurement, Measurement]
        assert results[0].cycles < results[1].cycles


class TestMeasureMany:
    @pytest.mark.parametrize("cfg", [
        dataclasses.replace(SKL, abbrev="XYZ"),
        dataclasses.replace(SKL, issue_width=SKL.issue_width + 1),
    ], ids=["unknown-name", "changed-config"])
    def test_unregistered_uarch_is_a_value_error(self, cfg):
        # Workers rebuild the µarch from its name, so a config the
        # registry does not hold under that name cannot be pooled.
        with pytest.raises(ValueError, match="registered µarch"):
            measure_many(cfg, [BasicBlock.from_asm("add rax, rbx")],
                         ThroughputMode.LOOP, n_workers=2)


class TestCacheBound:
    """The process-wide measurement cache keeps at most ``_CACHE_MAX``
    entries, evicting the oldest insertion, and an evicted block is
    simply measured again."""

    BOUND = 4

    def test_cache_stays_within_its_bound(self, monkeypatch):
        monkeypatch.setattr(measure_module, "_CACHE_MAX", self.BOUND)
        # A chain of k dependent multiplies: each block measures apart.
        blocks = [BasicBlock.from_asm("\n".join(["imul rax, rbx"] * k))
                  for k in range(1, 3 * self.BOUND + 1)]
        want = [measure(block, SKL, ThroughputMode.UNROLLED,
                        use_cache=False) for block in blocks]
        assert len(set(want)) == len(want)
        clear_cache()
        try:
            # Twice over: the second pass meets evicted and kept keys.
            for block, cycles in zip(blocks + blocks[::-1],
                                     want + want[::-1]):
                assert measure(block, SKL, ThroughputMode.UNROLLED) \
                    == cycles
                assert len(measure_module._CACHE) <= self.BOUND
        finally:
            clear_cache()

    def test_concurrent_stores(self, monkeypatch):
        # A tiny bound makes nearly every store evict, on more threads
        # than cores, switching as often as the interpreter allows.
        monkeypatch.setattr(measure_module, "_CACHE_MAX", 2)
        clear_cache()
        blocks = [BasicBlock.from_asm(f"add rax, {k}")
                  for k in range(1, 65)]
        failures = []

        def run(offset):
            for i in range(10000):
                j = (offset + 7 * i) % len(blocks)
                try:
                    store_measurement(blocks[j], SKL,
                                      ThroughputMode.UNROLLED, float(j))
                    cached = cached_measurement(blocks[j], SKL,
                                                ThroughputMode.UNROLLED)
                except Exception as exc:  # noqa: BLE001 - reported below
                    failures.append((j, repr(exc)))
                    continue
                if cached not in (None, float(j)):
                    failures.append((j, cached))
                if len(measure_module._CACHE) > 2:
                    failures.append((j, "cache over its bound"))

        threads = [threading.Thread(target=run, args=(k,), daemon=True)
                   for k in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            clear_cache()
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
