"""Port-contention bound tests, incl. the heuristic-vs-LP property."""

import random
import sys
import threading
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ports as ports_module
from repro.core.ports import (
    clear_ports_memo,
    critical_instructions,
    ports_bound,
    ports_bound_counts,
    ports_bound_lp,
)
from repro.isa.block import BasicBlock
from repro.uarch import uarch_by_name
from repro.uops.blockinfo import analyze_block, macro_ops

SKL = uarch_by_name("SKL")


def ops_for(asm: str, cfg=SKL):
    block = BasicBlock.from_asm(asm)
    return macro_ops(analyze_block(block, cfg), cfg)


class TestPairwiseHeuristic:
    def test_single_port_class(self):
        # Three imuls all on port 1: bound 3.
        ops = ops_for("imul rax, rbx\nimul rcx, rdx\nimul rsi, rdi")
        result = ports_bound(ops)
        assert result.bound == 3
        assert result.critical_combination == frozenset({1})

    def test_union_of_pairs_found(self):
        # Loads on {2,3} and stores' AGU on {2,3,7} + STD {4}: the union
        # {2,3,7} confines loads and STAs together.
        ops = ops_for("mov rax, qword ptr [rsi]\n"
                      "mov rbx, qword ptr [rsi+8]\n"
                      "mov qword ptr [rdi], rcx")
        result = ports_bound(ops)
        assert result.bound == Fraction(3, 3)

    def test_eliminated_uops_excluded(self):
        ops = ops_for("mov rax, rbx\nmov rcx, rdx")
        assert ports_bound(ops).bound == 0

    def test_nops_excluded(self):
        ops = ops_for("nop\nnop\nnop")
        assert ports_bound(ops).bound == 0

    def test_macro_fused_branch_counts_once(self):
        ops = ops_for("cmp rax, rbx\njne -7")
        assert ports_bound(ops).bound == Fraction(1, 2)  # one µop on {0,6}

    def test_critical_instruction_report(self):
        ops = ops_for("imul rax, rbx\nadd rcx, rdx\nimul rsi, rdi")
        result = ports_bound(ops)
        critical = critical_instructions(ops, result)
        assert 0 in critical and 2 in critical
        assert 1 not in critical


class TestLpEquivalence:
    """§4.8 claims the pairwise heuristic equals the LP bound on BHive;
    we check it on generated suites and hand-made blocks."""

    @pytest.mark.parametrize("asm", [
        "imul rax, rbx\nadd rcx, rdx",
        "mov rax, qword ptr [rsi]\nmov qword ptr [rdi], rbx",
        "addps xmm1, xmm2\nmulps xmm3, xmm4\npaddd xmm5, xmm6",
        "shl rax, 2\nshl rbx, 3\nadd rcx, rdx\nadd rsi, rdi",
        "div rcx\nimul rax, rbx\nmov rdx, qword ptr [rsi]",
    ])
    def test_heuristic_matches_lp(self, asm):
        ops = ops_for(asm)
        assert ports_bound(ops).bound == ports_bound_lp(ops)

    def test_heuristic_never_exceeds_lp_on_suite(self):
        from repro.bhive import default_suite
        for bench in default_suite(40):
            ops = ops_for(bench.block_u.text())
            heuristic = ports_bound(ops).bound
            lp = ports_bound_lp(ops)
            assert heuristic <= lp
            assert heuristic == lp  # observed equality, as in the paper

    def test_empty_block_of_eliminated_uops(self):
        ops = ops_for("mov rax, rbx")
        assert ports_bound_lp(ops) == 0


def brute_force_pair_unions(counts):
    """The §4.8 heuristic spelled out on ``Fraction`` values: every pair
    union, smallest first then lexicographic, the first strictly larger
    ratio winning."""
    unions = sorted({a | b for a in counts for b in counts},
                    key=lambda pc: (len(pc), sorted(pc)))
    best, best_combo, best_uops = Fraction(0), None, 0
    for pc in unions:
        u = sum(cnt for ports, cnt in counts.items() if ports <= pc)
        if Fraction(u, len(pc)) > best:
            best, best_combo, best_uops = Fraction(u, len(pc)), pc, u
    return best, best_combo, best_uops


class TestIntegerSearch:
    """The integer pair-union search returns what the ``Fraction``
    search does: the bound, the critical combination and its µop count,
    ties included."""

    def random_multiset(self, rng):
        ports = range(rng.choice((2, 3, 4, 8)))
        counts = Counter()
        for _ in range(rng.randint(1, 6)):
            size = rng.randint(1, len(ports))
            counts[frozenset(rng.sample(ports, size))] += rng.randint(1, 4)
        return counts

    def test_matches_fraction_oracle(self):
        rng = random.Random(4242)
        ties = 0
        for _ in range(2000):
            counts = self.random_multiset(rng)
            clear_ports_memo()
            result = ports_bound_counts(counts)
            want = brute_force_pair_unions(counts)
            assert (result.bound, result.critical_combination,
                    result.critical_uops) == want, counts
            unions = {a | b for a in counts for b in counts}
            ratios = [Fraction(sum(c for p, c in counts.items()
                                   if p <= pc), len(pc)) for pc in unions]
            ties += ratios.count(max(ratios)) > 1
        assert ties > 100  # equal-ratio ties were exercised

    def test_tie_keeps_the_first_in_order(self):
        # {0} and {1} both reach 2 µops per port; {0} comes first.
        counts = Counter({frozenset({0}): 2, frozenset({1}): 2})
        clear_ports_memo()
        result = ports_bound_counts(counts)
        assert result.critical_combination == frozenset({0})
        assert (result.bound, result.critical_uops) == (2, 2)


class TestMemoBound:
    """The process-wide heuristic memo keeps at most ``_PORTS_MEMO_MAX``
    entries, evicting the oldest, and an evicted multiset is simply
    computed again."""

    BOUND = 8

    def multisets(self, n):
        """*n* distinct port multisets (the count of one class differs)."""
        return [Counter({frozenset({0}): k, frozenset({0, 1}): 1})
                for k in range(1, n + 1)]

    def test_memo_stays_within_its_bound(self, monkeypatch):
        monkeypatch.setattr(ports_module, "_PORTS_MEMO_MAX", self.BOUND)
        clear_ports_memo()
        multisets = self.multisets(5 * self.BOUND)
        try:
            # Twice over: the second pass meets evicted and kept keys.
            for counts in multisets + multisets[::-1]:
                result = ports_bound_counts(counts)
                assert len(ports_module._PORTS_MEMO) <= self.BOUND
                assert (result.bound, result.critical_combination,
                        result.critical_uops) == \
                    brute_force_pair_unions(counts)
        finally:
            clear_ports_memo()

    def test_concurrent_evictions(self, monkeypatch):
        # A tiny bound makes nearly every call evict, on more threads
        # than cores, switching as often as the interpreter allows.
        monkeypatch.setattr(ports_module, "_PORTS_MEMO_MAX", 2)
        clear_ports_memo()
        multisets = self.multisets(64)
        want = [brute_force_pair_unions(counts) for counts in multisets]
        failures = []

        def run(offset):
            for i in range(3000):
                j = (offset + 7 * i) % len(multisets)
                try:
                    result = ports_bound_counts(multisets[j])
                except Exception as exc:  # noqa: BLE001 - reported below
                    failures.append((j, repr(exc)))
                    continue
                got = (result.bound, result.critical_combination,
                       result.critical_uops)
                if got != want[j]:
                    failures.append((j, got))
                if len(ports_module._PORTS_MEMO) > 2:
                    failures.append((j, "memo over its bound"))

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
            clear_ports_memo()
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
