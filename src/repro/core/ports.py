"""The execution-port contention bound (paper §4.8).

Assuming the renamer distributes µops optimally across their allowed
ports, the throughput is bounded, for every port combination *pc*, by
``u/|pc|`` where *u* is the number of µops that can only execute on ports
within *pc*.  Rather than considering every one of the exponentially many
port combinations, the paper's heuristic only considers combinations
arising as the union of the port sets of *pairs* of µops — which it found
to give the same bound as the exact LP of uops.info on all of BHive.

Both the pairwise heuristic and the exact LP (used by the ablation bench
``benchmarks/test_ablation_ports_lp.py``) are implemented here.  The
heuristic's entry points project macro-ops onto :data:`PortOp` tuples;
its kernels (:func:`ports_bound_counts`, :func:`critical_port_ops`) are
shared with the columnar core, which builds the tuples from per-form
rows.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from repro.uops.blockinfo import MacroOp

PortSet = FrozenSet[int]


@dataclass(frozen=True)
class PortsResult:
    """The bound plus the data needed for interpretable feedback.

    Attributes:
        bound: the Ports throughput bound (cycles/iteration).
        critical_combination: the port combination attaining the bound.
        critical_uops: number of µops confined to that combination.
    """

    bound: Fraction
    critical_combination: Optional[PortSet]
    critical_uops: int


#: One macro-op as the Ports component reads it: (index of its first
#: instruction, the port set of each of its dispatched µops).
PortOp = Tuple[int, Tuple[PortSet, ...]]


def port_ops(ops: Sequence[MacroOp]) -> Tuple[PortOp, ...]:
    """The :data:`PortOp` of every macro-op (the projection of
    :func:`ports_bound` and :func:`critical_instructions`)."""
    return tuple((op.first_index, op.info.port_sets) for op in ops)


def port_multiset(ops: Sequence[PortOp]) -> Dict[PortSet, int]:
    """Count dispatched µops by port set.

    Eliminated µops and NOPs have no port sets and are excluded, as are
    macro-fused branches' flag-producer halves (already merged into one
    µop by the macro-op construction) — matching §4.8's exclusions.
    """
    counts: Dict[PortSet, int] = {}
    for _, port_sets in ops:
        for ports in port_sets:
            counts[ports] = counts.get(ports, 0) + 1
    return counts


#: Global memo of the pairwise heuristic, keyed by the canonical port
#: multiset (the bound is a pure function of it).  The same multiset
#: recurs across blocks, predictors, and µarchs with equal port maps, so
#: this deduplicates the quadratic pair-union search engine-wide.
_PORTS_MEMO: Dict[Tuple[Tuple[Tuple[int, ...], int], ...], PortsResult] = {}
#: Most entries :data:`_PORTS_MEMO` holds (a columnar core's default
#: ``max_entries``); past it, the oldest insertion goes first.
_PORTS_MEMO_MAX = 65536
#: Serializes the memo's insertions, evictions and clears; lookups take
#: no lock (a dict read is atomic).
_PORTS_MEMO_LOCK = threading.Lock()


@functools.lru_cache(maxsize=4096)
def _sorted_ports(ports: PortSet) -> Tuple[int, ...]:
    """*ports* in ascending order (the same sets recur in every
    multiset of a µarch, so they are sorted once)."""
    return tuple(sorted(ports))


def _multiset_key(counts: Mapping[PortSet, int],
                  ) -> Tuple[Tuple[Tuple[int, ...], int], ...]:
    """Canonical, hashable form of a µop port multiset."""
    return tuple(sorted((_sorted_ports(ports), cnt)
                        for ports, cnt in counts.items()))


def clear_ports_memo() -> None:
    """Drop the global heuristic memo (for tests)."""
    with _PORTS_MEMO_LOCK:
        _PORTS_MEMO.clear()
    _sorted_ports.cache_clear()


def ports_bound(ops: Sequence[MacroOp]) -> PortsResult:
    """The pairwise port-combination heuristic of §4.8.

    Results are memoized on the canonical port-multiset key, and the
    pair-union candidates are visited in a deterministic order (smallest
    combination first, then lexicographically) so ties in the bound
    always report the same critical combination regardless of hash
    randomization.
    """
    return ports_bound_counts(port_multiset(port_ops(ops)))


def ports_bound_counts(counts: Mapping[PortSet, int]) -> PortsResult:
    """:func:`ports_bound` on a precomputed µop port multiset.

    The columnar core (:mod:`repro.engine.columnar`) builds the multiset
    from its per-form rows and calls this directly; both entry points
    share :data:`_PORTS_MEMO`, so warm results transfer between cores.

    Candidates are compared as ``u/|pc|`` by cross-multiplication, in
    integers; the one ``Fraction`` is built for the winner.  They come
    smallest first, and none of size *s* can beat the best once all
    the µops over *s* ports do not, so the search stops there.
    """
    if not counts:
        return PortsResult(Fraction(0), None, 0)

    key = _multiset_key(counts)
    cached = _PORTS_MEMO.get(key)
    if cached is not None:
        return cached

    classes = list(counts.items())
    pair_unions = sorted({pc | pc2 for pc, _ in classes
                          for pc2, _ in classes},
                         key=lambda pc: (len(pc), _sorted_ports(pc)))

    total = sum(counts.values())
    best_uops, best_size = 0, 1
    best_combo: Optional[PortSet] = None
    for pc in pair_unions:
        size = len(pc)
        if total * best_size <= best_uops * size:
            break
        u = 0
        for ports, cnt in classes:
            if ports <= pc:
                u += cnt
        if u * best_size > best_uops * size:
            best_uops, best_size, best_combo = u, size, pc
    result = PortsResult(Fraction(best_uops, best_size), best_combo,
                         best_uops)
    with _PORTS_MEMO_LOCK:
        while len(_PORTS_MEMO) >= _PORTS_MEMO_MAX:
            del _PORTS_MEMO[next(iter(_PORTS_MEMO))]
        _PORTS_MEMO[key] = result
    return result


def critical_port_ops(ops: Sequence[PortOp],
                      result: PortsResult) -> List[int]:
    """The kernel of :func:`critical_instructions` on port ops."""
    pc = result.critical_combination
    if pc is None:
        return []
    return [first_index for first_index, port_sets in ops
            if any(ports <= pc for ports in port_sets)]


def critical_instructions(ops: Sequence[MacroOp],
                          result: PortsResult) -> List[int]:
    """Indices of instructions whose µops experience the maximal
    contention (interpretable feedback when Ports is the bottleneck)."""
    return critical_port_ops(port_ops(ops), result)


def ports_bound_lp(ops: Sequence[MacroOp]) -> Fraction:
    """The exact LP bound of [8] (uops.info), via scipy.

    Minimize T subject to: each µop class distributes its count across its
    allowed ports, and every port receives at most T µops per iteration.
    The pairwise heuristic is a lower bound of this LP value; the paper
    reports they coincide on all BHive benchmarks.
    """
    from scipy.optimize import linprog

    counts = port_multiset(port_ops(ops))
    if not counts:
        return Fraction(0)

    classes = sorted(counts.items(), key=lambda kv: sorted(kv[0]))
    all_ports = sorted({p for ports, _ in classes for p in ports})
    port_index = {p: i for i, p in enumerate(all_ports)}

    # Variables: x[c,p] for each class c and allowed port p, then T last.
    var_index: Dict[Tuple[int, int], int] = {}
    for c, (ports, _count) in enumerate(classes):
        for p in sorted(ports):
            var_index[(c, p)] = len(var_index)
    t_index = len(var_index)
    n_vars = t_index + 1

    objective = [0.0] * n_vars
    objective[t_index] = 1.0

    # Equality: sum_p x[c,p] == count_c.
    a_eq = []
    b_eq = []
    for c, (ports, count) in enumerate(classes):
        row = [0.0] * n_vars
        for p in ports:
            row[var_index[(c, p)]] = 1.0
        a_eq.append(row)
        b_eq.append(float(count))

    # Inequality: sum_c x[c,p] - T <= 0 for each port p.
    a_ub = []
    b_ub = []
    for p in all_ports:
        row = [0.0] * n_vars
        for c, (ports, _count) in enumerate(classes):
            if p in ports:
                row[var_index[(c, p)]] = 1.0
        row[t_index] = -1.0
        a_ub.append(row)
        b_ub.append(0.0)

    res = linprog(objective, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=[(0, None)] * n_vars, method="highs")
    if not res.success:
        raise RuntimeError(f"port LP failed: {res.message}")
    # The optimum is rational with a small denominator (≤ lcm of subset
    # sizes); snap the float solution back to it.
    max_den = math.lcm(*range(1, len(all_ports) + 1))
    return Fraction(res.x[t_index]).limit_denominator(max_den)
