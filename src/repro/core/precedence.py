"""The precedence-constraint bound (paper §4.9).

Builds the weighted dependence graph of the block and computes the
maximum cycle ratio — the recurrence-constrained minimum initiation
interval, in modulo-scheduling terms — with Howard's algorithm.

:func:`precedence_bound` is the reference: it builds a
:class:`~repro.graph.core.RatioGraph` and solves it on ``Fraction``
values.  The columnar core computes the same result from one
:class:`DepTemplate` per instruction with
:func:`compiled_precedence_bound`, which lays the graph out on integer
node ids in the reference's insertion order and solves it with the
integer kernel (:func:`repro.graph.howard_int.howard_max_cycle_ratio_int`),
so the bound and the critical chain are identical.  A template is
lowered in two steps (:func:`lower_dependences`): the µarch-independent
:func:`dataflow` of the instruction's form, taken once per process, and
:func:`apply_latencies`, one µarch's cycles on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, NamedTuple, Sequence, Tuple

from repro.graph.depgraph import DependenceGraphBuilder
from repro.graph.howard import howard_max_cycle_ratio
from repro.graph.howard_int import IntEdge, howard_max_cycle_ratio_int
from repro.graph.lawler import lawler_max_cycle_ratio
from repro.isa.block import BasicBlock
from repro.isa.instruction import Instruction
from repro.uops.database import UopsDatabase, dependence_pairs, \
    edge_latencies
from repro.uops.info import InstrInfo


@dataclass(frozen=True)
class PrecedenceResult:
    """The bound plus the critical dependency chain.

    Attributes:
        bound: maximum cycle ratio (0 when the graph is acyclic).
        critical_chain: instruction indices on a critical cycle, for
            interpretable feedback when Precedence is the bottleneck.
    """

    bound: Fraction
    critical_chain: List[int]


def precedence_bound(block: BasicBlock,
                     db: UopsDatabase) -> PrecedenceResult:
    """The Precedence throughput bound of *block*."""
    builder = DependenceGraphBuilder(db)
    graph = builder.build(block)
    ratio, cycle = howard_max_cycle_ratio(graph)
    if ratio is None:
        return PrecedenceResult(Fraction(0), [])
    return PrecedenceResult(ratio, builder.cycle_instructions(cycle))


def precedence_bound_lawler(block: BasicBlock,
                            db: UopsDatabase) -> Fraction:
    """Reference implementation using Lawler's algorithm (ablation)."""
    graph = DependenceGraphBuilder(db).build(block)
    ratio = lawler_max_cycle_ratio(graph)
    return ratio if ratio is not None else Fraction(0)


class DepTemplate(NamedTuple):
    """What :meth:`DependenceGraphBuilder.build` reads of one instruction.

    Attributes:
        written: root registers written, in first-appearance order.
        consumed: root registers consumed (the sources of the latency
            edges), in first-appearance order.
        edges: the latency edges of :meth:`UopsDatabase.dep_latencies`,
            in its order, as ``(consumed slot, written slot, latency)``
            with slots indexing *consumed* and *written*.
    """

    written: Tuple[str, ...]
    consumed: Tuple[str, ...]
    edges: Tuple[Tuple[int, int, int], ...]


class Dataflow(NamedTuple):
    """The µarch-independent part of a :class:`DepTemplate`: its roots,
    and edges ``(consumed slot, written slot, address source)`` that
    :func:`apply_latencies` turns into latency edges."""

    written: Tuple[str, ...]
    consumed: Tuple[str, ...]
    edges: Tuple[Tuple[int, int, bool], ...]


def dataflow(instr: Instruction) -> Dataflow:
    """The dataflow of *instr*: a pure function of its form, so one
    serves every instruction sharing the form, on every µarch."""
    written_regs = instr.regs_written()
    written: Dict[str, int] = {}  # root -> slot, in first-appearance order
    for reg in written_regs:
        written.setdefault(reg.name, len(written))
    consumed: Dict[str, int] = {}
    edges = []
    for src, dst, address in dependence_pairs(instr, written_regs):
        edges.append((consumed.setdefault(src.name, len(consumed)),
                      written[dst.name], address))
    return Dataflow(written=tuple(written), consumed=tuple(consumed),
                    edges=tuple(edges))


def apply_latencies(flow: Dataflow, info: InstrInfo) -> DepTemplate:
    """The dependence template of an instruction with dataflow *flow*
    and characterization *info* (one µarch's latencies)."""
    base, through_address = edge_latencies(info)
    return DepTemplate(
        written=flow.written, consumed=flow.consumed,
        edges=tuple((consumed, written, through_address if address
                     else base)
                    for consumed, written, address in flow.edges))


def lower_dependences(instr: Instruction, db: UopsDatabase) -> DepTemplate:
    """The dependence template of *instr* on *db*'s µarch.

    A pure function of the instruction's form and displacement-is-zero
    flag (the only inputs of ``dep_latencies`` besides registers), so one
    template serves every instruction sharing them.
    """
    return apply_latencies(dataflow(instr), db.info(instr))


def compiled_precedence_bound(
        templates: Sequence[DepTemplate]) -> PrecedenceResult:
    """:func:`precedence_bound` of the block whose instructions lower to
    *templates*.

    Node ids are handed out in the order ``DependenceGraphBuilder.build``
    inserts its nodes — ``("p", i, root)`` for instruction *i* producing
    *root*, ``("c", i, root)`` for it consuming *root* — and each node's
    out-edges are appended in the builder's order, so the integer kernel
    walks the graph exactly as the reference does.
    """
    # Every (instruction, written root) pair gets a producer slot in one
    # flat table, in block order; a writer is its slot number.
    final_writer: Dict[str, int] = {}
    producer_of: List[int] = []  # slot -> instruction index
    for idx, (written, _consumed, _edges) in enumerate(templates):
        for root in written:
            final_writer[root] = len(producer_of)
            producer_of.append(idx)
    produced = [-1] * len(producer_of)  # slot -> its ("p", i, root) id

    succ: List[List[IntEdge]] = []
    owner: List[int] = []  # node id -> instruction index
    current_writer: Dict[str, int] = {}
    first = 0  # the current instruction's first producer slot
    for idx, (written, consumed_roots, edges) in enumerate(templates):
        consumed = [-1] * len(consumed_roots)  # its ("c", idx, root) ids
        for slot, root in enumerate(consumed_roots):
            writer = current_writer.get(root)
            count = 0
            if writer is None:
                writer = final_writer.get(root)
                if writer is None:
                    continue  # live-in: produced outside the block
                count = 1
            src = produced[writer]
            if src < 0:
                src = produced[writer] = len(succ)
                succ.append([])
                owner.append(producer_of[writer])
            # Consumed roots are distinct, so this consumer is new.
            dst = consumed[slot] = len(succ)
            succ.append([])
            owner.append(idx)
            succ[src].append((dst, 0, count))
        for consumed_slot, written_slot, latency in edges:
            src = consumed[consumed_slot]
            if src < 0:
                src = consumed[consumed_slot] = len(succ)
                succ.append([])
                owner.append(idx)
            dst = produced[first + written_slot]
            if dst < 0:
                dst = produced[first + written_slot] = len(succ)
                succ.append([])
                owner.append(idx)
            succ[src].append((dst, latency, 0))
        for root in written:
            current_writer[root] = first
            first += 1

    ratio, cycle = howard_max_cycle_ratio_int(succ)
    if ratio is None:
        return PrecedenceResult(Fraction(0), [])
    return PrecedenceResult(
        ratio, sorted({owner[u] for edge in cycle for u in edge[:2]}))
