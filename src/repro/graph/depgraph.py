"""Construction of the weighted dependence graph (§4.9 of the paper).

Nodes are the values consumed and produced by each instruction instance:
``("c", i, root)`` for instruction *i* consuming architectural value
*root*, and ``("p", i, root)`` for producing it.  Latency edges connect
consumed to produced values within an instruction; 0-latency dependency
edges connect producers to consumers, carrying an iteration count of 0
(intra-iteration) or 1 (loop-carried, via the last writer in the block).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.graph.core import RatioGraph
from repro.isa.block import BasicBlock
from repro.uops.database import UopsDatabase


class DependenceGraphBuilder:
    """Builds dependence graphs for basic blocks."""

    def __init__(self, db: UopsDatabase):
        self.db = db

    def build(self, block: BasicBlock) -> RatioGraph:
        """Construct the dependence graph of *block*.

        Live-in values (read before any write in the block) have no
        producer and induce no edges, matching the steady-state semantics:
        only values produced within the loop body can carry dependences
        across iterations.
        """
        graph = RatioGraph()

        final_writer: Dict[str, int] = {}
        for idx, instr in enumerate(block):
            for reg in instr.regs_written():
                final_writer[reg.name] = idx

        current_writer: Dict[str, int] = {}
        for idx, instr in enumerate(block):
            edges = self.db.dep_latencies(instr)
            # First-appearance order: a set's order would follow string
            # hashes and make the node order (and with it the reported
            # critical cycle among equal-ratio ones) vary per process.
            consumed_roots = dict.fromkeys(src.name for src, _dst, _lat
                                           in edges)
            for root in consumed_roots:
                producer = current_writer.get(root)
                count = 0
                if producer is None:
                    producer = final_writer.get(root)
                    count = 1
                if producer is None:
                    continue  # live-in: produced outside the block
                graph.add_edge(("p", producer, root), ("c", idx, root),
                               0, count)
            for src, dst, lat in edges:
                graph.add_edge(("c", idx, src.name), ("p", idx, dst.name),
                               lat, 0)
            for reg in instr.regs_written():
                current_writer[reg.name] = idx
        return graph

    @staticmethod
    def cycle_instructions(cycle_edges) -> List[int]:
        """Instruction indices involved in a critical cycle."""
        indices = []
        for edge in cycle_edges:
            for node in (edge.src, edge.dst):
                if isinstance(node, tuple) and len(node) == 3:
                    if node[1] not in indices:
                        indices.append(node[1])
        return sorted(indices)


def build_dependence_graph(block: BasicBlock,
                           db: UopsDatabase) -> RatioGraph:
    """Convenience wrapper around :class:`DependenceGraphBuilder`."""
    return DependenceGraphBuilder(db).build(block)
