"""Howard's policy iteration on integer node ids, in exact integers.

The compiled twin of :func:`repro.graph.howard.howard_max_cycle_ratio`,
used by the columnar core's Precedence bound.  The graph is a list of
out-edge lists indexed by node id, ``succ[u] = [(dst, weight, count),
...]``, with ids numbered in the order the reference graph inserts its
nodes.  Every step then runs in the reference's order: Tarjan visits
roots by id and edges in list order, each cyclic component starts from
its first out-edge in the component, and evaluation and improvement
sweep the component's nodes in the order Tarjan popped them, with the
same strict tie-breaks.  So the ratio and the critical cycle are exactly
those of the reference on the same graph.

The arithmetic is integer throughout.  A gain is a reduced
``(numerator, denominator)`` pair with a positive denominator, and gains
compare by cross-multiplication.  Every node of one policy component
shares its cycle's gain, so a bias is kept as an integer numerator over
its own gain's denominator; two equal gains have equal denominators,
which makes their biases comparable as integers.  One ``Fraction`` is
built at the end.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import List, Optional, Sequence, Tuple

from repro.graph.howard import ZeroIterationCycle

#: An out-edge: (dst node id, weight, iteration count).
IntEdge = Tuple[int, int, int]
#: A critical-cycle edge: (src, dst, weight, count).
CycleEdge = Tuple[int, int, int, int]


def strongly_connected_components(
        succ: Sequence[Sequence[IntEdge]]) -> List[List[int]]:
    """Tarjan's algorithm, iterative, in the visit order of
    :meth:`repro.graph.core.RatioGraph.strongly_connected_components`:
    roots by id, out-edges in list order, members in pop order."""
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: List[int] = []
    components: List[List[int]] = []
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(succ[root]))]
        while work:
            node, edges = work[-1]
            for dst, _weight, _count in edges:
                if index[dst] < 0:
                    index[dst] = low[dst] = counter
                    counter += 1
                    stack.append(dst)
                    on_stack[dst] = True
                    work.append((dst, iter(succ[dst])))
                    break
                if on_stack[dst] and index[dst] < low[node]:
                    low[node] = index[dst]
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    if low[node] < low[parent]:
                        low[parent] = low[node]
                if low[node] == index[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack[member] = False
                        component.append(member)
                        if member == node:
                            break
                    components.append(component)
    return components


def _reduced_ratio(weight: int, count: int) -> Tuple[int, int]:
    """``weight / count`` of a policy cycle as a reduced pair."""
    if count == 0:
        raise ZeroIterationCycle(
            "policy cycle with zero iteration count; the dependence "
            "graph must not contain intra-iteration cycles")
    g = gcd(weight, count)
    return weight // g, count // g


class _Policy:
    """Policy-iteration state of one graph, reused by its components.

    ``out[u]`` holds *u*'s out-edges within its component and
    ``policy[u]`` the position of the chosen one; ``gain_num[u] /
    gain_den[u]`` is *u*'s gain and ``bias[u] / gain_den[u]`` its bias.
    """

    def __init__(self, out: List[List[IntEdge]]):
        n = len(out)
        self.out = out
        self.policy = [0] * n
        self.gain_num = [0] * n
        self.gain_den = [1] * n
        self.bias = [0] * n
        self.color = [0] * n  # 0 unseen, 1 on the current path, 2 done

    def evaluate(self, nodes: List[int]) -> List[int]:
        """Gains and biases under the current policy; returns the nodes
        of the first policy cycle of highest ratio."""
        out, policy = self.out, self.policy
        gain_num, gain_den, bias, color = (self.gain_num, self.gain_den,
                                           self.bias, self.color)
        for u in nodes:
            color[u] = 0
        best_num = best_den = 0
        critical: List[int] = []
        for start in nodes:
            if color[start]:
                continue
            path = []
            node = start
            while not color[node]:
                color[node] = 1
                path.append(node)
                node = out[node][policy[node]][0]
            tail = path
            if color[node] == 1:  # a new cycle; `node` is on it
                first = path.index(node)
                cycle = path[first:]
                tail = path[:first]
                weight = count = 0
                for u in cycle:
                    _dst, w, c = out[u][policy[u]]
                    weight += w
                    count += c
                num, den = _reduced_ratio(weight, count)
                gain_num[node] = num
                gain_den[node] = den
                bias[node] = 0
                for u in reversed(cycle[1:]):
                    dst, w, c = out[u][policy[u]]
                    gain_num[u] = num
                    gain_den[u] = den
                    bias[u] = w * den - num * c + bias[dst]
                if not critical or num * best_den > best_num * den:
                    best_num, best_den, critical = num, den, cycle
            for u in reversed(tail):
                dst, w, c = out[u][policy[u]]
                num = gain_num[u] = gain_num[dst]
                den = gain_den[u] = gain_den[dst]
                bias[u] = w * den - num * c + bias[dst]
            for u in path:
                color[u] = 2
        return critical

    def improve(self, nodes: List[int]) -> bool:
        """One improvement sweep; True when the policy changed."""
        out, policy = self.out, self.policy
        gain_num, gain_den, bias = self.gain_num, self.gain_den, self.bias
        changed = False
        for u in nodes:
            best_num, best_den, best_bias = gain_num[u], gain_den[u], bias[u]
            best = -1
            for position, (dst, w, c) in enumerate(out[u]):
                num, den = gain_num[dst], gain_den[dst]
                lhs, rhs = num * best_den, best_num * den
                if lhs < rhs:
                    continue
                b = w * den - num * c + bias[dst]
                # Equal reduced gains share a denominator, so the bias
                # numerators compare directly.
                if lhs > rhs or b > best_bias:
                    best_num, best_den, best_bias, best = num, den, b, position
            if best >= 0 and best != policy[u]:
                policy[u] = best
                changed = True
        return changed

    def solve(self, nodes: List[int]) -> Tuple[int, int, List[CycleEdge]]:
        """The component's maximum gain and its critical cycle."""
        while True:
            critical = self.evaluate(nodes)
            if not self.improve(nodes):
                break
        gain_num, gain_den = self.gain_num, self.gain_den
        best_num, best_den = gain_num[nodes[0]], gain_den[nodes[0]]
        for u in nodes:
            if gain_num[u] * best_den > best_num * gain_den[u]:
                best_num, best_den = gain_num[u], gain_den[u]
        out, policy = self.out, self.policy
        cycle = [(u,) + out[u][policy[u]] for u in critical]
        return best_num, best_den, cycle


def howard_max_cycle_ratio_int(
        succ: Sequence[Sequence[IntEdge]],
) -> Tuple[Optional[Fraction], List[CycleEdge]]:
    """Maximum cycle ratio of the integer graph *succ*.

    Returns:
        (ratio, critical_cycle_edges) exactly as
        :func:`~repro.graph.howard.howard_max_cycle_ratio` returns them
        for the same graph, with edges as ``(src, dst, weight, count)``;
        (None, []) for acyclic graphs.
    """
    best_num = best_den = 0
    best_cycle: List[CycleEdge] = []
    member_of: List[int] = []
    state: Optional[_Policy] = None
    for label, component in enumerate(strongly_connected_components(succ)):
        if len(component) == 1:
            node = component[0]
            for dst, _weight, _count in succ[node]:
                if dst == node:
                    break
            else:
                continue  # acyclic singleton
        if state is None:
            state = _Policy([[]] * len(succ))
            member_of = [-1] * len(succ)
        for u in component:
            member_of[u] = label
        for u in component:
            state.out[u] = [edge for edge in succ[u]
                            if member_of[edge[0]] == label]
        num, den, cycle = state.solve(component)
        if not best_cycle or num * best_den > best_num * den:
            best_num, best_den, best_cycle = num, den, cycle
    if not best_cycle:
        return None, []
    return Fraction(best_num, best_den), best_cycle
