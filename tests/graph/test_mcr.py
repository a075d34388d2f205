"""Maximum-cycle-ratio algorithm tests: Howard vs Lawler vs brute force."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.graph.bruteforce import bruteforce_max_cycle_ratio
from repro.graph.core import RatioGraph
from repro.graph.howard import ZeroIterationCycle, howard_max_cycle_ratio
from repro.graph.howard_int import (
    howard_max_cycle_ratio_int,
    strongly_connected_components,
)
from repro.graph.lawler import lawler_max_cycle_ratio


def make_graph(edges):
    g = RatioGraph()
    for u, v, w, t in edges:
        g.add_edge(u, v, w, t)
    return g


def int_graph(g):
    """*g* on integer ids numbered in node insertion order, plus the
    id -> node table."""
    nodes = g.nodes
    ids = {node: i for i, node in enumerate(nodes)}
    succ = [[(ids[e.dst], e.weight, e.count) for e in g.out_edges(node)]
            for node in nodes]
    return succ, nodes


def int_howard(g):
    """The integer kernel's answer on *g*, edges mapped back to nodes."""
    succ, nodes = int_graph(g)
    ratio, cycle = howard_max_cycle_ratio_int(succ)
    return ratio, [(nodes[s], nodes[d], w, c) for s, d, w, c in cycle]


def edge_tuples(cycle):
    return [(e.src, e.dst, e.weight, e.count) for e in cycle]


class TestKnownGraphs:
    def test_single_self_loop(self):
        g = make_graph([("a", "a", 7, 2)])
        assert howard_max_cycle_ratio(g)[0] == Fraction(7, 2)

    def test_two_node_cycle(self):
        g = make_graph([("a", "b", 3, 0), ("b", "a", 2, 1)])
        assert howard_max_cycle_ratio(g)[0] == 5

    def test_max_over_two_cycles(self):
        g = make_graph([
            ("a", "b", 1, 0), ("b", "a", 1, 1),   # ratio 2
            ("c", "d", 9, 0), ("d", "c", 0, 1),   # ratio 9
        ])
        assert howard_max_cycle_ratio(g)[0] == 9

    def test_acyclic_graph_returns_none(self):
        g = make_graph([("a", "b", 5, 0), ("b", "c", 5, 1)])
        ratio, cycle = howard_max_cycle_ratio(g)
        assert ratio is None and cycle == []
        assert lawler_max_cycle_ratio(g) is None

    def test_shared_node_cycles(self):
        # Two cycles through "a": ratios 4/1 and 7/2.
        g = make_graph([
            ("a", "b", 4, 0), ("b", "a", 0, 1),
            ("a", "c", 3, 1), ("c", "a", 4, 1),
        ])
        assert howard_max_cycle_ratio(g)[0] == 4

    def test_critical_cycle_edges_form_cycle(self):
        g = make_graph([
            ("a", "b", 1, 0), ("b", "a", 1, 1),
            ("b", "c", 10, 0), ("c", "b", 2, 1),
        ])
        ratio, cycle = howard_max_cycle_ratio(g)
        assert ratio == 12
        nodes = {e.src for e in cycle} | {e.dst for e in cycle}
        assert nodes == {"b", "c"}


@st.composite
def random_graphs(draw):
    n = draw(st.integers(2, 7))
    n_edges = draw(st.integers(n, 3 * n))
    edges = []
    for _ in range(n_edges):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1))
        w = draw(st.integers(0, 12))
        # Back/self edges always carry an iteration count so no
        # zero-count cycle can form (as in real dependence graphs).
        t = draw(st.integers(0, 1)) if u < v else 1
        edges.append((u, v, w, t))
    return make_graph(edges)


class TestCrossValidation:
    @given(random_graphs())
    @settings(max_examples=200, deadline=None)
    def test_howard_equals_lawler_equals_bruteforce(self, g):
        h = howard_max_cycle_ratio(g)[0]
        l = lawler_max_cycle_ratio(g)
        b = bruteforce_max_cycle_ratio(g)
        assert h == l == b

    @given(random_graphs())
    @settings(max_examples=100, deadline=None)
    def test_critical_cycle_attains_reported_ratio(self, g):
        ratio, cycle = howard_max_cycle_ratio(g)
        if ratio is None:
            return
        weight = sum(e.weight for e in cycle)
        count = sum(e.count for e in cycle)
        assert count > 0
        assert Fraction(weight, count) == ratio


class TestIntegerHoward:
    """The integer kernel is the reference, step for step."""

    @given(random_graphs())
    @settings(max_examples=300, deadline=None)
    def test_same_ratio_and_cycle_as_reference(self, g):
        ratio, cycle = howard_max_cycle_ratio(g)
        got_ratio, got_cycle = int_howard(g)
        assert got_ratio == ratio
        assert got_cycle == edge_tuples(cycle)
        assert got_ratio == bruteforce_max_cycle_ratio(g)
        if ratio is not None:
            assert isinstance(got_ratio, Fraction)

    @given(random_graphs())
    @settings(max_examples=100, deadline=None)
    def test_same_components_in_same_order(self, g):
        succ, nodes = int_graph(g)
        assert [[nodes[u] for u in comp]
                for comp in strongly_connected_components(succ)] \
            == g.strongly_connected_components()

    def test_known_graphs(self):
        for edges, want in (
                ([("a", "a", 7, 2)], Fraction(7, 2)),
                ([("a", "b", 3, 0), ("b", "a", 2, 1)], 5),
                ([("a", "b", 4, 0), ("b", "a", 0, 1),
                  ("a", "c", 3, 1), ("c", "a", 4, 1)], 4),
                ([("a", "b", 1, 0), ("b", "a", 1, 1),
                  ("b", "c", 10, 0), ("c", "b", 2, 1)], 12)):
            g = make_graph(edges)
            assert int_howard(g) == (want, edge_tuples(
                howard_max_cycle_ratio(g)[1]))

    @pytest.mark.parametrize("connected", (True, False))
    def test_equal_ratio_cycles_keep_the_first(self, connected):
        # Two ratio-2 cycles, in one component (joined by cheap edges
        # that no policy takes) or in two: the reference reports the
        # first it meets, and so must the kernel.
        edges = [("a", "b", 2, 0), ("b", "a", 0, 1),
                 ("c", "d", 2, 0), ("d", "c", 0, 1)]
        if connected:
            edges += [("b", "c", 0, 5), ("d", "a", 0, 5)]
        g = make_graph(edges)
        ratio, cycle = howard_max_cycle_ratio(g)
        assert ratio == 2
        assert int_howard(g) == (ratio, edge_tuples(cycle))

    def test_acyclic_graph_returns_none(self):
        g = make_graph([("a", "b", 5, 0), ("b", "c", 5, 1)])
        assert int_howard(g) == (None, [])
        assert howard_max_cycle_ratio_int([]) == (None, [])

    def test_zero_iteration_cycle_raises_like_reference(self):
        g = make_graph([("a", "b", 3, 0), ("b", "a", 2, 0)])
        with pytest.raises(ZeroIterationCycle) as reference:
            howard_max_cycle_ratio(g)
        with pytest.raises(ZeroIterationCycle) as kernel:
            int_howard(g)
        assert str(kernel.value) == str(reference.value)


class TestTarjanScc:
    def test_components_partition_nodes(self):
        rng = random.Random(3)
        g = RatioGraph()
        for _ in range(40):
            g.add_edge(rng.randrange(12), rng.randrange(12), 1, 1)
        components = g.strongly_connected_components()
        seen = [n for comp in components for n in comp]
        assert sorted(seen) == sorted(g.nodes)

    def test_against_networkx(self):
        import networkx as nx
        rng = random.Random(11)
        for _ in range(20):
            g = RatioGraph()
            nxg = nx.DiGraph()
            n = rng.randint(3, 10)
            nxg.add_nodes_from(range(n))
            for node in range(n):
                g.add_node(node)
            for _ in range(2 * n):
                u, v = rng.randrange(n), rng.randrange(n)
                g.add_edge(u, v, 1, 1)
                nxg.add_edge(u, v)
            ours = {frozenset(c) for c in g.strongly_connected_components()}
            theirs = {frozenset(c)
                      for c in nx.strongly_connected_components(nxg)}
            assert ours == theirs

    def test_unbounded_ratio_detected_by_lawler(self):
        g = make_graph([("a", "b", 3, 0), ("b", "a", 2, 0)])
        with pytest.raises(ValueError):
            lawler_max_cycle_ratio(g)
