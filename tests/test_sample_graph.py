"""Tests for the SampleGraph adjacency + O(1) random-eviction structure."""
import random

import pytest

from repro.core.encoding import enc_right
from repro.core.sample_graph import SampleGraph, canon


def e(u, r):
    """Edge helper: left id u, raw right id r."""
    return (u, enc_right(r))


def test_empty():
    g = SampleGraph()
    assert len(g) == 0
    assert e(1, 1) not in g
    assert g.neighbors(1) == frozenset()


def test_add_contains_remove():
    g = SampleGraph()
    g.add(*e(1, 2))
    assert len(g) == 1
    assert e(1, 2) in g
    g.remove(*e(1, 2))
    assert len(g) == 0
    assert e(1, 2) not in g


def test_add_reversed_order_is_same_edge():
    g = SampleGraph()
    u, v = e(3, 4)
    g.add(v, u)
    assert (u, v) in g
    assert (v, u) in g
    g.remove(u, v)
    assert len(g) == 0


def test_canon_orders_left_first():
    u, v = e(5, 6)
    assert canon(u, v) == (u, v)
    assert canon(v, u) == (u, v)


def test_duplicate_add_raises():
    g = SampleGraph()
    g.add(*e(1, 1))
    with pytest.raises(ValueError):
        g.add(*e(1, 1))


def test_remove_absent_raises():
    g = SampleGraph()
    with pytest.raises(KeyError):
        g.remove(*e(1, 1))


def test_neighbors_and_degree():
    g = SampleGraph()
    g.add(*e(1, 10))
    g.add(*e(1, 11))
    g.add(*e(2, 10))
    assert g.neighbors(1) == {enc_right(10), enc_right(11)}
    assert g.neighbors(enc_right(10)) == {1, 2}


def test_isolated_vertices_dropped():
    g = SampleGraph()
    g.add(*e(1, 10))
    g.remove(*e(1, 10))
    assert 1 not in g.adj
    assert enc_right(10) not in g.adj


def test_edges_snapshot():
    g = SampleGraph()
    edges = [e(i, i % 3) for i in range(5)]
    for ed in edges:
        g.add(*ed)
    assert sorted(g.edges()) == sorted(edges)


@pytest.mark.parametrize("seed", range(5))
def test_random_edge_uniform(seed):
    """Every edge is reachable by random_edge with roughly equal frequency."""
    g = SampleGraph()
    edges = [e(i, j) for i in range(4) for j in range(3)]
    for ed in edges:
        g.add(*ed)
    rng = random.Random(seed)
    counts = {ed: 0 for ed in edges}
    trials = 6000
    for _ in range(trials):
        counts[g.random_edge(rng)] += 1
    expected = trials / len(edges)
    for ed, c in counts.items():
        assert abs(c - expected) < 6 * expected**0.5, (ed, c, expected)


@pytest.mark.parametrize("seed", range(8))
def test_random_mutation_sequence_consistency(seed):
    """Model-based: SampleGraph matches a reference set+adjacency model."""
    rng = random.Random(seed)
    g = SampleGraph()
    ref = set()
    for _ in range(400):
        u, r = rng.randrange(6), rng.randrange(5)
        ed = e(u, r)
        if ed in ref:
            g.remove(*ed)
            ref.discard(ed)
        else:
            g.add(*ed)
            ref.add(ed)
        assert len(g) == len(ref)
    assert sorted(g.edges()) == sorted(ref)
    for u, v in ref:
        assert v in g.neighbors(u) and u in g.neighbors(v)


def test_swap_pop_preserves_membership_after_removals():
    g = SampleGraph()
    edges = [e(i, j) for i in range(3) for j in range(3)]
    for ed in edges:
        g.add(*ed)
    g.remove(*edges[0])
    g.remove(*edges[4])
    remaining = [ed for i, ed in enumerate(edges) if i not in (0, 4)]
    for ed in remaining:
        assert ed in g
    assert sorted(g.edges()) == sorted(remaining)
