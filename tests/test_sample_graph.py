"""Tests for the SampleGraph adjacency + O(1) random-eviction structure."""
import random

import pytest

from repro.core.counting import count_butterflies_with_sample
from repro.core.encoding import enc_right, is_left
from repro.core.random_pairing import RandomPairing
from repro.core.sample_graph import DENSE_MEAN_DEGREE, SampleGraph, canon
from repro.streamgen.graphs import zipf_bipartite
from repro.streamgen.stream import fully_dynamic_stream


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


def test_remove_keeps_other_neighbors():
    g = SampleGraph()
    g.add(*e(1, 1))
    g.add(*e(1, 2))
    g.remove(*e(1, 1))
    assert g.adj == {1: {enc_right(2)}, enc_right(2): {1}}


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


def assert_masks_exact(g):
    """Each sampled vertex has one bit, unique on its side; bits handed
    out on a side are exactly the live ones plus the freed ones; each
    mask is the OR of the neighbors' bits."""
    masks, bits = g.adj.masks, g._bit
    assert masks is g._masks
    assert set(masks) == set(bits) == set(g.adj)
    for side, left in enumerate((True, False)):
        live = [b for x, b in bits.items() if is_left(x) == left]
        free = g._free[side]
        assert len(set(live) | set(free)) == len(live) + len(free)
        assert set(live) | set(free) == {1 << i for i in range(g._top[side])}
    for x, nbrs in g.adj.items():
        expected = 0
        for w in nbrs:
            expected |= bits[w]
        assert masks[x] == expected, x


def test_masks_start_at_dense_mean_degree():
    """Masks appear with the edge that lifts 2|S|/|V_S| to the threshold."""
    assert DENSE_MEAN_DEGREE == 4
    g = SampleGraph()
    for i in range(3):
        for j in range(3):
            g.add(*e(i, j))  # K_{3,3}: mean degree 3
    assert g._masks is None
    g.add(*e(3, 0))
    g.add(*e(3, 1))
    g.add(*e(3, 2))  # 12 edges on 7 vertices: mean degree < 4
    assert g._masks is None
    for j in range(3, 5):
        g.add(*e(0, j))  # new vertices never raise the mean to 4
        assert g._masks is None
    for i in (1, 2, 3):
        g.add(*e(i, 3))
    assert g._masks is None  # 17 edges on 9 vertices
    g.add(*e(1, 4))  # 18 edges on 9 vertices: mean degree 4
    assert g._masks is not None
    assert_masks_exact(g)


@pytest.mark.parametrize("seed", range(8))
def test_masks_exact_across_switch_drain_and_bit_reuse(seed):
    """Random adds and removes: fill past the switch, drain until vertices
    leave, then churn. Masks are kept once on, and after every op they
    and the bits match the adjacency."""
    rng = random.Random(seed)
    g = SampleGraph()
    pool = [e(u, r) for u in range(7) for r in range(6)]
    ref = set()
    switched = False
    left = assigned = 0  # vertices that left / got a bit since the switch
    for step in range(700):
        p_add = 0.9 if step < 150 else 0.15 if step < 300 else 0.5
        absent = [ed for ed in pool if ed not in ref]
        before = set(g.adj)
        if absent and (not ref or rng.random() < p_add):
            ed = rng.choice(absent)
            g.add(*ed)
            ref.add(ed)
        else:
            ed = rng.choice(sorted(ref))
            g.remove(*ed)
            ref.discard(ed)
        assert len(g) == len(ref)
        if switched:
            assert g._masks is not None  # kept once on
            left += len(before - set(g.adj))
            assigned += len(set(g.adj) - before)
        elif g._masks is not None:
            switched = True
            assigned = len(g.adj)
        if switched:
            assert_masks_exact(g)
    assert switched
    assert left > 0
    assert assigned > sum(g._top)  # some bits were handed out twice


def assert_same_sample(g, h):
    """Same edges and neighbor sets; each one's masks, if kept, exact."""
    assert sorted(g.edges()) == sorted(h.edges())
    assert dict(g.adj) == dict(h.adj)
    for x in (g, h):
        if x._masks is None:
            assert not hasattr(x.adj, "masks")
        else:
            assert_masks_exact(x)


@pytest.mark.parametrize(
    "n_side, n_edges, k, thirds, built_dense, ends_dense",
    [
        (18, 250, 150, 2, True, True),
        (120, 300, 200, 2, False, False),
        (18, 250, 60, 2, False, False),
        (18, 250, 70, 1, None, True),  # seeds 0, 2, 3 switch in the replay
    ],
    ids=["dense", "sparse", "near-switch", "switch-in-replay"],
)
@pytest.mark.parametrize("seed", range(4))
def test_from_edges_equals_per_edge_build(
    n_side, n_edges, k, thirds, built_dense, ends_dense, seed
):
    """A Random Pairing sample after ``thirds``/3 of a stream, built in
    bulk and edge by edge: same edges and neighbors, exact masks after the
    build and after each sample op of the rest of the stream, and the same
    counts for every held-out element."""
    stream = fully_dynamic_stream(
        zipf_bipartite(n_side, n_side, n_edges, 0.8, 0.8, seed=seed), 0.25, seed=seed
    )
    rp = RandomPairing(k, seed=seed)
    cut = thirds * len(stream) // 3
    for u, v, sign in stream[:cut]:
        rp.insert(u, v) if sign > 0 else rp.delete(u, v)
    edges = rp.sample.edges()
    bulk = SampleGraph.from_edges(edges)
    per = SampleGraph()
    for u, v in edges:
        per.add(u, v)
    assert (bulk._masks is not None) == (
        2 * len(edges) >= DENSE_MEAN_DEGREE * len(bulk.adj)
    )
    if built_dense is not None:
        assert (bulk._masks is not None) == built_dense
    assert bulk.edges() == edges
    assert_same_sample(bulk, per)
    for u, v, sign in stream[cut:]:
        expected = count_butterflies_with_sample(rp.sample.adj, u, v)
        assert count_butterflies_with_sample(bulk.adj, u, v) == expected
        assert count_butterflies_with_sample(per.adj, u, v) == expected
        ops = rp.insert(u, v) if sign > 0 else rp.delete(u, v)
        for kind, a, b in ops:
            for g in (bulk, per):
                (g.add if kind == "a" else g.remove)(a, b)
        assert_same_sample(bulk, per)
    assert (bulk._masks is not None) == ends_dense


def test_from_edges_empty_and_duplicate():
    g = SampleGraph.from_edges([])
    assert len(g) == 0 and g.adj == {} and g._masks is None
    with pytest.raises(ValueError):
        SampleGraph.from_edges([e(1, 1), e(2, 1), e(1, 1)])


def test_from_edges_keeps_masks_at_dense_mean_degree():
    """Masks iff the final 2|S|/|V_S| reaches the threshold: 18 edges on
    9 vertices have them, the same less one edge do not."""
    edges = [e(i, j) for i in range(3) for j in range(3)]
    edges += [e(3, 0), e(3, 1), e(3, 2), e(0, 3), e(0, 4)]
    edges += [e(1, 3), e(2, 3), e(3, 3), e(1, 4)]
    g = SampleGraph.from_edges(edges)
    assert len(g) == 18 and len(g.adj) == 9
    assert_masks_exact(g)
    assert SampleGraph.from_edges(edges[:-1])._masks is None
