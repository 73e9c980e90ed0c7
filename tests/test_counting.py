"""Tests for the per-edge butterfly counting kernel (Alg. 1 lines 6-11)."""
import random

import pytest

from repro.core import abacus as abacus_mod
from repro.core.abacus import Abacus
from repro.core.counting import count_butterflies_with_sample
from repro.core.encoding import enc_right
from repro.core.sample_graph import SampleGraph
from repro.streamgen.graphs import zipf_bipartite
from repro.streamgen.stream import fully_dynamic_stream


def brute_force_per_edge(adj, u, v):
    """Butterflies {u, v, w, x} with partner edges (u,w), (x,v), (x,w) in adj.

    Direct enumeration: w over u's sampled neighbors (≠ v), x over v's
    sampled neighbors (≠ u), counting pairs with edge (x, w) present.
    """
    count = 0
    for w in adj.get(u, set()):
        if w == v:
            continue
        for x in adj.get(v, set()):
            if x == u:
                continue
            if w in adj.get(x, set()):
                count += 1
    return count


def random_sample_graph(n_left, n_right, n_edges, seed):
    rng = random.Random(seed)
    g = SampleGraph()
    seen = set()
    while len(seen) < n_edges:
        ed = (rng.randrange(n_left), enc_right(rng.randrange(n_right)))
        if ed not in seen:
            seen.add(ed)
            g.add(*ed)
    return g, rng


def test_empty_sample_counts_zero():
    assert count_butterflies_with_sample({}, 1, enc_right(1)) == (0, 0)


def test_endpoint_absent_counts_zero():
    g = SampleGraph()
    g.add(1, enc_right(1))
    assert count_butterflies_with_sample(g.adj, 2, enc_right(2)) == (0, 0)


def test_single_butterfly_closure():
    """Sample {u-w, x-v, x-w}; incoming (u, v) closes one butterfly."""
    u, x = 0, 1
    v, w = enc_right(0), enc_right(1)
    g = SampleGraph()
    g.add(u, w)
    g.add(x, v)
    g.add(x, w)
    n, comps = count_butterflies_with_sample(g.adj, u, v)
    assert n == 1
    assert comps >= 1


def test_counts_do_not_include_incoming_edge_itself():
    """Deletion case: {u, v} in the sample must not create a phantom
    'butterfly' {u, v, w, u} via u appearing in the intersection."""
    u, x = 0, 1
    v, w = enc_right(0), enc_right(1)
    g = SampleGraph()
    g.add(u, v)  # the incoming (deleted) edge is still sampled
    g.add(u, w)
    g.add(x, v)
    g.add(x, w)
    n, _ = count_butterflies_with_sample(g.adj, u, v)
    assert n == 1  # only {u, v, w, x}; nothing degenerate


def test_complete_bipartite_closure_count():
    """In K_{a,b} sample, edge (u, v) with u, v present closes
    (a-1)(b-1) butterflies."""
    a, b = 4, 5
    g = SampleGraph()
    for i in range(a):
        for j in range(b):
            if (i, j) != (0, 0):
                g.add(i, enc_right(j))
    n, _ = count_butterflies_with_sample(g.adj, 0, enc_right(0))
    assert n == (a - 1) * (b - 1)


@pytest.mark.parametrize("seed", range(20))
def test_kernel_matches_brute_force_on_random_graphs(seed):
    g, rng = random_sample_graph(8, 8, 30, seed)
    for _ in range(30):
        u, v = rng.randrange(8), enc_right(rng.randrange(8))
        n, comps = count_butterflies_with_sample(g.adj, u, v)
        assert n == brute_force_per_edge(g.adj, u, v), (u, v)
        assert comps >= 0


@pytest.mark.parametrize("seed", range(10))
def test_kernel_symmetric_in_edge_orientation(seed):
    g, rng = random_sample_graph(7, 7, 25, seed)
    for _ in range(20):
        u, v = rng.randrange(7), enc_right(rng.randrange(7))
        assert (
            count_butterflies_with_sample(g.adj, u, v)[0]
            == count_butterflies_with_sample(g.adj, v, u)[0]
        )


def test_comparisons_counts_min_set_sizes():
    """One intersection of a 2-set against a 3-set costs 2 comparisons."""
    u, x1, x2 = 0, 1, 2
    v, w = enc_right(0), enc_right(1)
    g = SampleGraph()
    # N_u = {w}; N_w = {x1, x2}; N_v = {x1, x2, 3}
    g.add(u, w)
    g.add(x1, w)
    g.add(x2, w)
    g.add(x1, v)
    g.add(x2, v)
    g.add(3, v)
    n, comps = count_butterflies_with_sample(g.adj, u, v)
    assert n == 2  # x1 and x2 both close butterflies
    # explore side: |N_u| = 1 < |N_v| = 3 -> iterate N_u
    # one intersection: min(|N_w|=3, |N_v|=3) = 3
    assert comps == 3


@pytest.mark.parametrize("seed", range(5))
def test_cheap_side_selection_does_not_change_count(seed):
    """Force both orientations by degree asymmetry; counts must agree
    with brute force regardless of which side is cheaper."""
    g, rng = random_sample_graph(4, 12, 30, seed)
    for u in range(4):
        for j in range(12):
            v = enc_right(j)
            assert (
                count_butterflies_with_sample(g.adj, u, v)[0]
                == brute_force_per_edge(g.adj, u, v)
            )


@pytest.mark.parametrize("seed", range(10))
def test_kernel_property_both_orientations_and_sampled_cases(seed):
    """Count equals brute force, and comparisons equal
    sum_{w in N_a, w != b} min(|N_w|, |N_b|) where a is the endpoint with
    the smaller sampled degree (ties: the first argument)."""
    g, rng = random_sample_graph(9, 9, 40, seed)
    adj = g.adj
    seen = set()
    for _ in range(40):
        x, y = rng.randrange(9), enc_right(rng.randrange(9))
        for u, v in ((x, y), (y, x)):
            n, comps = count_butterflies_with_sample(adj, u, v)
            assert n == brute_force_per_edge(adj, u, v), (u, v)
            nu, nv = adj.get(u, set()), adj.get(v, set())
            if not nu or not nv:
                assert comps == 0
                continue
            a, b = (u, v) if len(nu) <= len(nv) else (v, u)
            expected = sum(
                min(len(adj[w]), len(adj[b])) for w in adj[a] if w != b
            )
            assert comps == expected, (u, v)
            seen.add((x, y) in g)
    assert seen == {True, False}  # both sampled and unsampled edges hit


@pytest.mark.parametrize("seed", range(6))
def test_kernel_matches_brute_force_across_mask_switch(seed):
    """Count and comparisons equal the plain-set kernel and the count
    equals brute force, while the sample grows past the bitmask switch
    and then loses edges again."""
    rng = random.Random(seed)
    g = SampleGraph()
    pool = [(x, enc_right(y)) for x in range(8) for y in range(8)]
    rng.shuffle(pool)
    ops = [("a", ed) for ed in pool[:48]]
    ops += [("r", ed) for ed in rng.sample(pool[:48], 40)]
    seen = set()
    for kind, ed in ops:
        (g.add if kind == "a" else g.remove)(*ed)
        plain = {x: set(n) for x, n in g.adj.items()}
        for _ in range(6):
            u, v = rng.randrange(8), enc_right(rng.randrange(8))
            for a, b in ((u, v), (v, u)):
                got = count_butterflies_with_sample(g.adj, a, b)
                assert got == count_butterflies_with_sample(plain, a, b), (a, b)
                assert got[0] == brute_force_per_edge(plain, a, b), (a, b)
        seen.add(getattr(g.adj, "masks", None) is not None)
    assert seen == {False, True}


def cumulative_degree_kernel(adj, u, v):
    """Reference copy of the earlier kernel: explore the endpoint whose
    sampled neighborhood has the smaller cumulative degree (Alg. 1 line
    7), one Python-level intersection per explored neighbor."""
    nu = adj.get(u, frozenset())
    nv = adj.get(v, frozenset())
    if not nu or not nv:
        return 0, 0
    cum_u = sum(len(adj[x]) for x in nu)
    cum_v = sum(len(adj[x]) for x in nv)
    if cum_u > cum_v:
        u, v = v, u
        nu, nv = nv, nu
    count = 0
    comparisons = 0
    for w in nu:
        if w == v:
            continue
        nw = adj[w]
        comparisons += min(len(nw), len(nv))
        cn = nw & nv
        c = len(cn)
        if u in cn:
            c -= 1
        count += c
    return count, comparisons


@pytest.mark.parametrize("seed", range(3))
def test_abacus_estimate_identical_to_cumulative_degree_kernel(seed, monkeypatch):
    """The explore side and the bitmask path change no count: with a
    sample smaller than the stream, deletions included, the estimate is
    bit-identical to one computed with the cumulative-degree kernel on
    plain sets. The 40x40 graph's sample switches to bitmasks, the
    200x200 graph's does not."""
    for n_side, dense in ((40, True), (200, False)):
        edges = zipf_bipartite(n_side, n_side, 500, 0.9, 0.9, seed=seed)
        stream = fully_dynamic_stream(edges, 0.25, seed=seed)
        k = len(stream) // 3
        new = Abacus(k=k, seed=seed)
        new_est = new.process_stream(stream)
        assert (getattr(new.rp.sample.adj, "masks", None) is not None) == dense
        with monkeypatch.context() as m:
            m.setattr(
                abacus_mod, "count_butterflies_with_sample", cumulative_degree_kernel
            )
            ref = Abacus(k=k, seed=seed)
            ref_est = ref.process_stream(stream)
        assert k < len(stream)
        assert new.sample_size == ref.sample_size
        assert new_est != 0.0
        assert new_est == ref_est
