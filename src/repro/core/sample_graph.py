"""Bounded edge sample with adjacency lists and O(1) random eviction.

This is the in-memory representation of the sample ``S`` that ABACUS
maintains (the paper stores sampled edges "using the adjacency list
format", Sec. VI-A). It supports everything Random Pairing (Alg. 2) and
the per-edge counting kernel (Alg. 1) need:

- O(1) membership test and removal of a *specific* edge,
- O(1) selection+removal of a *uniformly random* edge (reservoir
  replacement, Alg. 2 line 6), via the swap-pop trick on a dense list,
- neighbor sets per vertex for the set-intersection counting,
- once the sample is dense, one neighborhood *bitmask* per vertex, so
  the kernel counts ``|N_w ∩ N_v|`` as ``popcount(mask_w & mask_v)``.

Bitmasks: every sampled vertex gets one bit, compact per side (left ids
and right ids draw from separate pools) and recycled through a free list
when the vertex leaves the sample. A vertex's mask is the OR of its
neighbors' bits; :meth:`SampleGraph.add` and :meth:`SampleGraph.remove`
keep it exact. A mask op builds a new int as wide as the sample's side,
which on a sparse sample costs more than the counting it speeds up:
keeping masks from the first edge on cut ABACUS throughput on
orkut_lite x4 (α=0.3, k=12K, final mean sampled degree 1.39) from 584K
to 394K edges/s on a 4-core host. So the sample starts with sets only,
and keeps masks from the moment its mean sampled degree ``2|S| / |V_S|``
reaches :data:`DENSE_MEAN_DEGREE` (4) on. At α=0.2, seed 0,
movielens_lite (k=24K) switches at its 3,872nd element, where the masks
made ABACUS ≈3.5x faster, and trackers_lite (k=24K) at its 24,906th;
livejournal_lite and orkut_lite never switch.

Edges are unordered pairs; we canonicalize as ``(left, right)`` using the
sign-based encoding of :mod:`repro.core.encoding`.
"""
from __future__ import annotations

import random
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.encoding import is_left

Edge = Tuple[int, int]

DENSE_MEAN_DEGREE = 4
"""Mean sampled degree from which the sample keeps neighborhood bitmasks."""


def canon(u: int, v: int) -> Edge:
    """Canonical (left, right) order for an encoded edge."""
    return (u, v) if is_left(u) else (v, u)


class Adjacency(dict):
    """A dense sample's ``vertex -> set of sampled neighbors``, which also
    holds ``masks``: vertex -> the OR of its neighbors' bits."""

    __slots__ = ("masks",)

    def __init__(self, adj: Dict[int, Set[int]], masks: Dict[int, int]) -> None:
        super().__init__(adj)
        self.masks = masks


class SampleGraph:
    """Adjacency-list edge set with O(1) random removal.

    Not bounded by itself — the sampler enforces the budget; this class
    only provides the mechanics.

    ``adj`` is a plain dict while the sample is sparse and is replaced,
    once, by an :class:`Adjacency` with the masks when it turns dense
    (a dict subclass slows every lookup, which a sparse sample's cheap
    operations would feel). Read ``adj`` from the sample; do not keep it
    across mutations.
    """

    __slots__ = ("adj", "_edges", "_pos", "_masks", "_bit", "_free", "_top")

    def __init__(self) -> None:
        self.adj: Dict[int, Set[int]] = {}
        self._edges: list[Edge] = []
        self._pos: Dict[Edge, int] = {}
        self._masks: Optional[Dict[int, int]] = None  # adj.masks once dense
        # Bit bookkeeping, used once masks are kept. Per side (index 0
        # left, 1 right): freed one-bit ints, and the next unused index.
        self._bit: Dict[int, int] = {}
        self._free: Tuple[List[int], List[int]] = ([], [])
        self._top = [0, 0]

    @classmethod
    def from_edges(cls, edges: Sequence[Edge]) -> "SampleGraph":
        """Build a sample holding a copy of ``edges``, canonical and
        distinct, in bulk.

        The result equals one :meth:`add` per edge, except that masks are
        kept if and only if the *final* mean sampled degree reaches
        :data:`DENSE_MEAN_DEGREE`, and bits may be numbered differently.
        Raises ``ValueError`` on a duplicate edge, as :meth:`add` does.
        """
        g = cls()
        g._edges = edges = list(edges)
        g._pos = dict(zip(edges, range(len(edges))))
        if len(g._pos) != len(edges):
            raise ValueError("duplicate edge in sample")
        adj = g.adj
        for a, b in edges:
            na = adj.get(a)
            if na is None:
                adj[a] = {b}
            else:
                na.add(b)
            nb = adj.get(b)
            if nb is None:
                adj[b] = {a}
            else:
                nb.add(a)
        if adj and 2 * len(edges) >= DENSE_MEAN_DEGREE * len(adj):
            g._keep_masks()
        return g

    # -- size / membership -------------------------------------------------
    def __len__(self) -> int:
        return len(self._edges)

    def __contains__(self, edge: Edge) -> bool:
        return canon(*edge) in self._pos

    def __iter__(self) -> Iterator[Edge]:
        return iter(self._edges)

    def edges(self) -> list[Edge]:
        """Snapshot list of edges in insertion (swap-perturbed) order."""
        return list(self._edges)

    # -- mutation ----------------------------------------------------------
    def add(self, u: int, v: int) -> None:
        """Insert edge {u, v}; raises if already present."""
        e = canon(u, v)
        if e in self._pos:
            raise ValueError(f"edge {e} already in sample")
        edges = self._edges
        self._pos[e] = len(edges)
        edges.append(e)
        a, b = e
        adj = self.adj
        na = adj.get(a)
        nb = adj.get(b)
        if na is None:
            adj[a] = {b}
        else:
            na.add(b)
        if nb is None:
            adj[b] = {a}
        else:
            nb.add(a)
        masks = self._masks
        if masks is None:
            # Only an edge between two sampled vertices can raise the mean
            # degree to the threshold, so only such an edge is tested.
            if (
                na is not None
                and nb is not None
                and 2 * len(edges) >= DENSE_MEAN_DEGREE * len(adj)
            ):
                self._keep_masks()
            return
        if na is None:
            self._take_bit(a)
        if nb is None:
            self._take_bit(b)
        bit = self._bit
        masks[a] |= bit[b]
        masks[b] |= bit[a]

    def remove(self, u: int, v: int) -> None:
        """Remove edge {u, v}; raises if absent. Drops isolated vertices."""
        e = canon(u, v)
        i = self._pos.pop(e)  # KeyError if absent
        last = self._edges.pop()
        if i < len(self._edges):
            self._edges[i] = last
            self._pos[last] = i
        a, b = e
        adj = self.adj
        na = adj[a]
        nb = adj[b]
        na.discard(b)
        nb.discard(a)
        masks = self._masks
        if masks is not None:
            bit = self._bit
            masks[a] ^= bit[b]
            masks[b] ^= bit[a]
        if not na:
            del adj[a]
            if masks is not None:
                self._drop_bit(a)
        if not nb:
            del adj[b]
            if masks is not None:
                self._drop_bit(b)

    def random_edge(self, rng: random.Random) -> Edge:
        """Uniformly random edge (not removed)."""
        return self._edges[rng.randrange(len(self._edges))]

    # -- bitmasks ----------------------------------------------------------
    def _keep_masks(self) -> None:
        """Give every sampled vertex a bit and a mask, kept from now on."""
        self._masks = masks = {}
        for x in self.adj:
            self._take_bit(x)
        bit = self._bit
        for x, nbrs in self.adj.items():
            masks[x] = sum(map(bit.__getitem__, nbrs))  # distinct bits: sum is OR
        self.adj = Adjacency(self.adj, masks)

    def _take_bit(self, x: int) -> None:
        """Assign a bit to ``x``, newly sampled, and give it an empty mask."""
        side = x < 0
        free = self._free[side]
        if free:
            self._bit[x] = free.pop()
        else:
            self._bit[x] = 1 << self._top[side]
            self._top[side] += 1
        self._masks[x] = 0

    def _drop_bit(self, x: int) -> None:
        """Free the bit and mask of ``x``, which just left the sample."""
        del self._masks[x]
        self._free[x < 0].append(self._bit.pop(x))

    # -- queries -----------------------------------------------------------
    def neighbors(self, v: int) -> Set[int]:
        """Neighbor set of ``v`` in the sample (empty set if absent)."""
        return self.adj.get(v, _EMPTY)


_EMPTY: frozenset = frozenset()
