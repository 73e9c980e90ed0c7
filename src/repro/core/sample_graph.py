"""Bounded edge sample with adjacency lists and O(1) random eviction.

This is the in-memory representation of the sample ``S`` that ABACUS
maintains (the paper stores sampled edges "using the adjacency list
format", Sec. VI-A). It supports everything Random Pairing (Alg. 2) and
the per-edge counting kernel (Alg. 1) need:

- O(1) membership test and removal of a *specific* edge,
- O(1) selection+removal of a *uniformly random* edge (reservoir
  replacement, Alg. 2 line 6), via the swap-pop trick on a dense list,
- neighbor sets per vertex for the set-intersection counting.

Edges are unordered pairs; we canonicalize as ``(left, right)`` using the
sign-based encoding of :mod:`repro.core.encoding`.
"""
from __future__ import annotations

import random
from typing import Dict, Iterator, Set, Tuple

from repro.core.encoding import is_left

Edge = Tuple[int, int]


def canon(u: int, v: int) -> Edge:
    """Canonical (left, right) order for an encoded edge."""
    return (u, v) if is_left(u) else (v, u)


class SampleGraph:
    """Adjacency-list edge set with O(1) random removal.

    Not bounded by itself — the sampler enforces the budget; this class
    only provides the mechanics.
    """

    __slots__ = ("adj", "_edges", "_pos")

    def __init__(self) -> None:
        self.adj: Dict[int, Set[int]] = {}
        self._edges: list[Edge] = []
        self._pos: Dict[Edge, int] = {}

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
        self._pos[e] = len(self._edges)
        self._edges.append(e)
        self.adj.setdefault(e[0], set()).add(e[1])
        self.adj.setdefault(e[1], set()).add(e[0])

    def remove(self, u: int, v: int) -> None:
        """Remove edge {u, v}; raises if absent. Drops isolated vertices."""
        e = canon(u, v)
        i = self._pos.pop(e)  # KeyError if absent
        last = self._edges.pop()
        if i < len(self._edges):
            self._edges[i] = last
            self._pos[last] = i
        for a, b in ((e[0], e[1]), (e[1], e[0])):
            s = self.adj[a]
            s.discard(b)
            if not s:
                del self.adj[a]

    def random_edge(self, rng: random.Random) -> Edge:
        """Uniformly random edge (not removed)."""
        return self._edges[rng.randrange(len(self._edges))]

    # -- queries -----------------------------------------------------------
    def neighbors(self, v: int) -> Set[int]:
        """Neighbor set of ``v`` in the sample (empty set if absent)."""
        return self.adj.get(v, _EMPTY)


_EMPTY: frozenset = frozenset()
