"""Random Pairing sampler (Algorithm 2; Gemulla, Lehner & Haas, VLDBJ'08).

Maintains a bounded-size uniform random sample of the *live* edges of a
fully dynamic stream. Deletions are "paired" with future insertions via
two compensation counters:

- ``c_b`` ("bad"): deletions that removed a sampled edge,
- ``c_g`` ("good"): deletions of non-sampled edges.

While ``c_b + c_g > 0`` an arriving insertion compensates a pending
deletion: it enters the sample with probability ``c_b / (c_b + c_g)``
(taking a bad deletion's slot), otherwise it is skipped (consuming a
good one). With no pending deletions the sampler behaves like classic
reservoir sampling.

Every mutation returns the list of sample *ops* it performed —
``('a', u, v)`` / ``('r', u, v)`` — which is exactly the per-version
delta PARABACUS stores in its versioned sample (Sec. V-A: "we store only
the discrepancies").
"""
from __future__ import annotations

import random
from typing import List, Tuple

from repro.core.sample_graph import SampleGraph

Op = Tuple[str, int, int]


class RandomPairing:
    """Random Pairing over a :class:`SampleGraph` with budget ``k >= 2``."""

    __slots__ = ("k", "sample", "n_live", "c_b", "c_g", "rng")

    def __init__(self, k: int, seed: int = 0, rng: random.Random | None = None):
        if k < 2:
            raise ValueError("memory budget k must be >= 2")
        self.k = k
        self.sample = SampleGraph()
        self.n_live = 0  # |E|: inserted and not yet deleted
        self.c_b = 0
        self.c_g = 0
        self.rng = rng if rng is not None else random.Random(seed)

    # -- Alg. 2 ------------------------------------------------------------
    def insert(self, u: int, v: int) -> List[Op]:
        """InsertToSample({u, v}, k): process an edge insertion."""
        self.n_live += 1
        ops: List[Op] = []
        if self.c_b + self.c_g == 0:
            if len(self.sample) < self.k:
                self.sample.add(u, v)
                ops.append(("a", u, v))
            elif self.rng.random() < self.k / self.n_live:
                a, b = self.sample.random_edge(self.rng)
                self.sample.remove(a, b)
                self.sample.add(u, v)
                ops.append(("r", a, b))
                ops.append(("a", u, v))
        elif self.rng.random() < self.c_b / (self.c_b + self.c_g):
            self.sample.add(u, v)
            ops.append(("a", u, v))
            self.c_b -= 1
        else:
            self.c_g -= 1
        return ops

    def delete(self, u: int, v: int) -> List[Op]:
        """DeleteFromSample({u, v}): process an edge deletion.

        Raises ``ValueError``, with no counter changed, when no edge is
        live: the stream deletes an edge it never inserted.
        """
        if self.n_live == 0:
            raise ValueError(f"deletion of ({u}, {v}) with no live edges")
        self.n_live -= 1
        if (u, v) in self.sample:
            self.sample.remove(u, v)
            self.c_b += 1
            return [("r", u, v)]
        self.c_g += 1
        return []

    # -- state -------------------------------------------------------------
    @property
    def triplet(self) -> Tuple[int, int, int]:
        """The cached ``{s, c_b, c_g}`` triplet of Sec. V-A."""
        return (self.n_live, self.c_b, self.c_g)
