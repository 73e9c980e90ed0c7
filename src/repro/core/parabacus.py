"""PARABACUS (Section V): mini-batch parallel ABACUS with versioned samples.

Per mini-batch of M elements:

1. **Sequential RP pass** (O(1) amortized per edge): for edge *j* record
   the pre-update triplet ``(|E|, c_b, c_g)`` (Sec. V-A's cached
   ``{s, c_b, c_g}``) and the delta ``S_{j-1} -> S_j`` produced by
   Random Pairing. The base version ``S_0`` is snapshotted once (as an
   edge list — cheap to broadcast; each task rebuilds it in bulk with
   :meth:`~repro.core.sample_graph.SampleGraph.from_edges`, ≈35 ms for
   k=24K on movielens_lite, masks included).
2. **Parallel per-edge counting**: the M edges are split into ``p``
   contiguous equal-sized groups (the paper's thread assignment). Each
   group replays the broadcast deltas from ``S_0`` up to its first edge,
   then counts every one of its edges against that edge's version and
   extrapolates with the Eq. 1 increment from the cached triplet. The
   group emits ``(partial_count, comparisons)``.
3. **Consolidation** is free: the driver's live sample already advanced
   to ``S_M`` during step 1, which serves as the next batch's ``S_0``.

Two executors run the *identical* group function, :func:`process_group`:

- :class:`SerialExecutor` — in-process loop, for fast Theorem-5
  equivalence tests and Spark-free runs;
- :class:`RDDExecutor` — one Spark job per mini-batch,
  ``parallelize(groups, p).map(process_group)`` over a broadcast of the
  versioned sample (the paper's contribution *is* this physical parallel
  operator). The speedup and load-balance experiments (Figs. 8-10) use
  it; its task body ends with :func:`drop_cached_zip_finders`, which
  keeps PySpark's per-task set-up from costing more than the counting.

Theorem 5 (and its test) guarantee the estimate equals ABACUS's for the
same RNG seed, up to float summation order.
"""
from __future__ import annotations

import sys
import zipimport
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.core.abacus import Element
from repro.core.counting import count_butterflies_with_sample
from repro.core.probability import discovery_probability
from repro.core.random_pairing import Op, RandomPairing
from repro.core.sample_graph import Edge, SampleGraph

Triplet = Tuple[int, int, int]


# ---------------------------------------------------------------------------
# version replay + per-group counting (shared by all executors)
# ---------------------------------------------------------------------------
def group_bounds(m: int, p: int) -> List[int]:
    """p+1 boundaries splitting range(m) into p contiguous balanced groups."""
    if m == 0:
        return [0]
    p = max(1, min(p, m))
    return [round(i * m / p) for i in range(p + 1)]


def process_group(
    s0_edges: Sequence[Edge],
    batch: Sequence[Element],
    deltas: Sequence[Sequence[Op]],
    triplets: Sequence[Triplet],
    k: int,
    start: int,
    stop: int,
) -> Tuple[float, int]:
    """Count edges ``batch[start:stop]`` against their sample versions.

    ``batch[j]``'s version is ``S_j`` = ``S_0`` + deltas[0..j-1]; the
    increment uses the cached pre-update triplet ``triplets[j]``.
    Returns ``(partial_count, comparisons)``.
    """
    sample = SampleGraph.from_edges(s0_edges)
    replay = {"a": sample.add, "r": sample.remove}
    for j in range(start):
        for kind, u, v in deltas[j]:
            replay[kind](u, v)
    partial = 0.0
    comparisons = 0
    for j in range(start, stop):
        u, v, sign = batch[j]
        n_bf, comps = count_butterflies_with_sample(sample.adj, u, v)
        comparisons += comps
        if n_bf:
            n_live, c_b, c_g = triplets[j]
            p = discovery_probability(k, n_live, c_b, c_g)
            partial += (n_bf if sign > 0 else -n_bf) / p
        for kind, a, b in deltas[j]:
            replay[kind](a, b)
    return partial, comparisons


def drop_cached_zip_finders() -> None:
    """Delete every ``zipimporter`` from ``sys.path_importer_cache``.

    A PySpark worker calls ``importlib.invalidate_caches()`` before every
    task, and CPython 3.11's ``zipimporter.invalidate_caches`` re-reads
    its whole archive directory at once. A reused worker caches 16 such
    finders (``pyspark.zip`` and its sub-package paths, the py4j zip, the
    spark-core jar), which made set-up cost more than counting did. The
    cache is public; an import that needs a finder again rebuilds it from
    ``zipimport._zip_directory_cache`` without reading the archive.
    """
    cache = sys.path_importer_cache
    for path in [p for p, f in cache.items() if isinstance(f, zipimport.zipimporter)]:
        cache.pop(path, None)


# ---------------------------------------------------------------------------
# executors
# ---------------------------------------------------------------------------
class SerialExecutor:
    """Runs the group tasks sequentially in-process (tests / fallback)."""

    def __init__(self, n_groups: int = 4):
        self.n_groups = n_groups

    def run(self, s0_edges, batch, deltas, triplets, k) -> List[Tuple[int, float, int]]:
        bounds = group_bounds(len(batch), self.n_groups)
        out = []
        for g in range(len(bounds) - 1):
            partial, comps = process_group(
                s0_edges, batch, deltas, triplets, k, bounds[g], bounds[g + 1]
            )
            out.append((g, partial, comps))
        return out


class RDDExecutor:
    """Fan the group tasks out as one Spark RDD job per mini-batch.

    The versioned sample (S_0 edge list + deltas + triplets) and the
    batch ride a broadcast variable; the job is ``parallelize(groups,
    p).map(count_group).collect()``. This is the lowest-overhead Spark
    mapping of the paper's one-thread-per-group model and is what the
    speedup experiments use.
    """

    def __init__(self, spark, n_groups: int = 8):
        self.spark = spark
        self.n_groups = n_groups

    def run(self, s0_edges, batch, deltas, triplets, k) -> List[Tuple[int, float, int]]:
        sc = self.spark.sparkContext
        bounds = group_bounds(len(batch), self.n_groups)
        n_groups = len(bounds) - 1
        bc = sc.broadcast((list(s0_edges), list(batch), list(deltas), list(triplets), k))

        def task(g: int) -> Tuple[int, float, int]:
            s0, b, d, t, budget = bc.value
            try:
                partial, comps = process_group(s0, b, d, t, budget, bounds[g], bounds[g + 1])
            finally:
                drop_cached_zip_finders()
            return (g, partial, comps)

        try:
            return sc.parallelize(range(n_groups), n_groups).map(task).collect()
        finally:
            bc.destroy()


# ---------------------------------------------------------------------------
# the algorithm
# ---------------------------------------------------------------------------
class ParAbacus:
    """Mini-batch PARABACUS with a pluggable group executor."""

    def __init__(self, k: int, batch_size: int, seed: int = 0, executor=None):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.rp = RandomPairing(k, seed=seed)
        self.k = k
        self.batch_size = batch_size
        self.executor = executor if executor is not None else SerialExecutor()
        self.estimate = 0.0
        self.comparisons = 0
        self.elements_processed = 0
        # per-group comparison totals, accumulated over the stream
        # (Fig. 10's per-thread workload)
        self.group_comparisons: Dict[int, int] = {}

    def process_batch(self, batch: Sequence[Element]) -> float:
        """Process one mini-batch; returns the batch's count adjustment."""
        rp = self.rp
        s0_edges = rp.sample.edges()
        deltas: List[List[Op]] = []
        triplets: List[Triplet] = []
        for u, v, sign in batch:
            triplets.append(rp.triplet)
            deltas.append(rp.insert(u, v) if sign > 0 else rp.delete(u, v))
        adjustment = 0.0
        for g, partial, comps in self.executor.run(
            s0_edges, batch, deltas, triplets, self.k
        ):
            adjustment += partial
            self.comparisons += comps
            self.group_comparisons[g] = self.group_comparisons.get(g, 0) + comps
        self.estimate += adjustment
        self.elements_processed += len(batch)
        return adjustment

    def process_stream(self, stream: Iterable[Element]) -> float:
        """Process a stream in mini-batches; returns the final estimate."""
        batch: List[Element] = []
        for el in stream:
            batch.append(el)
            if len(batch) == self.batch_size:
                self.process_batch(batch)
                batch = []
        if batch:
            self.process_batch(batch)
        return self.estimate
