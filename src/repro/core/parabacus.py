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

Three executors run the *identical* group function:

- :class:`SerialExecutor` — in-process loop, for fast Theorem-5
  equivalence tests;
- :class:`SparkExecutor` — Catalyst dataflow: the mini-batch is a
  DataFrame, the versioned sample a broadcast variable, per-group
  counting a ``groupBy("g").applyInPandas`` physical operator;
- :class:`RDDExecutor` — same fan-out at the RDD layer (the paper's
  contribution *is* this physical parallel operator, and the reproduction
  brief sanctions RDD for it). It took about half the time of the
  Catalyst path on four 16K batches of movielens_lite (k=24K, 4 groups,
  4-core host), so the speedup experiments (Figs. 8-10) use it; both are
  equivalence-tested against ABACUS.

Both Spark task bodies end with :func:`drop_cached_zip_finders`, which
keeps PySpark's per-task set-up from costing more than the counting.

Theorem 5 (and its test) guarantee the estimate equals ABACUS's for the
same RNG seed, up to float summation order.
"""
from __future__ import annotations

import sys
import zipimport
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple, Union

import pandas as pd

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
    batch: Union[Sequence[Element], Mapping[int, Element]],
    deltas: Sequence[Sequence[Op]],
    triplets: Sequence[Triplet],
    k: int,
    start: int,
    stop: int,
) -> Tuple[float, int]:
    """Count edges ``batch[start:stop]`` against their sample versions.

    ``batch[j]``'s version is ``S_j`` = ``S_0`` + deltas[0..j-1]; the
    increment uses the cached pre-update triplet ``triplets[j]``. Only
    ``batch[start:stop]`` is read, so ``batch`` may be the whole
    mini-batch or just the group's elements keyed by batch position.
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


class SparkExecutor:
    """Distributed per-edge counting via ``groupBy().applyInPandas``.

    The mini-batch travels as a DataFrame ``(idx, u, v, sign, g)``; the
    base sample ``S_0``, the delta list, and the triplets travel as one
    broadcast variable. Shuffle partitioning is pinned to ``n_groups``
    for the duration of the query so each group maps to one task (the
    paper's one-thread-per-group model).
    """

    def __init__(self, spark, n_groups: int = 8):
        self.spark = spark
        self.n_groups = n_groups

    def run(self, s0_edges, batch, deltas, triplets, k) -> List[Tuple[int, float, int]]:
        spark = self.spark
        m = len(batch)
        bounds = group_bounds(m, self.n_groups)
        n_groups = len(bounds) - 1
        bc = spark.sparkContext.broadcast((list(s0_edges), list(deltas), list(triplets), k))

        rows = []
        for g in range(n_groups):
            for j in range(bounds[g], bounds[g + 1]):
                u, v, sign = batch[j]
                rows.append((j, u, v, sign, g))
        df = spark.createDataFrame(
            pd.DataFrame(rows, columns=["idx", "u", "v", "sign", "g"]),
            schema="idx long, u long, v long, sign int, g int",
        )

        def count_one_group(pdf: pd.DataFrame) -> pd.DataFrame:
            s0, all_deltas, all_triplets, budget = bc.value
            grp_batch = {
                int(i): (int(u), int(v), int(s))
                for i, u, v, s in zip(pdf["idx"], pdf["u"], pdf["v"], pdf["sign"])
            }
            try:
                partial, comparisons = process_group(
                    s0, grp_batch, all_deltas, all_triplets, budget,
                    min(grp_batch), max(grp_batch) + 1,
                )
            finally:
                drop_cached_zip_finders()
            return pd.DataFrame(
                {
                    "g": [int(pdf["g"].iloc[0])],
                    "partial": [partial],
                    "comparisons": [comparisons],
                }
            )

        prev = spark.conf.get("spark.sql.shuffle.partitions")
        spark.conf.set("spark.sql.shuffle.partitions", str(n_groups))
        try:
            collected = (
                df.groupBy("g")
                .applyInPandas(count_one_group, "g int, partial double, comparisons long")
                .collect()
            )
        finally:
            spark.conf.set("spark.sql.shuffle.partitions", prev)
            bc.destroy()
        return [(r["g"], r["partial"], r["comparisons"]) for r in collected]


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
