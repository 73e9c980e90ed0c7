"""Figure 4 reproduction: throughput (edges/second) per algorithm.

Modes, as in the figure:

- ``abacus``          — insertions + deletions (α = 20%)
- ``abacus_ins``      — the same stream filtered to insertions only
  (fair comparison against the insert-only baselines)
- ``fleet`` / ``cas`` — process the full stream but internally skip the
  deletion elements (their published behaviour)
- ``parabacus``       — the Spark RDD executor with the paper's default
  small mini-batch (500 edges scaled down to our stream sizes)

Time measured is pure processing wall-clock (no arrival waiting).
"""
from __future__ import annotations

from typing import Dict, List, Sequence

from repro.experiments import common
from repro.streamgen import datasets


def throughput_sweep(
    dataset_names: Sequence[str] | None = None,
    ks: Sequence[int] | None = None,
    alpha: float = common.DEFAULT_ALPHA,
    scale: float = 1.0,
    algos: Sequence[str] = ("abacus", "abacus_ins", "fleet", "cas"),
    spark=None,
    batch_size: int = 8000,
    n_groups: int = 8,
    seed: int = 0,
) -> List[Dict]:
    """Edges/second per (dataset, k, algo).

    ``ks`` are effective sample sizes (default: scaled full-scale grid).
    ``batch_size`` applies to PARABACUS; the paper's 500-edge mini-batch
    assumes ~µs thread dispatch — under Spark's ~0.15 s/job overhead the
    equivalent operating point is a few thousand edges (DESIGN.md §3).
    """
    if ks is None:
        ks = common.scaled_ks(common.DEFAULT_KS, scale)
    names = dataset_names or datasets.dataset_names()
    if spark is not None:
        common.spark_warmup(spark)
    rows: List[Dict] = []
    for name in names:
        stream = common.make_stream(name, alpha, scale, seed=seed)
        ins_stream = common.insertions_only(stream)
        for k in ks:
            for algo in algos:
                if algo == "parabacus" and spark is None:
                    continue
                if algo == "abacus_ins":
                    obj = common.make_algo("abacus", k, seed=11)
                    data = ins_stream
                else:
                    obj = common.make_algo(
                        algo, k, seed=11, spark=spark,
                        batch_size=batch_size, n_groups=n_groups,
                    )
                    data = stream
                _, elapsed = common.timed_run(obj, data)
                rows.append(
                    {
                        "dataset": name,
                        "k": k,
                        "algo": algo,
                        "stream_len": len(data),
                        "elapsed_s": elapsed,
                        "edges_per_s": len(data) / elapsed,
                    }
                )
    return rows
