"""Figures 8 & 9 reproduction: PARABACUS speedup over ABACUS.

Speedup = sequential ABACUS wall-clock / PARABACUS wall-clock on the
same stream (α = 20%), varying the mini-batch size M (Fig. 8) and the
parallelism p (Fig. 9). PARABACUS runs the Spark RDD executor.

Substitution note (DESIGN.md §3): the paper's Java threads have ~µs
dispatch overhead; a Spark job costs ~0.15 s per mini-batch, so the
per-batch counting work must dominate that for parallelism to pay off
and the absolute factors are smaller than the paper's. The monotone
shapes are preserved and asserted in the benchmarks: speedup grows with
M, with p, with k, and with butterfly density.
"""
from __future__ import annotations

from typing import Dict, List, Sequence

from repro.core.parabacus import ParAbacus, RDDExecutor
from repro.experiments import common

def _sequential_baseline(stream, k: int, seed: int) -> float:
    obj = common.make_algo("abacus", k, seed=seed)
    _, elapsed = common.timed_run(obj, stream)
    return elapsed


def speedup_vs_batch(
    spark,
    dataset_names: Sequence[str] = ("movielens_lite", "orkut_lite"),
    ks: Sequence[int] | None = None,
    batch_sizes: Sequence[int] = (4000, 8000, 16000, 32000),
    n_groups: int = 16,
    alpha: float = common.DEFAULT_ALPHA,
    scale: float = 1.0,
    seed: int = 0,
) -> List[Dict]:
    """Fig. 8: speedup per (dataset, k, M) at fixed parallelism."""
    if ks is None:
        ks = common.scaled_ks(common.DEFAULT_KS, scale)
    common.spark_warmup(spark)
    rows: List[Dict] = []
    for name in dataset_names:
        stream = common.make_stream(name, alpha, scale, seed=seed)
        for k in ks:
            t_seq = _sequential_baseline(stream, k, seed=21)
            for m in batch_sizes:
                pb = ParAbacus(k, batch_size=m, seed=21, executor=RDDExecutor(spark, n_groups))
                _, t_par = common.timed_run(pb, stream)
                rows.append(
                    {
                        "dataset": name,
                        "k": k,
                        "batch_size": m,
                        "n_groups": n_groups,
                        "t_seq_s": t_seq,
                        "t_par_s": t_par,
                        "speedup": t_seq / t_par,
                    }
                )
    return rows


def speedup_vs_threads(
    spark,
    dataset_names: Sequence[str] = ("movielens_lite", "orkut_lite"),
    ks: Sequence[int] | None = None,
    thread_counts: Sequence[int] = (2, 4, 8, 16),
    batch_size: int = 16000,
    alpha: float = common.DEFAULT_ALPHA,
    scale: float = 1.0,
    seed: int = 0,
) -> List[Dict]:
    """Fig. 9: speedup per (dataset, k, p) at fixed mini-batch size."""
    if ks is None:
        ks = common.scaled_ks(common.DEFAULT_KS, scale)
    common.spark_warmup(spark)
    rows: List[Dict] = []
    for name in dataset_names:
        stream = common.make_stream(name, alpha, scale, seed=seed)
        for k in ks:
            t_seq = _sequential_baseline(stream, k, seed=22)
            for p in thread_counts:
                pb = ParAbacus(
                    k, batch_size=batch_size, seed=22, executor=RDDExecutor(spark, p)
                )
                _, t_par = common.timed_run(pb, stream)
                rows.append(
                    {
                        "dataset": name,
                        "k": k,
                        "n_groups": p,
                        "batch_size": batch_size,
                        "t_seq_s": t_seq,
                        "t_par_s": t_par,
                        "speedup": t_seq / t_par,
                    }
                )
    return rows
