"""Figure 10 + Sec. VI-G reproduction: per-thread workload balance.

Runs PARABACUS over a full stream and reports, per thread group, the
number of element comparisons performed inside the set-intersection
operations (the paper's workload metric). The claim: contiguous
grouping over versioned samples yields near-equal per-thread loads, and
total work tracks butterfly density (Movielens ≫ Orkut).

Also emits the Sec. VI-G per-dataset totals ("vertices examined due to
the set intersection operations") for a fixed sample size.
"""
from __future__ import annotations

from typing import Dict, List, Sequence

from repro.experiments import common
from repro.streamgen import datasets


def load_per_group(
    dataset_names: Sequence[str] = ("movielens_lite", "orkut_lite"),
    k: int | None = None,
    batch_size: int = 8000,
    n_groups: int = 8,
    alpha: float = common.DEFAULT_ALPHA,
    scale: float = 1.0,
    spark=None,
    seed: int = 0,
) -> List[Dict]:
    """Per-group comparison totals (one row per (dataset, group))."""
    if k is None:
        (k,) = common.scaled_ks((common.DEFAULT_MID_K,), scale)
    if spark is not None:
        common.spark_warmup(spark)
    rows: List[Dict] = []
    for name in dataset_names:
        stream = common.make_stream(name, alpha, scale, seed=seed)
        pb = common.make_algo("parabacus", k, 31, spark, batch_size, n_groups)
        pb.process_stream(stream)
        total = sum(pb.group_comparisons.values())
        for g in sorted(pb.group_comparisons):
            rows.append(
                {
                    "dataset": name,
                    "group": g,
                    "comparisons": pb.group_comparisons[g],
                    "share": pb.group_comparisons[g] / total if total else 0.0,
                }
            )
    return rows


def balance_summary(rows: List[Dict]) -> List[Dict]:
    """min/mean/max per-group comparisons and imbalance = max/mean."""
    by_ds: Dict[str, List[int]] = {}
    for r in rows:
        by_ds.setdefault(r["dataset"], []).append(r["comparisons"])
    out: List[Dict] = []
    for name, loads in by_ds.items():
        mean = sum(loads) / len(loads)
        out.append(
            {
                "dataset": name,
                "groups": len(loads),
                "min": min(loads),
                "mean": mean,
                "max": max(loads),
                "imbalance_max_over_mean": max(loads) / mean if mean else 0.0,
            }
        )
    return out


def total_comparisons(
    dataset_names: Sequence[str] | None = None,
    k: int | None = None,
    alpha: float = common.DEFAULT_ALPHA,
    scale: float = 1.0,
    seed: int = 0,
) -> List[Dict]:
    """Sec. VI-G: total intersection comparisons per dataset at fixed k."""
    if k is None:
        (k,) = common.scaled_ks((common.DEFAULT_MID_K,), scale)
    names = dataset_names or datasets.dataset_names()
    rows: List[Dict] = []
    for name in names:
        stream = common.make_stream(name, alpha, scale, seed=seed)
        obj = common.make_algo("abacus", k, seed=17)
        obj.process_stream(stream)
        rows.append(
            {"dataset": name, "k": k, "total_comparisons": obj.comparisons}
        )
    return rows
