"""One command for every exhibit of the paper's evaluation (DESIGN.md §4).

    python -m repro.run <exhibit> [--scale S] [--runs N] [--no-spark]

``<exhibit>`` is a key of :data:`EXHIBITS`; each entry runs the exhibit's
harness from ``repro.experiments`` and prints its tables. ``--scale``
shrinks the datasets and the sample-size grid. ``--runs`` sets the seeded
runs per point of Figs. 3, 5 and 6. ``--no-spark`` runs an exhibit that
can use Spark without it: Table II counts with DuckDB, Fig. 4 drops
PARABACUS, and Fig. 10's groups run in-process. Figs. 8 and 9 measure
PARABACUS on Spark, so they have no Spark-free form.

A Spark session is opened only for an exhibit that uses it, and stopped
when the exhibit ends.
"""
from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.experiments import (
    accuracy,
    deletions,
    load_balance,
    scalability,
    speedup,
    stats,
    throughput,
)
from repro.experiments.common import DEFAULT_ALPHA
from repro.experiments.report import print_table
from repro.spark_util import get_session

ACCURACY_COLUMNS = ["dataset", "k", "algo", "rel_err", "est_mean", "truth_mean"]


def table2_stats(spark, scale: float, runs: None) -> None:
    rows = stats.dataset_stats(scale=scale, spark=spark)
    print_table(rows, title=f"Table II — dataset statistics (scale={scale})")


def fig3_accuracy(spark, scale: float, runs: int) -> None:
    rows = accuracy.accuracy_sweep(alpha=DEFAULT_ALPHA, runs=runs, scale=scale)
    print_table(
        rows,
        columns=ACCURACY_COLUMNS,
        title=f"Fig. 3 — relative error, fully dynamic (alpha={DEFAULT_ALPHA})",
    )
    print_table(
        accuracy.improvement_over_baselines(rows),
        title="Fig. 3 — ABACUS accuracy improvement over baselines (x)",
    )


def fig4_throughput(spark, scale: float, runs: None) -> None:
    algos = ["abacus", "abacus_ins", "fleet", "cas"]
    if spark is not None:
        algos.append("parabacus")
    rows = throughput.throughput_sweep(scale=scale, algos=algos, spark=spark)
    print_table(
        rows,
        columns=["dataset", "k", "algo", "stream_len", "elapsed_s", "edges_per_s"],
        title="Fig. 4 — throughput (alpha=0.2)",
    )


def fig5_accuracy_insert_only(spark, scale: float, runs: int) -> None:
    rows = accuracy.accuracy_sweep(alpha=0.0, runs=runs, scale=scale)
    print_table(
        rows,
        columns=ACCURACY_COLUMNS,
        title="Fig. 5 — relative error, insertion-only (alpha=0)",
    )


def fig6_deletions(spark, scale: float, runs: int) -> None:
    rows = deletions.deletions_sweep(runs=runs, scale=scale)
    print_table(
        rows,
        columns=["dataset", "alpha", "k", "rel_err", "edges_per_s"],
        title="Fig. 6 — impact of deletions ratio",
    )


def fig7_scalability(spark, scale: float, runs: None) -> None:
    rows = scalability.scalability_series(scale=scale)
    print_table(
        rows,
        columns=["dataset", "k", "pct", "elements", "elapsed_s"],
        title="Fig. 7 — elapsed time per 10% checkpoint (alpha=0.2)",
    )
    print_table(
        scalability.linearity_r2(rows),
        title="Fig. 7 — linearity (R^2 of elapsed~elements)",
    )


def fig8_speedup_batch(spark, scale: float, runs: None) -> None:
    rows = speedup.speedup_vs_batch(spark, scale=scale)
    print_table(
        rows,
        columns=["dataset", "k", "batch_size", "n_groups", "t_seq_s", "t_par_s", "speedup"],
        title="Fig. 8 — speedup vs mini-batch size",
    )


def fig9_speedup_threads(spark, scale: float, runs: None) -> None:
    rows = speedup.speedup_vs_threads(spark, scale=scale)
    print_table(
        rows,
        columns=["dataset", "k", "n_groups", "batch_size", "t_seq_s", "t_par_s", "speedup"],
        title="Fig. 9 — speedup vs #thread groups",
    )


def fig10_load_balance(spark, scale: float, runs: None) -> None:
    rows = load_balance.load_per_group(scale=scale, spark=spark)
    print_table(rows, title="Fig. 10 — per-group intersection comparisons")
    print_table(load_balance.balance_summary(rows), title="Fig. 10 — balance summary")
    print_table(
        load_balance.total_comparisons(scale=scale),
        title="Sec. VI-G — total comparisons per dataset",
    )


@dataclass(frozen=True)
class Exhibit:
    """How :func:`main` runs one exhibit."""

    #: ``report(spark, scale, runs)`` runs the harness and prints its tables;
    #: ``spark`` is None when no session is open.
    report: Callable[[object, float, Optional[int]], None]
    #: "never", "optional" (``--no-spark`` turns it off) or "required".
    spark: str = "never"
    #: default of ``--runs``; None for an exhibit that takes no ``--runs``.
    runs: Optional[int] = None


EXHIBITS = {
    "table2_stats": Exhibit(table2_stats, spark="optional"),
    "fig3_accuracy": Exhibit(fig3_accuracy, runs=5),
    "fig4_throughput": Exhibit(fig4_throughput, spark="optional"),
    "fig5_accuracy_insert_only": Exhibit(fig5_accuracy_insert_only, runs=5),
    "fig6_deletions": Exhibit(fig6_deletions, runs=3),
    "fig7_scalability": Exhibit(fig7_scalability),
    "fig8_speedup_batch": Exhibit(fig8_speedup_batch, spark="required"),
    "fig9_speedup_threads": Exhibit(fig9_speedup_threads, spark="required"),
    "fig10_load_balance": Exhibit(fig10_load_balance, spark="optional"),
}


def main(argv: Optional[Sequence[str]] = None) -> None:
    ap = argparse.ArgumentParser(
        prog="python -m repro.run",
        description="Reproduce one exhibit of the paper's evaluation.",
    )
    ap.add_argument("exhibit", choices=EXHIBITS)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="dataset and sample-size scale (default: 1.0)")
    ap.add_argument("--runs", type=int,
                    help="seeded runs per point (Figs. 3 and 5: 5, Fig. 6: 3)")
    ap.add_argument("--no-spark", action="store_true",
                    help="run without Spark (Table II, Figs. 4 and 10)")
    args = ap.parse_args(argv)
    exhibit = EXHIBITS[args.exhibit]
    if args.runs is not None and exhibit.runs is None:
        ap.error(f"{args.exhibit} takes no --runs")
    if args.no_spark and exhibit.spark == "required":
        ap.error(f"{args.exhibit} measures PARABACUS on Spark; it has no --no-spark form")
    runs = exhibit.runs if args.runs is None else args.runs
    use_spark = exhibit.spark != "never" and not args.no_spark
    spark = get_session(f"repro-{args.exhibit}") if use_spark else None
    try:
        exhibit.report(spark, args.scale, runs)
    finally:
        if spark is not None:
            spark.stop()


if __name__ == "__main__":
    main()
