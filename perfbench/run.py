"""Benchmark of ABACUS and PARABACUS through the public ``repro`` API.

Run from the root of a checkout:

    python3 perfbench/run.py --workload abacus-dense --seed 3 --seconds 15 --trace 0
    python3 perfbench/run.py --seed 3     # every workload, one table

A single-workload run prints its metrics with units and, as its last
line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. Metric names and units come from ``BENCHMARK.json``.
Records, spans and Spark event logs go to ``.bench_out/``. See
``perfbench/README.md``.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import deque
from dataclasses import asdict, dataclass
from importlib import metadata
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

import sparkenv
from spans import Tracer
from speed import probe, to_reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
#: Stream and sampler seed of the input ``rel_error`` is measured on.
REFERENCE_SEED = 0
#: Theorem 5: PARABACUS equals ABACUS up to float summation order.
THEOREM5_RTOL = 1e-9


@dataclass(frozen=True)
class Workload:
    algo: str  # "abacus" or "parabacus"
    dataset: str
    scale: float
    alpha: float
    k: int
    batch: int  # M: elements handed over per call
    #: Set-ups per run; ``setup_s`` is their median. Five where a set-up
    #: takes a second or two, three where each one launches a Spark JVM.
    setup_reps: int


#: Why each workload exists: see BENCHMARK.json and perfbench/README.md.
WORKLOADS: Dict[str, Workload] = {
    "abacus-dense": Workload("abacus", "movielens_lite", 1.0, 0.2, 24_000, 16_000, 5),
    "abacus-churn-sparse": Workload("abacus", "orkut_lite", 4.0, 0.3, 12_000, 16_000, 5),
    "parabacus-dense": Workload("parabacus", "movielens_lite", 1.0, 0.2, 24_000, 16_000, 3),
}


def prepare_environment() -> None:
    """Make ``src/repro`` importable here and in Spark workers; keep files in the checkout."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: {SRC / 'repro'} not found; run from the root of a repository checkout")
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None
    os.environ["SPARK_LOCAL_DIRS"] = str(OUT / "spark-local")
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ.pop("PYSPARK_SUBMIT_ARGS", None)
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve() != (SRC / "repro" / "__init__.py").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not from {SRC}")


def metric_units(trace: bool) -> Dict[str, str]:
    """Name -> unit of the metrics one run reports, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def git_sha() -> Optional[str]:
    """HEAD of the checkout, or None when the checkout is not a git work tree."""
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def src_digest() -> str:
    """SHA-256 over ``src/repro``'s Python files: names the code without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def stamp(parallelism: Optional[int]) -> dict:
    """Provenance of a result record."""
    return {
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "spark_default_parallelism": parallelism,  # None: no session on this workload
        "spark_driver_memory": sparkenv.DRIVER_MEMORY,
        "python": platform.python_version(),
        "pyspark": metadata.version("pyspark"),
    }


def reset_peak_rss() -> None:
    """Return freed heap to the kernel, then restart its peak-RSS count (VmHWM).

    Without the trim, set-up garbage that malloc happened to keep would
    set a different floor in each run.
    """
    gc.collect()
    ctypes.CDLL(None).malloc_trim(0)
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")


def rss_mb(field: str) -> float:
    """``VmRSS`` (now) or ``VmHWM`` (peak since :func:`reset_peak_rss`) in MB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no {field} in /proc/self/status")


def abacus_reference(w: Workload, stream) -> float:
    """ABACUS's estimate on the reference input, cached per source digest.

    It is deterministic, so one pass per version of the code suffices:
    ABACUS workloads take ``rel_error`` from it and PARABACUS must
    reproduce it (Theorem 5). Keying the cache by :func:`src_digest`
    drops it whenever the code changes.
    """
    from repro.core.abacus import Abacus

    path = OUT / "cache" / f"abacus-{w.dataset}-{w.scale}-{w.alpha}-{w.k}-seed{REFERENCE_SEED}-{src_digest()}.json"
    if path.is_file():
        return json.loads(path.read_text())["estimate"]
    estimate = Abacus(w.k, seed=REFERENCE_SEED).process_stream(stream)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps({"estimate": estimate}))
    tmp.replace(path)
    return estimate


# ---------------------------------------------------------------------------
# set-up and passes
# ---------------------------------------------------------------------------
def setup(w: Workload, stream_seed: int, event_log: bool):
    """Stream, its exact count, and (PARABACUS) a warmed-up Spark session.

    Its times stay in wall-clock seconds: DuckDB and the JVM run on every
    core, which a probe on one core does not track (see ``speed``).
    """
    from repro.experiments.common import ground_truth, make_stream

    t0 = perf_counter()
    stream = make_stream(w.dataset, w.alpha, w.scale, seed=stream_seed)
    t1 = perf_counter()
    truth = ground_truth(stream)
    t2 = perf_counter()
    spark = None
    if w.algo == "parabacus":
        spark = sparkenv.start_session(OUT, event_log)
        try:
            sparkenv.warm_up(spark, SRC)
        except BaseException:
            sparkenv.stop_session(spark)
            raise
    t3 = perf_counter()
    times = {"streamgen.stream_s": t1 - t0, "exact.truth_s": t2 - t1, "spark.session_s": t3 - t2, "setup_s": t3 - t0}
    return stream, truth, spark, times


@dataclass
class Pass:
    estimate: float
    elapsed: float  # first batch handed over -> last estimate update, reference s
    wall: float  # the same in wall-clock seconds
    latencies: List[float]  # reference s
    attempted: int  # batches handed over
    failed: int


def run_pass(algo, batches, tracer: Optional[Tracer] = None) -> Pass:
    """Hand ``batches`` to ``algo`` one call each (a closed loop).

    A batch's latency runs from its hand-over until the public
    ``elements_processed`` counter covers its last element. A batch
    fails if its call raises, if the estimate is not finite after it,
    or if its elements are never processed.

    Times run on a clock that advances only inside the calls, at the
    rate the speed probes around each call give (see ``speed``).
    """
    from repro.core.abacus import Abacus

    if isinstance(algo, Abacus):
        feed, name = algo.process_stream, "abacus.process_stream"
    else:
        feed, name = algo.process_batch, "parabacus.process_batch"
    span = tracer.span if tracer else (lambda _name: contextlib.nullcontext())
    gc.collect()
    pending: deque = deque()  # (elements handed so far, clock at hand-over)
    latencies: List[float] = []
    failed = handed = attempted = 0
    clock = wall = elapsed = 0.0
    before = probe()
    for batch in batches:
        attempted += 1
        handed += len(batch)
        pending.append((handed, clock))
        t0 = perf_counter()
        try:
            with span(name):
                feed(batch)
        except Exception:
            traceback.print_exc()
            break
        dt = perf_counter() - t0
        after = probe()
        wall += dt
        clock += to_reference(dt, before, after)
        before = after
        while pending and pending[0][0] <= algo.elements_processed:
            latencies.append(clock - pending.popleft()[1])
            elapsed = clock
        if not math.isfinite(algo.estimate):
            failed += 1
    failed += len(pending)
    return Pass(algo.estimate, elapsed, wall, latencies, attempted, failed)


def run_workload(name: str, stream_seed: int, sampler_seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run of one workload; returns its result record."""
    prepare_environment()
    from repro.core.abacus import Abacus
    from repro.core.parabacus import ParAbacus, RDDExecutor
    from repro.experiments.common import ground_truth, make_stream, relative_error

    w = WORKLOADS[name]
    units = metric_units(trace)
    spark = None

    def make(seed: int):
        if w.algo == "abacus":
            return Abacus(w.k, seed=seed)
        return ParAbacus(w.k, w.batch, seed=seed, executor=RDDExecutor(spark, sparkenv.SLOTS))

    def slices(stream):
        return [stream[i:i + w.batch] for i in range(0, len(stream), w.batch)]

    try:
        setups = []
        for _ in range(w.setup_reps):
            if spark is not None:
                sparkenv.stop_session(spark)
                spark = None
            stream, truth, spark, times = setup(w, stream_seed, event_log=trace)
            setups.append(times)
        parallelism = spark.sparkContext.defaultParallelism if spark else None
        batches = slices(stream)

        timed: List[Pass] = []
        reset_peak_rss()
        rss_floor = rss_mb("VmRSS")
        t0 = perf_counter()
        while not timed or (perf_counter() - t0 < seconds and not timed[-1].failed):
            timed.append(run_pass(make(sampler_seed), batches))
        peak_rss = rss_mb("VmHWM")
        checks = {"passes_agree": len({p.estimate for p in timed}) == 1}
        untimed: List[Pass] = []  # traced and reference passes

        layers: Dict[str, float] = {}
        tracer = None
        if trace:
            tracer = Tracer()
            algo = make(sampler_seed)
            if spark is not None:
                algo.executor.run = tracer.executor_run(algo.executor.run)
                spark.sparkContext.addJobTag(sparkenv.TRACED_TAG)
            with tracer.patched():
                traced = run_pass(algo, batches, tracer)
            if spark is not None:
                spark.sparkContext.removeJobTag(sparkenv.TRACED_TAG)
            untimed.append(traced)
            checks["traced_pass_agrees"] = traced.estimate == timed[0].estimate
            layers = tracer.layer_metrics(algo)
            if w.algo == "abacus":
                parts = sum(layers[k] for k in ("counting.s", "probability.s", "random_pairing.s", "abacus.self_s"))
                checks["trace_sum_closes"] = (
                    layers["abacus.self_s"] >= 0
                    and abs(parts - layers["abacus.process_s"]) <= 1e-9 * layers["abacus.process_s"]
                )
            untraced_s = statistics.median(p.elapsed for p in timed)
            layers["trace.overhead_frac"] = traced.elapsed / untraced_s - 1

        # Accuracy on a fixed input, so it repeats exactly for unchanged code.
        ref_stream = make_stream(w.dataset, w.alpha, w.scale, seed=REFERENCE_SEED)
        ref_truth = ground_truth(ref_stream)
        ref_estimate = abacus_reference(w, ref_stream)
        checks["reference_finite"] = math.isfinite(ref_estimate)
        if w.algo == "parabacus":
            ref_pass = run_pass(make(REFERENCE_SEED), slices(ref_stream))
            untimed.append(ref_pass)
            checks["theorem5"] = abs(ref_pass.estimate - ref_estimate) <= THEOREM5_RTOL * abs(ref_estimate)
            ref_estimate = ref_pass.estimate

        app_id = spark.sparkContext.applicationId if spark else None
    finally:
        if spark is not None:
            sparkenv.stop_session(spark)

    setup_med = {k: statistics.median(s[k] for s in setups) for k in setups[0]}
    if trace:
        spark_layers = (
            sparkenv.event_log_metrics(OUT / "eventlog" / app_id)
            if app_id else {k: 0 for k in units if k.startswith("spark.") and k != "spark.session_s"}
        )
        setup_layers = {k: setup_med[k] for k in ("streamgen.stream_s", "exact.truth_s", "spark.session_s")}
        values = {**layers, **spark_layers, **setup_layers}
        if app_id is None:
            values["spark.session_s"] = 0.0
    else:
        values = {
            "setup_s": setup_med["setup_s"],
            "edges_per_s": statistics.median(len(stream) / p.elapsed for p in timed),
            "batch_latency_p50_ms": 1e3 * statistics.median(x for p in timed for x in p.latencies),
            "rel_error": relative_error(ref_truth, ref_estimate),
            "peak_rss_mb": peak_rss,
        }
    failed = sum(p.failed for p in timed + untimed) + sum(not ok for ok in checks.values())
    record = {
        "workload": name,
        "params": asdict(w),
        "stream_seed": stream_seed,
        "sampler_seed": sampler_seed,
        "seconds": seconds,
        "trace": int(trace),
        "stamp": stamp(parallelism),
        "passes": len(timed),
        "pass_s": [p.elapsed for p in timed],
        "pass_wall_s": [p.wall for p in timed],
        "wall_edges_per_s": statistics.median(len(stream) / p.wall for p in timed),
        "rss_floor_mb": rss_floor,
        "batches_per_pass": len(batches),
        "latency_samples": sum(len(p.latencies) for p in timed),
        "setup": setups,
        "checks": checks,
        "truth": truth,
        "estimate": timed[0].estimate,
        "reference": {"seed": REFERENCE_SEED, "truth": ref_truth, "estimate": ref_estimate},
        "correct": failed == 0,
        "attempted": sum(p.attempted for p in timed + untimed),
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()},
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{name}-seed{stream_seed}-{sampler_seed}-trace{int(trace)}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        (results / f"{stem}-spans.json").write_text(json.dumps(tracer.dump()))
    record["path"] = str((results / f"{stem}.json").relative_to(ROOT))
    return record


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------
def print_record(rec: dict) -> None:
    print(f"perfbench {rec['workload']}: stream seed {rec['stream_seed']}, "
          f"sampler seed {rec['sampler_seed']}, trace {rec['trace']}")
    print("  stamp: " + ", ".join(f"{k}={v}" for k, v in rec["stamp"].items()))
    print(f"  {rec['passes']} timed passes x {rec['batches_per_pass']} batches of "
          f"{rec['params']['batch']} ({rec['latency_samples']} latency samples)")
    for n, m in rec["metrics"].items():
        print(f"  {n:28s} {m['value']:>16.6g} {m['unit']}")
    print("  checks: " + ", ".join(f"{k}={'ok' if ok else 'FAIL'}" for k, ok in rec["checks"].items()))
    print(f"  record: {rec['path']}")


def run_all(args) -> int:
    """Every workload in its own process (peak RSS is per process); one table."""
    rows = {}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        for flag in ("stream_seed", "sampler_seed"):
            if getattr(args, flag) is not None:
                cmd += [f"--{flag.replace('_', '-')}", str(getattr(args, flag))]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        print(out.stdout, end="")
        if out.returncode:
            print(f"perfbench: {name} exited with code {out.returncode}", file=sys.stderr)
            return out.returncode
        rows[name] = json.loads(out.stdout.strip().splitlines()[-1])
    print("\nworkload              metric                        value unit")
    for name, res in rows.items():
        for metric, m in res["metrics"].items():
            print(f"{name:21s} {metric:28s} {m['value']:>12.6g} {m['unit']}")
        print(f"{name:21s} {'correct':28s} {str(res['correct']):>12s} ({res['failed']} of {res['attempted']} failed)")
    if not args.trace:
        par = rows["parabacus-dense"]["metrics"]["edges_per_s"]["value"]
        seq = rows["abacus-dense"]["metrics"]["edges_per_s"]["value"]
        print(f"parabacus_speedup = {par / seq:.3f} "
              f"({par:.6g} 1/s parabacus-dense / {seq:.6g} 1/s abacus-dense)")
    return 0 if all(r["correct"] for r in rows.values()) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), help="omit to run every workload")
    ap.add_argument("--seed", type=int, default=0, help="stream and sampler seed")
    ap.add_argument("--stream-seed", type=int, help="override the stream seed")
    ap.add_argument("--sampler-seed", type=int, help="override the sampler seed")
    ap.add_argument("--seconds", type=float, default=15.0, help="measure whole passes for at least this long")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics")
    args = ap.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    rec = run_workload(
        args.workload,
        args.seed if args.stream_seed is None else args.stream_seed,
        args.seed if args.sampler_seed is None else args.sampler_seed,
        args.seconds,
        bool(args.trace),
    )
    print_record(rec)
    print(json.dumps({k: rec[k] for k in ("correct", "attempted", "failed", "metrics")}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
