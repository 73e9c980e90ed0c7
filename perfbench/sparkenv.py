"""Spark session lifecycle and event-log metrics for the benchmark.

Each session gets a JVM of its own: :func:`stop_session` shuts the JVM
down and waits for it, so every set-up repetition pays the same launch
cost and no process outlives the benchmark.

The Python workers find ``repro`` through ``PYTHONPATH``, which the
benchmark exports before the JVM starts; :func:`warm_up` fails loudly
when a worker imports it from anywhere else.
"""
from __future__ import annotations

import json
import os
import subprocess
from collections import defaultdict
from pathlib import Path
from typing import Dict

#: Task slots of the local master; PARABACUS runs one group per slot.
SLOTS = 4
DRIVER_MEMORY = "2g"
#: Job tag that marks the traced pass's jobs in the event log.
TRACED_TAG = "perfbench-traced"


def start_session(out_dir: Path, event_log: bool):
    """Local SparkSession with the settings of ``repro.spark_util``."""
    from pyspark.sql import SparkSession

    builder = (
        SparkSession.builder.appName("perfbench")
        .master(f"local[{SLOTS}]")
        .config("spark.driver.memory", DRIVER_MEMORY)
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.driver.extraJavaOptions", f"-XX:-UsePerfData -Djava.io.tmpdir={out_dir / 'tmp'}")
        .config("spark.executorEnv.PYTHONPATH", os.environ["PYTHONPATH"])
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
    )
    if event_log:
        log_dir = out_dir / "eventlog"
        log_dir.mkdir(parents=True, exist_ok=True)
        builder = (
            builder.config("spark.eventLog.enabled", "true")
            .config("spark.eventLog.dir", log_dir.as_uri())
            .config("spark.eventLog.compress", "false")
            .config("spark.eventLog.rolling.enabled", "false")  # one file, named after the app id
        )
    spark = builder.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def warm_up(spark, src_dir: Path) -> None:
    """One job on every slot; raise unless each worker imports ``src_dir``'s repro.

    Each worker imports the PARABACUS task module here, so the first
    timed batch does not pay for it.
    """

    def where(_):
        try:
            import repro
            import repro.core.parabacus  # noqa: F401
        except ImportError as exc:
            return f"{type(exc).__name__}: {exc}"
        return repro.__file__

    want = str(src_dir / "repro" / "__init__.py")
    found = spark.sparkContext.parallelize(range(SLOTS), SLOTS).map(where).collect()
    wrong = [f for f in found if f != want]
    if wrong:
        raise RuntimeError(
            f"Spark Python workers cannot import repro from {src_dir} "
            f"(PYTHONPATH={os.environ.get('PYTHONPATH')!r}): {wrong[0]}"
        )


def stop_session(spark) -> None:
    """Stop the session, then shut its JVM down and wait for it to exit."""
    from pyspark import SparkContext

    spark.stop()
    gateway = SparkContext._gateway
    if gateway is None:
        return
    # PySpark keeps the JVM for a later session; drop it so the next
    # session launches its own and this one exits (it quits on stdin EOF).
    SparkContext._gateway = None
    SparkContext._jvm = None
    gateway.shutdown()
    proc = gateway.proc
    if proc is not None:
        proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise


def event_log_metrics(log_file: Path) -> Dict[str, float]:
    """Job and task totals of the jobs tagged :data:`TRACED_TAG`."""
    jobs: Dict[int, list] = {}  # job id -> [submitted ms, completed ms]
    stage_job: Dict[int, int] = {}
    tasks = defaultdict(list)  # job id -> [(run s, deserialize s, wall s)]
    with open(log_file) as fh:
        for line in fh:
            ev = json.loads(line)
            kind = ev["Event"]
            if kind == "SparkListenerJobStart":
                tags = ev.get("Properties", {}).get("spark.job.tags", "")
                if TRACED_TAG in tags.split(","):
                    jobs[ev["Job ID"]] = [ev["Submission Time"], None]
                    for stage in ev["Stage IDs"]:
                        stage_job[stage] = ev["Job ID"]
            elif kind == "SparkListenerJobEnd" and ev["Job ID"] in jobs:
                jobs[ev["Job ID"]][1] = ev["Completion Time"]
            elif kind == "SparkListenerTaskEnd" and ev["Stage ID"] in stage_job:
                info, m = ev["Task Info"], ev["Task Metrics"]
                tasks[stage_job[ev["Stage ID"]]].append((
                    m["Executor Run Time"] / 1e3,
                    m["Executor Deserialize Time"] / 1e3,
                    (info["Finish Time"] - info["Launch Time"]) / 1e3,
                ))
    job_s = overhead_s = run_s = run_max_s = deser_s = slowest_s = mean_s = 0.0
    for job, (submitted, completed) in jobs.items():
        walls = [t[2] for t in tasks[job]]
        job_s += (completed - submitted) / 1e3
        overhead_s += (completed - submitted) / 1e3 - max(walls)
        run_s += sum(t[0] for t in tasks[job])
        run_max_s += max(t[0] for t in tasks[job])
        deser_s += sum(t[1] for t in tasks[job])
        slowest_s += max(walls)
        mean_s += sum(walls) / len(walls)
    return {
        "spark.jobs": len(jobs),
        "spark.job_s": job_s,
        "spark.task_run_s": run_s,
        "spark.task_run_max_s": run_max_s,
        "spark.task_deser_s": deser_s,
        "spark.job_overhead_s": overhead_s,
        "spark.task_skew": slowest_s / mean_s if mean_s else 0.0,
    }
