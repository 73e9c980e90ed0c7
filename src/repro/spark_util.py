"""The one Spark session builder: exhibits (``python -m repro.run``) and the
test suite's ``spark`` fixture both call :func:`get_session`.

Deployment settings come from two environment variables: ``SPARK_MASTER``
(default ``local[*]``) and ``SPARK_DRIVER_MEM`` (default: see
:func:`driver_memory`).
"""
from __future__ import annotations

import os
from typing import Tuple

from pyspark.sql import SparkSession

_CGROUP_LIMITS = (
    "/sys/fs/cgroup/memory.max",  # cgroup v2
    "/sys/fs/cgroup/memory/memory.limit_in_bytes",  # cgroup v1
)


def driver_memory() -> Tuple[str, str]:
    """``(memory, source)`` for the Spark driver JVM's heap.

    ``SPARK_DRIVER_MEM`` if set, else ~75% of the container's cgroup
    memory limit, else 8g. The cgroup read is best-effort: a sandbox may
    not pass the host limit through, and an unbounded value (cgroup v1's
    ~9.2e18 "unlimited" sentinel, or ``max``) counts as absent so the JVM
    is never handed an impossible heap.
    """
    if mem := os.environ.get("SPARK_DRIVER_MEM"):
        return mem, "env"
    for path in _CGROUP_LIMITS:
        try:
            with open(path) as f:
                raw = f.read().strip()
            gib = int(raw) / (1 << 30)
        except (OSError, ValueError):  # missing file, or "max"
            continue
        if 1 <= gib <= 1024:
            return f"{max(1, int(gib * 0.75))}g", f"cgroup:{path}={raw}"
    return "8g", "fallback"


def get_session(app_name: str = "repro") -> SparkSession:
    """Local session; the first call in a process launches the JVM.

    Every builder conf reaches ``spark-submit`` as a ``--conf`` when
    ``getOrCreate`` launches the JVM, so ``spark.driver.memory`` set here
    sizes the driver heap. Broadcast joins are off so the exact-count
    queries exercise the shuffle path at small scale.
    """
    return (
        SparkSession.builder.appName(app_name)
        .master(os.environ.get("SPARK_MASTER", "local[*]"))
        .config("spark.driver.memory", driver_memory()[0])
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
