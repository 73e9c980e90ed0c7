import sys

import pytest
from pyspark.sql import SparkSession

from repro.spark_util import driver_memory, get_session


@pytest.fixture(scope="session")
def spark() -> SparkSession:
    """One local-mode SparkSession for the whole test session."""
    s = get_session("repro")
    # One line in the test log that tells whether the driver memory came
    # from SPARK_DRIVER_MEM, the cgroup limit, or the fallback.
    mem, src = driver_memory()
    print(
        f"[conftest] SPARK_DRIVER_MEM={mem} (src={src}) "
        f"master={s.sparkContext.master} "
        f"defaultParallelism={s.sparkContext.defaultParallelism}",
        file=sys.stderr,
    )
    yield s
    s.stop()
