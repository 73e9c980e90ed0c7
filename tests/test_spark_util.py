"""The one SparkSession builder and its driver-memory default."""
import pytest

from repro import spark_util


def gib_bytes(mem: str) -> int:
    return int(mem[:-1]) << {"g": 30, "m": 20}[mem[-1].lower()]


@pytest.fixture
def cgroup(tmp_path, monkeypatch):
    """Point the cgroup limit at a temporary file; returns its writer."""
    monkeypatch.delenv("SPARK_DRIVER_MEM", raising=False)
    path = tmp_path / "memory.max"
    monkeypatch.setattr(spark_util, "_CGROUP_LIMITS", (str(path),))
    return path.write_text


def test_driver_memory_env_wins(cgroup, monkeypatch):
    cgroup(str(16 << 30))
    monkeypatch.setenv("SPARK_DRIVER_MEM", "3g")
    assert spark_util.driver_memory() == ("3g", "env")


def test_driver_memory_three_quarters_of_cgroup_limit(cgroup):
    cgroup(f"{16 << 30}\n")
    mem, src = spark_util.driver_memory()
    assert mem == "12g"
    assert src.startswith("cgroup:")


@pytest.mark.parametrize("raw", ["max", "9223372036854771712", "", None])
def test_driver_memory_falls_back_to_8g(cgroup, raw):
    if raw is not None:  # None: no cgroup file at all
        cgroup(raw)
    assert spark_util.driver_memory() == ("8g", "fallback")


def test_driver_memory_reaches_the_jvm(spark):
    """The builder conf sizes the driver heap; no PYSPARK_SUBMIT_ARGS."""
    mem, _ = spark_util.driver_memory()
    assert spark.sparkContext.getConf().get("spark.driver.memory") == mem
    heap = spark.sparkContext._jvm.java.lang.Runtime.getRuntime().maxMemory()
    assert 0.8 * gib_bytes(mem) <= heap <= gib_bytes(mem)
