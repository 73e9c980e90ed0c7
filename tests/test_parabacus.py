"""Tests for PARABACUS: Theorem 5 equivalence, versioning, executors."""
import importlib
import sys
import zipfile
import zipimport

import pytest

from repro.core import exact
from repro.core.abacus import Abacus
from repro.core.parabacus import (
    ParAbacus,
    RDDExecutor,
    SerialExecutor,
    drop_cached_zip_finders,
    group_bounds,
    process_group,
)
from repro.core.encoding import enc_right
from repro.streamgen.graphs import zipf_bipartite
from repro.streamgen.stream import final_edges, fully_dynamic_stream


def stream_of(seed, n=120, alpha=0.25):
    edges = zipf_bipartite(18, 18, n, 0.8, 0.8, seed=seed)
    return fully_dynamic_stream(edges, alpha, seed=seed)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------
def test_group_bounds_cover_and_balance():
    b = group_bounds(10, 3)
    assert b[0] == 0 and b[-1] == 10
    sizes = [b[i + 1] - b[i] for i in range(3)]
    assert sum(sizes) == 10
    assert max(sizes) - min(sizes) <= 1


def test_group_bounds_more_groups_than_items():
    b = group_bounds(2, 8)
    assert b[0] == 0 and b[-1] == 2
    assert len(b) - 1 == 2


def test_group_bounds_empty_batch():
    assert group_bounds(0, 4) == [0]


# ---------------------------------------------------------------------------
# Theorem 5: PARABACUS == ABACUS (same seed)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("batch_size", [1, 7, 32, 1000])
def test_equivalence_serial(seed, batch_size):
    stream = stream_of(seed)
    e1 = Abacus(k=25, seed=seed).process_stream(stream)
    pb = ParAbacus(k=25, batch_size=batch_size, seed=seed, executor=SerialExecutor(3))
    e2 = pb.process_stream(stream)
    assert e2 == pytest.approx(e1, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("n_groups", [1, 2, 5, 16])
def test_equivalence_any_group_count(n_groups):
    stream = stream_of(3)
    e1 = Abacus(k=20, seed=3).process_stream(stream)
    pb = ParAbacus(k=20, batch_size=50, seed=3, executor=SerialExecutor(n_groups))
    assert pb.process_stream(stream) == pytest.approx(e1, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("n_groups", [1, 3])
def test_equivalence_dense_sample(n_groups):
    """A sample dense enough to keep bitmasks, on the driver and in the
    groups' replayed samples, changes neither estimate nor comparisons."""
    stream = stream_of(4, n=250)
    ab = Abacus(k=150, seed=4)
    e1 = ab.process_stream(stream)
    assert getattr(ab.rp.sample.adj, "masks", None) is not None
    pb = ParAbacus(k=150, batch_size=40, seed=4, executor=SerialExecutor(n_groups))
    assert pb.process_stream(stream) == pytest.approx(e1, rel=1e-9, abs=1e-9)
    assert pb.comparisons == ab.comparisons


def test_exact_mode_parabacus():
    """k >= stream: PARABACUS, like ABACUS, is exact."""
    stream = stream_of(5)
    truth = exact.butterflies_reference(final_edges(stream))
    pb = ParAbacus(k=len(stream) + 1, batch_size=13, seed=5, executor=SerialExecutor(4))
    assert pb.process_stream(stream) == pytest.approx(truth)


def test_rng_consumption_matches_abacus():
    """Sampling decisions are identical: final samples coincide."""
    stream = stream_of(6)
    ab = Abacus(k=15, seed=6)
    ab.process_stream(stream)
    pb = ParAbacus(k=15, batch_size=11, seed=6, executor=SerialExecutor(2))
    pb.process_stream(stream)
    assert sorted(ab.rp.sample.edges()) == sorted(pb.rp.sample.edges())
    assert ab.rp.triplet == pb.rp.triplet


def test_comparisons_total_matches_abacus():
    """Same per-edge counting work overall (Fig. 10's metric)."""
    stream = stream_of(7)
    ab = Abacus(k=20, seed=7)
    ab.process_stream(stream)
    pb = ParAbacus(k=20, batch_size=16, seed=7, executor=SerialExecutor(4))
    pb.process_stream(stream)
    assert pb.comparisons == ab.comparisons


def test_group_comparisons_accumulate():
    stream = stream_of(8)
    pb = ParAbacus(k=20, batch_size=30, seed=8, executor=SerialExecutor(4))
    pb.process_stream(stream)
    assert sum(pb.group_comparisons.values()) == pb.comparisons
    assert set(pb.group_comparisons) <= {0, 1, 2, 3}


def test_process_group_version_replay():
    """A group starting at j counts against S_j, not S_0."""
    u, v = 0, enc_right(0)
    w, x = enc_right(1), 1
    s0 = [(u, w), (x, w)]  # missing (x, v)
    batch = [(x, v, 1), (u, v, 1)]
    deltas = [[("a", x, v)], [("a", u, v)]]
    triplets = [(2, 0, 0), (3, 0, 0)]
    # group [1, 2): edge (u, v) must see S_1 (which has (x, v)) -> 1 butterfly
    partial, _ = process_group(s0, batch, deltas, triplets, k=10, start=1, stop=2)
    assert partial == pytest.approx(1.0)
    # group [0, 1): edge (x, v) sees S_0 -> no butterfly
    partial0, _ = process_group(s0, batch, deltas, triplets, k=10, start=0, stop=1)
    assert partial0 == 0.0


def test_batch_size_validation():
    with pytest.raises(ValueError):
        ParAbacus(k=5, batch_size=0)


def test_partial_batch_flushed_at_stream_end():
    stream = stream_of(9)[:25]
    pb = ParAbacus(k=10, batch_size=1000, seed=9, executor=SerialExecutor(2))
    pb.process_stream(stream)
    assert pb.elements_processed == 25


def test_drop_cached_zip_finders(tmp_path, monkeypatch):
    """Cached zip finders go, other finders stay, and a module in the zip
    still imports afterwards."""
    archive = str(tmp_path / "zfinder.zip")
    with zipfile.ZipFile(archive, "w") as zf:
        zf.writestr("zfinder_mod.py", "VALUE = 7\n")
    monkeypatch.syspath_prepend(archive)
    monkeypatch.setitem(sys.path_importer_cache, archive, zipimport.zipimporter(archive))
    monkeypatch.delitem(sys.modules, "zfinder_mod", raising=False)
    others = {
        p: f
        for p, f in sys.path_importer_cache.items()
        if not isinstance(f, zipimport.zipimporter)
    }
    assert others
    drop_cached_zip_finders()
    assert archive not in sys.path_importer_cache
    assert not any(
        isinstance(f, zipimport.zipimporter) for f in sys.path_importer_cache.values()
    )
    assert all(sys.path_importer_cache.get(p) is f for p, f in others.items())
    assert importlib.import_module("zfinder_mod").VALUE == 7


# ---------------------------------------------------------------------------
# Spark executors (session-scoped fixture; kept few but meaningful)
# ---------------------------------------------------------------------------
def test_equivalence_rdd_executor(spark):
    stream = stream_of(11, n=200)
    e1 = Abacus(k=30, seed=11).process_stream(stream)
    pb = ParAbacus(k=30, batch_size=60, seed=11, executor=RDDExecutor(spark, 4))
    assert pb.process_stream(stream) == pytest.approx(e1, rel=1e-9, abs=1e-9)


def test_spark_executors_report_comparisons(spark):
    stream = stream_of(13, n=150)
    ab = Abacus(k=25, seed=13)
    ab.process_stream(stream)
    pb = ParAbacus(k=25, batch_size=75, seed=13, executor=RDDExecutor(spark, 3))
    pb.process_stream(stream)
    assert pb.comparisons == ab.comparisons


def test_workers_import_after_rdd_batch(spark):
    """Group tasks drop their workers' cached zip finders; a later job in
    those workers still imports a pyspark sub-module not loaded before."""
    stream = stream_of(14, n=120)
    e1 = Abacus(k=30, seed=14).process_stream(stream)
    pb = ParAbacus(k=30, batch_size=60, seed=14, executor=RDDExecutor(spark, 4))
    assert pb.process_stream(stream) == pytest.approx(e1, rel=1e-9, abs=1e-9)
    module = "pyspark.mllib.fpm"

    def load(_):
        loaded = module in sys.modules
        return loaded, importlib.import_module(module).__name__

    got = spark.sparkContext.parallelize(range(4), 4).map(load).collect()
    assert [name for _, name in got] == [module] * 4
    assert not all(loaded for loaded, _ in got)  # some task imported it anew
