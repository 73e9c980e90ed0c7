"""The exhibit CLI, ``python -m repro.run``, parametrised over its table.

Every exhibit that can run without Spark runs end to end at a tiny
scale. The Spark-only exhibits (Figs. 8 and 9) are checked for dispatch
and argument parsing with a stand-in session, so the shared ``spark``
fixture is never stopped; their harnesses run with the fixture in
test_experiments.py.
"""
import dataclasses

import pytest

from repro import run

#: A title each exhibit prints; keyed like ``run.EXHIBITS``.
TITLES = {
    "table2_stats": ["Table II — dataset statistics (scale=0.05)"],
    "fig3_accuracy": [
        "Fig. 3 — relative error, fully dynamic (alpha=0.2)",
        "Fig. 3 — ABACUS accuracy improvement over baselines (x)",
    ],
    "fig4_throughput": ["Fig. 4 — throughput (alpha=0.2)"],
    "fig5_accuracy_insert_only": ["Fig. 5 — relative error, insertion-only (alpha=0)"],
    "fig6_deletions": ["Fig. 6 — impact of deletions ratio"],
    "fig7_scalability": [
        "Fig. 7 — elapsed time per 10% checkpoint (alpha=0.2)",
        "Fig. 7 — linearity (R^2 of elapsed~elements)",
    ],
    "fig8_speedup_batch": ["Fig. 8 — speedup vs mini-batch size"],
    "fig9_speedup_threads": ["Fig. 9 — speedup vs #thread groups"],
    "fig10_load_balance": [
        "Fig. 10 — per-group intersection comparisons",
        "Fig. 10 — balance summary",
        "Sec. VI-G — total comparisons per dataset",
    ],
}
SPARK_FREE = [n for n, e in run.EXHIBITS.items() if e.spark != "required"]
SPARK_ONLY = [n for n, e in run.EXHIBITS.items() if e.spark == "required"]


class StandInSession:
    def __init__(self):
        self.apps = []
        self.stops = 0

    def stop(self):
        self.stops += 1


@pytest.fixture
def session(monkeypatch):
    """Replace ``get_session``; records the app names it was asked for."""
    s = StandInSession()

    def get_session(app_name):
        s.apps.append(app_name)
        return s

    monkeypatch.setattr(run, "get_session", get_session)
    return s


@pytest.fixture
def calls(monkeypatch):
    """Replace every exhibit's report with a recorder of its arguments."""
    seen = []
    for name, ex in list(run.EXHIBITS.items()):
        def report(spark, scale, runs, name=name):
            seen.append((name, spark, scale, runs))
        monkeypatch.setitem(run.EXHIBITS, name, dataclasses.replace(ex, report=report))
    return seen


def test_table_covers_the_nine_exhibits():
    assert list(run.EXHIBITS) == list(TITLES)
    assert SPARK_ONLY == ["fig8_speedup_batch", "fig9_speedup_threads"]


@pytest.mark.parametrize("name", SPARK_FREE)
def test_exhibit_runs_without_spark(name, session, capsys):
    argv = [name, "--scale", "0.05", "--no-spark"]
    if run.EXHIBITS[name].runs is not None:
        argv += ["--runs", "1"]
    run.main(argv)
    out = capsys.readouterr().out
    assert session.apps == []
    for title in TITLES[name]:
        assert f"== {title} ==" in out


@pytest.mark.parametrize("name", list(run.EXHIBITS))
def test_session_only_for_exhibits_that_use_spark(name, session, calls):
    run.main([name, "--scale", "0.5"])
    ex = run.EXHIBITS[name]
    if ex.spark == "never":
        assert session.apps == []
        assert calls == [(name, None, 0.5, ex.runs)]
    else:
        assert session.apps == [f"repro-{name}"]
        assert calls == [(name, session, 0.5, ex.runs)]
        assert session.stops == 1


@pytest.mark.parametrize("name", SPARK_ONLY)
def test_spark_only_exhibit_refuses_no_spark(name, session, calls, capsys):
    with pytest.raises(SystemExit) as exc:
        run.main([name, "--no-spark"])
    assert exc.value.code != 0
    assert "--no-spark" in capsys.readouterr().err
    assert calls == [] and session.apps == []


def test_session_stopped_when_exhibit_fails(session, monkeypatch):
    def boom(spark, scale, runs):
        raise RuntimeError("harness failed")

    ex = run.EXHIBITS["fig8_speedup_batch"]
    monkeypatch.setitem(run.EXHIBITS, "fig8_speedup_batch", dataclasses.replace(ex, report=boom))
    with pytest.raises(RuntimeError):
        run.main(["fig8_speedup_batch"])
    assert session.stops == 1


def test_runs_flag(session, calls, capsys):
    run.main(["fig6_deletions", "--runs", "2"])
    assert calls == [("fig6_deletions", None, 1.0, 2)]
    with pytest.raises(SystemExit) as exc:
        run.main(["fig7_scalability", "--runs", "2"])
    assert exc.value.code != 0
    assert "takes no --runs" in capsys.readouterr().err


def test_unknown_exhibit_lists_valid_names(capsys):
    with pytest.raises(SystemExit) as exc:
        run.main(["fig11_nothing"])
    assert exc.value.code != 0
    err = capsys.readouterr().err
    for name in run.EXHIBITS:
        assert name in err
