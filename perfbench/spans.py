"""In-memory tracing of the calls the benchmark makes into ``repro``.

Two kinds of record, both kept in memory and written when the run ends:

- *coarse spans* (name, id, parent, start, end) around each batch
  hand-over and each PARABACUS executor run;
- *per-call totals* (calls, seconds) for the hot per-element functions:
  the counting kernel, the discovery probability and the Random Pairing
  updates. Storing one span per element would cost more memory than the
  state being measured, so each coarse span instead records how much of
  these totals accrued while it was open.

A span's self time is its duration minus its child spans and minus the
per-call time it does not share with a child span.

The hot functions are wrapped only inside :meth:`Tracer.patched`, and
only where ABACUS looks them up: ``repro.core.abacus`` module globals
and the ``RandomPairing`` class. PARABACUS counts inside Spark workers,
which these wrappers do not reach; its counting shows in the ``spark.*``
task metrics instead.
"""
from __future__ import annotations

import contextlib
import pickle
from time import perf_counter
from typing import Dict, List

HOT = ("counting", "probability", "random_pairing")


class Tracer:
    """Spans and per-layer counters for one traced pass."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._open: List[dict] = []
        self.totals: Dict[str, List[float]] = {name: [0, 0.0] for name in HOT}
        # counting: degree-scan steps, comparisons, butterflies, hits
        self.counting = [0, 0, 0, 0]
        # random pairing: inserts, deletes, sample ops, admitted inserts
        self.rp = [0, 0, 0, 0]
        self.run_args: List[tuple] = []

    # -- coarse spans ------------------------------------------------------
    @contextlib.contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1]["id"] if self._open else None,
            "calls": {n: list(v) for n, v in self.totals.items()},
        }
        self.spans.append(rec)
        self._open.append(rec)
        rec["start"] = perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self._open.pop()
            rec["calls"] = {
                n: [self.totals[n][0] - c, self.totals[n][1] - s]
                for n, (c, s) in rec["calls"].items()
            }

    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus child spans and its own per-call time."""
        out = {}
        for rec in self.spans:
            out[rec["id"]] = rec["end"] - rec["start"] - sum(s for _, s in rec["calls"].values())
        for rec in self.spans:
            parent = rec["parent"]
            if parent is not None:
                dur = rec["end"] - rec["start"]
                out[parent] -= dur - sum(s for _, s in rec["calls"].values())
        return out

    # -- wrappers ----------------------------------------------------------
    def _counting(self, fn):
        acc, cnt = self.totals["counting"], self.counting

        def count_butterflies_with_sample(adj, u, v):
            t0 = perf_counter()
            nu, nv = adj.get(u), adj.get(v)
            if nu and nv:  # the kernel scans both neighbourhoods only then
                cnt[0] += len(nu) + len(nv)
            n_bf, comps = fn(adj, u, v)
            cnt[1] += comps
            if n_bf:
                cnt[2] += n_bf
                cnt[3] += 1
            acc[0] += 1
            acc[1] += perf_counter() - t0
            return n_bf, comps

        return count_butterflies_with_sample

    def _probability(self, fn):
        acc = self.totals["probability"]

        def discovery_probability(*args):
            t0 = perf_counter()
            p = fn(*args)
            acc[0] += 1
            acc[1] += perf_counter() - t0
            return p

        return discovery_probability

    def _rp(self, fn, slot: int):
        acc, cnt = self.totals["random_pairing"], self.rp

        def update(rp, u, v):
            t0 = perf_counter()
            ops = fn(rp, u, v)
            cnt[slot] += 1
            cnt[2] += len(ops)
            if slot == 0 and ops and ops[-1][0] == "a":
                cnt[3] += 1
            acc[0] += 1
            acc[1] += perf_counter() - t0
            return ops

        return update

    def executor_run(self, fn):
        """Wrap a PARABACUS executor's ``run`` in a span; keep its arguments."""

        def run(*args):
            self.run_args.append(args)
            with self.span("parabacus.executor_run"):
                return fn(*args)

        return run

    @contextlib.contextmanager
    def patched(self):
        """Route ABACUS's hot calls through the wrappers while open."""
        import repro.core.abacus as abacus_mod
        from repro.core.random_pairing import RandomPairing

        saved = (
            abacus_mod.count_butterflies_with_sample,
            abacus_mod.discovery_probability,
            RandomPairing.insert,
            RandomPairing.delete,
        )
        abacus_mod.count_butterflies_with_sample = self._counting(saved[0])
        abacus_mod.discovery_probability = self._probability(saved[1])
        RandomPairing.insert = self._rp(saved[2], 0)
        RandomPairing.delete = self._rp(saved[3], 1)
        try:
            yield self
        finally:
            (
                abacus_mod.count_butterflies_with_sample,
                abacus_mod.discovery_probability,
                RandomPairing.insert,
                RandomPairing.delete,
            ) = saved

    # -- per-layer metrics ---------------------------------------------------
    def layer_metrics(self, algo) -> Dict[str, float]:
        """Per-layer metrics of the traced pass that ran ``algo``."""
        from repro.core.parabacus import group_bounds

        self_s = self.self_times()
        calls = self.totals
        scan, comps, bfs, hits = self.counting
        inserts, deletes, ops, admits = self.rp
        process_s = sum(r["end"] - r["start"] for r in self.spans if r["name"] == "abacus.process_stream")
        batches = [r for r in self.spans if r["name"] == "parabacus.process_batch"]
        runs = [r for r in self.spans if r["name"] == "parabacus.executor_run"]
        executor_s = sum(r["end"] - r["start"] for r in runs)
        replay_ops = 0
        broadcast_bytes = 0
        for s0_edges, batch, deltas, triplets, k in self.run_args:
            broadcast_bytes += len(pickle.dumps(
                (list(s0_edges), list(batch), list(deltas), list(triplets), k),
                protocol=pickle.HIGHEST_PROTOCOL,
            ))
            for start in group_bounds(len(batch), algo.executor.n_groups)[:-1]:
                replay_ops += sum(len(d) for d in deltas[:start])
        group_loads = list(getattr(algo, "group_comparisons", {}).values())
        return {
            "counting.calls": calls["counting"][0],
            "counting.s": calls["counting"][1],
            "counting.share": calls["counting"][1] / process_s if process_s else 0.0,
            "counting.comparisons": comps,
            "counting.butterflies": bfs,
            "counting.hit_ratio": hits / calls["counting"][0] if calls["counting"][0] else 0.0,
            "counting.degree_scan_steps": scan,
            "probability.calls": calls["probability"][0],
            "probability.s": calls["probability"][1],
            "random_pairing.inserts": inserts,
            "random_pairing.deletes": deletes,
            "random_pairing.s": calls["random_pairing"][1],
            "random_pairing.sample_ops": ops,
            "random_pairing.admit_ratio": admits / inserts if inserts else 0.0,
            "sample_graph.edges": len(algo.rp.sample),
            "sample_graph.vertices": len(algo.rp.sample.adj),
            "abacus.self_s": sum(self_s[r["id"]] for r in self.spans if r["name"] == "abacus.process_stream"),
            "abacus.process_s": process_s,
            "parabacus.batches": len(batches),
            "parabacus.executor_s": executor_s,
            "parabacus.driver_s": sum(r["end"] - r["start"] for r in batches) - executor_s,
            "parabacus.broadcast_bytes": broadcast_bytes,
            "parabacus.replay_ops": replay_ops,
            "parabacus.group_skew": (
                max(group_loads) * len(group_loads) / sum(group_loads) if sum(group_loads) else 0.0
            ),
        }

    def dump(self) -> List[dict]:
        """Spans as JSON-ready records, times relative to the first span."""
        if not self.spans:
            return []
        t0 = self.spans[0]["start"]
        self_s = self.self_times()
        return [
            {
                "id": r["id"],
                "name": r["name"],
                "parent": r["parent"],
                "start_s": r["start"] - t0,
                "end_s": r["end"] - t0,
                "self_s": self_s[r["id"]],
                "calls": {n: {"calls": c, "s": s} for n, (c, s) in r["calls"].items() if c},
            }
            for r in self.spans
        ]
