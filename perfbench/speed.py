"""CPU-speed probe: the timed passes report reference seconds.

The machines this benchmark runs on share their cores with other
tenants. Over seconds to minutes the same pure-Python work runs up to
twice as slowly, and process CPU time slows with it. So raw wall-clock
figures differ from run to run by more than any useful regression bound.

The benchmark therefore runs a fixed probe before and after each call
into the program in a timed pass. It scales the call's time by
``REFERENCE_S`` over the mean of the two probe times, which gives
seconds as they would read on a CPU that runs the probe in
``REFERENCE_S``. A change to ``repro`` moves the work and not the probe,
so the change shows in full. Run records keep the wall-clock seconds as
well.

The probe runs on the driver's core. It tracks ABACUS, which runs there,
closely, and PARABACUS's workers on the other cores less closely.
Set-up runs DuckDB and the JVM on every core, so ``setup_s`` stays in
wall-clock seconds.
"""
from __future__ import annotations

from time import perf_counter

#: Probe time on an uncontended core of the 4-core machine the bounds were set on.
REFERENCE_S = 2.5e-3

_SETS = [frozenset(range(i, i + 40)) for i in range(0, 400, 20)]


def probe() -> float:
    """Seconds a fixed loop of small set intersections takes now."""
    t0 = perf_counter()
    n = 0
    for _ in range(12):
        for a in _SETS:
            for b in _SETS:
                n += len(a & b)
    return perf_counter() - t0


def to_reference(seconds: float, before: float, after: float) -> float:
    """Scale ``seconds`` measured between probes ``before`` and ``after``."""
    return seconds * 2 * REFERENCE_S / (before + after)
