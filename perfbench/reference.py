"""A fixed reference workload that measures how fast the host runs Python
right now, so that the benchmark can time elliskit against it.

The host's CPU speed swings by a third or more over tens of seconds, and
changes within a second (other tenants share its cores), so plain wall
times swing with it. A timed child therefore samples the time of one
reference rep around and during each call (``SpeedProbe``), and the
benchmark rescales the call's time by the mean rep time it saw. The
reference does the same kind of work as elliskit's hot loops (composing
maps stored as tuples, set membership, list building) but is fixed code
of the benchmark's own, so no change to elliskit changes it.

    python3 perfbench/reference.py    # print a few rep times
"""

from __future__ import annotations

import gc
import signal
import time

# Mean time of one rep on a 2-core Intel Xeon virtual machine (Python
# 3.11.7) at its faster speed; it ranged from 0.5 to 2.2 ms. Timed calls
# are reported as if the host ran at this speed.
REFERENCE_S = 0.0006
BOUNDARY_REPS = 4       # reps before the first call and after each call
TICK_S = 0.05           # one rep every TICK_S while a call runs
GENERATORS = ((1, 2, 3, 0), (1, 0, 2, 3), (0, 0, 2, 3))   # T4: 256 maps


def closure_size() -> int:
    """Size of the transformation monoid the generators span, found by
    breadth-first composition."""
    start = tuple(range(4))
    seen = {start}
    frontier = [start]
    while frontier:
        grown = []
        for f in frontier:
            for g in GENERATORS:
                h = tuple(g[x] for x in f)
                if h not in seen:
                    seen.add(h)
                    grown.append(h)
        frontier = grown
    return len(seen)


def rep_time() -> float:
    """Time of one rep, with garbage collection off so that the caller's
    heap does not slow it. Raises if the work goes wrong."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        began = time.perf_counter()
        size = closure_size()
        took = time.perf_counter() - began
    finally:
        if enabled:
            gc.enable()
    if size != 256:
        raise AssertionError(f"reference closure size {size}")
    return took


class SpeedProbe:
    """Rep times sampled around and during calls.

    ``boundary`` runs BOUNDARY_REPS reps. Between ``start`` and ``stop`` a
    SIGALRM handler runs one rep every TICK_S, so a long call is measured
    against the host's speed during it, not only at its ends. ``stolen``
    adds up the time spent in the handler, which the caller subtracts from
    the call's time."""

    def __init__(self):
        self.reps: list[float] = []
        self.stolen = 0.0

    def boundary(self) -> None:
        self.reps += [rep_time() for _ in range(BOUNDARY_REPS)]

    def _tick(self, signum, frame) -> None:
        began = time.perf_counter()
        self.reps.append(rep_time())
        self.stolen += time.perf_counter() - began

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def at_reference_speed(seconds: float, reference: float) -> float:
    """``seconds`` measured while a rep took ``reference`` on average,
    rescaled to a host on which it takes REFERENCE_S."""
    return seconds * REFERENCE_S / reference


if __name__ == "__main__":
    print(" ".join(f"{rep_time():.5f}" for _ in range(10)))
