"""Machine-speed probe, to report times at a fixed reference speed.

On a small shared machine the speed of the processor drifts by tens of
percent within seconds, and unrelated code slows down together: a pure
Python loop and a loop of small numpy calls, interleaved, correlate at 0.99
over one-second blocks, and their ratio varies by 3% where each alone
varies by 20%.  So while the benchmark measures, it runs a short fixed piece
of work (`probe`) every PROBE_INTERVAL_S from an interval timer in the same
process, subtracts the probes' own time, and scales what remains to the
reference speed: the speed at which one probe takes REFERENCE_S.

The probe is an interpreter loop over a 256-entry table followed by a loop
of numpy calls on two 8-element arrays, so the data it touches fits in the
first-level cache.  Its time therefore follows the processor's speed and
not the cache state the measured code leaves behind: a change to the
program that moves less memory does not change the scale factor (see the
notes in CHANGES.md for the check), and the probe evicts next to nothing of
the program's working set.  The numpy part follows the per-call cost of
numpy, which slows down under other tenants more than the interpreter
loop does; with both, pass times of certify-sweep varied by 4.8% within a
run (6.8% with the loop alone, 17% as measured).
"""
from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PROBE_LOOPS = 3000
PROBE_CALLS = 150
REFERENCE_S = 0.6e-3
PROBE_INTERVAL_S = 0.05


_A = np.arange(8.0)
_B = np.ones(8)


def _work() -> None:
    acc = 0
    table = {}
    for i in range(PROBE_LOOPS):
        acc += (i * i) % 7
        table[i & 255] = acc
    for _ in range(PROBE_CALLS):
        (_A + _B).max()
        np.dot(_A, _B)


def probe() -> float:
    """Seconds taken by a fixed piece of interpreter and numpy work, run
    once untimed first so that the caches hold it."""
    _work()
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


def speed(samples) -> float:
    """Mean speed over the probes, relative to the reference speed."""
    return statistics.fmean(REFERENCE_S / s for s in samples)


class SpeedProbe:
    """Probes the machine speed on a SIGALRM interval timer while entered,
    and once on entry and on exit, so that even a short interval has
    samples."""

    def __init__(self):
        self.samples: list[float] = []

    def _on_alarm(self, signum, frame) -> None:
        self.samples.append(probe())

    def __enter__(self) -> SpeedProbe:
        self.samples = [probe()]
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(probe())

    def scale(self, raw_s: float) -> float:
        """Reference-speed seconds of an interval that took raw_s with the
        probes inside it."""
        return (raw_s - sum(self.samples[1:-1])) * speed(self.samples)
