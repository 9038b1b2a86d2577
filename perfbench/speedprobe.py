"""Host speed probe: a fixed piece of work, timed every 20 ms inside a pass.

On a shared host the same code runs at different speeds from moment to
moment.  On the 2-vCPU machine this benchmark was written on, a fixed
``Fraction`` loop ran at one of two speeds, about 1.7x apart, switching
within a second or staying for minutes; the wall time of one and the same
pass spread by 25% (q3 - q1 over the median) over a few minutes.

``start()`` installs a ``SIGALRM`` interval timer.  Each tick runs
``probe()``, a fixed loop of ``Fraction`` arithmetic like hesslab's own,
and records when it started and ended.  ``units(probes, a, b)`` turns an
interval [a, b] of the pass into probe units: each stretch of time between
two probes, divided by the duration of the probe that ends it.  The
probes' own time is left out.  Multiplied by ``REF_NS``, that is the time
the interval would have taken at the reference speed, the speed at which
one probe takes ``REF_NS``.  ``REF_NS`` is a constant, not the fastest probe
of a run: a run that never saw the host at full speed would then read
slow.  It is close to the probe's duration on an unloaded vCPU of the
machine the benchmark was written on (the fastest probes of its runs took
111 to 125 us; Python 3.11.7), so there the times read close to wall
times on an idle host.

Signal handlers run between bytecodes of the main thread, so a probe
that falls due inside a long C call runs when the call returns; the
stretch before it is still weighted by the speed measured at its end.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

PERIOD_S = 0.02
REF_NS = 120_000
_TERMS = [Fraction(i, i + 7) for i in range(1, 41)]

probes: list[tuple[int, int]] = []    # (start_ns, end_ns) of each probe, monotonic clock


def probe(signum=None, frame=None) -> None:
    start = time.monotonic_ns()
    total = Fraction(0)
    for term in _TERMS:
        total += term * term
    probes.append((start, time.monotonic_ns()))


def start() -> None:
    signal.signal(signal.SIGALRM, probe)
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)


def stop() -> None:
    signal.setitimer(signal.ITIMER_REAL, 0, 0)
    signal.signal(signal.SIGALRM, signal.SIG_DFL)


def units(samples, a: int, b: int) -> float:
    """Time in [a, b] outside the probes, in durations of the probe that ends each stretch.

    The stretch after the last probe is weighted by the last probe.
    """
    total, prev = 0.0, a
    for start_ns, end_ns in samples:
        if end_ns <= a:
            continue
        if start_ns >= b:
            return total + (b - prev) / (end_ns - start_ns)
        total += max(0, start_ns - prev) / (end_ns - start_ns)
        prev = max(prev, end_ns)
    if not samples:
        raise ValueError("no probe ran in the interval")
    last_start, last_end = samples[-1]
    return total + max(0, b - prev) / (last_end - last_start)
