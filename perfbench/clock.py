"""Operation timing normalised to the machine's speed at the moment.

On shared machines the same pure-Python loop can take anywhere from 1x to
1.75x its best time for seconds at a stretch (neighbours on the same cores).
Every operation is therefore preceded by a short fixed calibration loop, and
its time is scaled to a machine on which that loop takes ``NOMINAL_S``:

    normalised = raw * NOMINAL_S / (median calibration within WINDOW_S of it)

Raw times are kept beside the normalised ones.  The loop is pure Python and
allocates nothing that lives, so it neither warms nor disturbs exform's state.
"""

from __future__ import annotations

import bisect
import statistics
import time

NOMINAL_S = 0.0006   # the loop's time on a 2-core 2.1 GHz x86 host, fast phase
LOOP = 6000
WINDOW_S = 0.5       # phases of a shared machine last seconds; single loops jitter


def calibrate() -> float:
    """Seconds the fixed loop takes now."""
    start = time.perf_counter()
    s, table = 0, {}
    for i in range(LOOP):
        s += i * i % 7
        table[i & 63] = s
    return time.perf_counter() - start


def normalise(ops, calibrations, window_s=WINDOW_S) -> list[float]:
    """Scale each operation's raw duration by the machine speed around it.

    ``ops`` holds (start time, raw seconds) pairs and ``calibrations``
    (start time, seconds) pairs, both on the ``time.perf_counter`` clock,
    which is shared by all processes of the machine.  The speed around an
    operation is the median of the calibrations that started from
    ``window_s`` before it began until ``window_s`` after it ended, widened
    to the nearest calibration on each side.  Without calibrations the raw
    time is returned.
    """
    calibrations = sorted(calibrations)
    times = [t for t, _ in calibrations]
    out = []
    for start, raw in ops:
        lo = max(bisect.bisect_left(times, start - window_s) - 1, 0)
        hi = bisect.bisect_right(times, start + raw + window_s) + 1
        window = [v for _, v in calibrations[lo:hi]]
        out.append(raw * NOMINAL_S / statistics.median(window) if window else raw)
    return out
