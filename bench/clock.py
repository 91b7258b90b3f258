"""Normalized timing: wall time corrected for the speed the host gives us.

On a shared host the same code can run at very different speeds from one
minute to the next (on the 2-vCPU Xeon this benchmark was written on, a fixed
computation swung between about 31 and 65 ms within a few minutes), so raw
wall times of two runs differ by more than any bound worth setting.  A probe,
a fixed computation that does not touch torpers, is timed right before and
right after each measured call and every SAMPLE_EVERY seconds during it.
Each stretch of the call between two probes is scaled by REF_SECONDS over the
mean of those two probe times: the seconds it would have taken at the speed
where the probe takes REF_SECONDS.  The probe is built from the same kind of
work torpers does (Python loops over small numpy integer matrices reduced
mod p), so it slows down and speeds up with it.
"""

import random
import signal
import time

import numpy as np

# The probe's time at the speed normalized times refer to: about its time on
# the host above when that host is at its usual (busier) speed.
REF_SECONDS = 0.003
SAMPLE_EVERY = 0.25  # wall seconds between probes taken during a call
_P = 5
_rng = random.Random(0)
_MATRICES = [
    np.array([[_rng.randrange(_P) for _ in range(6)] for _ in range(5)], dtype=np.int64)
    for _ in range(20)
]


def _eliminate(m):
    m = m.copy()
    row = 0
    for col in range(m.shape[1]):
        if row == m.shape[0]:
            break
        nz = np.nonzero(m[row:, col])[0]
        if len(nz) == 0:
            continue
        k = row + nz[0]
        if k != row:
            m[[row, k]] = m[[k, row]]
        m[row] = (m[row] * pow(int(m[row, col]), _P - 2, _P)) % _P
        for i in np.nonzero(m[:, col])[0]:
            if i != row:
                m[i] = (m[i] - m[i, col] * m[row]) % _P
        row += 1
    return m


def probe():
    """Wall seconds of one fixed computation: RREF mod 5 of 20 small matrices."""
    t0 = time.perf_counter()
    for m in _MATRICES:
        _eliminate(m)
    return time.perf_counter() - t0


class Clock:
    """Times calls back to back, each between probes.

    The probes during a call run from a SIGALRM handler, so between two
    bytecodes of the call; their own time is left out of the call's.  Call
    `mark()` after other work, so the next call's first probe is fresh.
    """

    def __init__(self):
        self.probes = []  # every probe time, in order
        self.mark()

    def mark(self):
        self.probes.append(probe())

    def time(self, fn, *args):
        """(result, wall seconds, normalized seconds) of fn(*args)."""
        inner = []  # (start, end, probe seconds) of the probes during the call

        def sample(signum, frame):
            start = time.perf_counter()
            p = probe()
            inner.append((start, time.perf_counter(), p))

        before = self.probes[-1]
        previous = signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            t1 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        inner = [q for q in inner if q[0] < t1]
        self.probes.extend(p for _, _, p in inner)
        self.mark()
        wall = norm = 0.0
        start, p_start = t0, before
        for p_begin, p_end, p in inner + [(t1, t1, self.probes[-1])]:
            wall += p_begin - start
            norm += (p_begin - start) * 2 * REF_SECONDS / (p_start + p)
            start, p_start = p_end, p
        return result, wall, norm
