"""Calibrated timing: each timed call measured against a fixed reference.

The machine this benchmark was built on (2 vCPUs shared with other
tenants) runs at anything from half to full speed, changing over seconds
to minutes, and ``time.process_time()`` changes with it.  Runs a few
minutes apart therefore differ by 20% to 30% in wall time with the same
program and inputs.

``Clock`` runs ``reference``, a fixed piece of pure-Python work that uses
nothing of ``preproj``, after every timed call (and once before the
first), and divides the call's time by the median time of the ``WINDOW``
reference runs on either side of it.  A slow spell stretches the call
and the references around it alike, so the quotient follows the program
and not the machine; the median over a few references keeps one
reference that a short hiccup hit from setting a call's time.  The
quotient is given in seconds at ``REFERENCE_S``, about the reference's
time on that machine at full speed, so a calibrated time reads as the
call's time there.
"""

import random
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.007
WINDOW = 2


def reference():
    """Row reduction mod p and over Q, and dict updates, of fixed inputs."""
    rng = random.Random(0)
    rank = 0
    for p in (7, 11, 13, 17):
        for _ in range(25):
            rows = [[rng.randrange(p) for _ in range(7)] for _ in range(6)]
            r = 0
            for c in range(7):
                pivot = next((i for i in range(r, 6) if rows[i][c]), None)
                if pivot is None:
                    continue
                rows[r], rows[pivot] = rows[pivot], rows[r]
                inv = pow(rows[r][c], -1, p)
                rows[r] = [x * inv % p for x in rows[r]]
                for i in range(6):
                    if i != r and rows[i][c]:
                        f = rows[i][c]
                        rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
                r += 1
            rank += r
    q = [[Fraction(rng.randrange(-3, 4), rng.randrange(1, 4)) for _ in range(5)] for _ in range(5)]
    for k in range(5):
        for i in range(k + 1, 5):
            if q[k][k]:
                f = q[i][k] / q[k][k]
                q[i] = [a - f * b for a, b in zip(q[i], q[k])]
    counts = {}
    for i in range(3000):
        counts[i % 37, i % 11] = counts.get((i % 37, i % 11), 0) + i
    return rank


def probe():
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start


class Clock:
    """Turns the wall times of consecutive calls into calibrated times.

    Create it right before the first timed call and ``record`` every
    call's wall time right after the call; nothing else should run in
    between.  A call's calibrated time needs the references after it, so
    ask for it with ``calibrated`` once the last call is recorded.
    """

    def __init__(self):
        self.probes = [probe()]
        self.calls = []

    def record(self, seconds):
        """Note a call's wall time; returns the index ``calibrated`` takes."""
        self.probes.append(probe())
        self.calls.append((seconds, len(self.probes) - 1))
        return len(self.calls) - 1

    def calibrated(self, index):
        seconds, after = self.calls[index]
        near = self.probes[max(0, after - WINDOW):after + WINDOW]
        return seconds * REFERENCE_S / statistics.median(near)
