"""A fixed reference computation that measures how fast the machine runs now.

On a shared machine the same pass can take 60 % longer from one minute
to the next.  The benchmark runs ``probe()`` between operations and
scales the times of a pass by how long the probes in it took, so that
they are in seconds at one fixed reference speed (the speed at which
``probe()`` takes PROBE_S).  The probe does the kind of work dgcat
does, exact rational elimination and dict updates in pure Python, and
does not call dgcat, so no change to dgcat changes it.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# probe() time on the reference machine; this fixes the unit of every
# scaled time, and changing it rescales them all
PROBE_S = 0.012

N = 12


def probe():
    """Seconds taken by one run of the reference computation."""
    started = time.perf_counter()
    m = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) for j in range(N)]
         for i in range(N)]
    for c in range(N):
        pivot = next((r for r in range(c, N) if m[r][c] != 0), None)
        if pivot is None:
            continue
        m[c], m[pivot] = m[pivot], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for r in range(N):
            if r != c and m[r][c] != 0:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    counts = {}
    for i in range(3000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + i
    return time.perf_counter() - started


def scale(seconds, probes):
    """``seconds`` measured while the probe took ``probes`` seconds, in
    seconds at the reference speed; the median probe sets the speed, so
    that one probe slowed by a collection or an interrupt does not."""
    return seconds * PROBE_S / statistics.median(probes)
