"""A speed probe: samples how fast the machine runs Python while a workload
runs, so that timings can be given at a fixed reference speed.

On a shared host the same operation can take twice as long from one second
to the next (other tenants on the same cores), and those phases last from
about a second to minutes, so medians of wall time spread more between runs
than any useful regression bound.  The probe runs one fixed chunk of
pure-Python work (fractions, a dict, a sort; the kinds of work `simra` does)
from a SIGALRM handler every `PERIOD_S` seconds of wall time, in the
measured process itself, and records how long each chunk took.  Because the
samples are evenly spaced in time, the time-weighted mean speed over an
interval is the mean of `REF_CHUNK_NS / chunk`, and a measured time scaled
by that mean is the time the same work would take at the reference speed.

Chunk time is taken out of the measured time (`own_ns`).  The garbage
collector is paused while a chunk runs, so the chunk never pays for
collecting the workload's objects (collection then happens in the
workload, where it belongs).
"""

from __future__ import annotations

import gc
import signal
from fractions import Fraction
from time import perf_counter_ns

PERIOD_S = 0.05

# The chunk's median time on the 2-vCPU Xeon host the benchmark was tuned
# on.  It only sets the scale: figures read close to that host's seconds.
REF_CHUNK_NS = 1_800_000


def chunk() -> int:
    acc, table, keys = Fraction(0), {}, []
    for i in range(1, 300):
        acc += Fraction(i % 7 + 1, i)
        table[i % 97] = table.get(i % 97, 0) + i
        keys.append(i * 2654435761 % 2**32)
    keys.sort()
    return acc.numerator % 1000 + len(table) + keys[0]


def speed(chunks: list[int]) -> float:
    """Mean speed relative to the reference over evenly spaced samples."""
    if not chunks:
        raise ValueError("no probe samples in the interval")
    return sum(REF_CHUNK_NS / c for c in chunks) / len(chunks)


class Probe:
    def __init__(self) -> None:
        self.chunks: list[int] = []  # duration of each chunk, in ns

    def _tick(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()
        t0 = perf_counter_ns()
        chunk()
        self.chunks.append(perf_counter_ns() - t0)
        if collecting:
            gc.enable()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def mark(self) -> int:
        return len(self.chunks)

    def own_ns(self, elapsed_ns: int, since: int, until: int | None = None) -> int:
        """`elapsed_ns` without the chunks run between marks `since` and `until`."""
        return elapsed_ns - sum(self.chunks[since:until])
