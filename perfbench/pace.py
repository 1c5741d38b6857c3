"""Host pace: how long a fixed piece of Python takes on this CPU right now.

The benchmark machine is a few virtual CPUs of a shared host, and each one
swings between a fast and a slow state (about 1.6x apart) for stretches of
a fraction of a second to a few seconds, independently of the others.  A
call's wall time therefore says as much about the host as about the code.

`Pace.time(fn)` times one call and, while it runs, runs a small reference
kernel from a SIGALRM handler every INTERVAL seconds, in the same thread and
so on the same CPU as the call.  The handler's own time is taken out of the
call's, and what is left is divided by the kernel's mean time over the call:
the call's length in kernel runs, which the host's state cancels from.  A
few kernel runs just before the call give the pace of calls too short to be
sampled inside.  Workers the call forks (the engine's `jobs` pool) sample
their own CPUs the same way and send their samples home through a pipe, so a
call whose work runs in them is paced by the CPUs it ran on.  Times by the
kernel's time on the measuring machine's fast state, REF_S, that length
reads as "paced seconds": what the call takes on that machine when nothing
slows it.

The kernel does what the package's inner loops do -- closures over a memo
dict, integer mixing, tuples, a set -- and runs with the cycle collector off,
so that a sample never pays for a collection the call would have made.
"""

from __future__ import annotations

import gc
import os
import signal
import struct
import statistics
from time import perf_counter

INTERVAL = 0.02          # seconds between samples inside a call
KERNEL_N = 60            # kernel size: 0.3 to 0.5 ms on the measuring machine
LEAD = 3                 # kernel runs just before each call
# one kernel run on the measuring machine (2 vCPUs of a KVM guest, Intel
# Xeon, CPython 3.11.7) in its fast state: 3000 runs had a median of 0.296 ms
# and a lower quartile of 0.290 ms
REF_S = 0.0003

_MASK = (1 << 64) - 1


def kernel(n: int = KERNEL_N) -> int:
    acc = 0
    seen = set()
    for i in range(n):
        memo: dict[int, int] = {}

        def cell(j: int, i=i, memo=memo) -> int:
            v = memo.get(j)
            if v is None:
                z = ((i + 1) * 0x9E3779B97F4A7C15 + j) & _MASK
                z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
                v = (z ^ (z >> 27)) % 3
                memo[j] = v
            return v
        row = tuple(cell(j) for j in range(8))
        if row not in seen:
            seen.add(row)
        acc += cell(3) + len(memo)
    return acc + len(seen)


def _timed_kernel() -> float:
    collecting = gc.isenabled()
    gc.disable()
    t0 = perf_counter()
    kernel()
    took = perf_counter() - t0
    if collecting:
        gc.enable()
    return took


class Pace:
    def __init__(self) -> None:
        self.samples: list[float] = []
        # non-blocking at both ends: a full pipe drops a worker's sample
        # rather than stalling the worker
        self._read, self._write = os.pipe()
        os.set_blocking(self._read, False)
        os.set_blocking(self._write, False)
        os.register_at_fork(after_in_child=self._in_worker)

    def _sample(self, *_) -> None:
        self.samples.append(_timed_kernel())

    def _in_worker(self) -> None:
        def sample(*_) -> None:
            took = _timed_kernel()
            try:
                os.write(self._write, struct.pack("d", took))
            except BlockingIOError:
                pass
        signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def _from_workers(self) -> list[float]:
        data = b""
        while True:
            try:
                chunk = os.read(self._read, 1 << 16)
            except BlockingIOError:
                break
            if not chunk:
                break
            data += chunk
        return [v for (v,) in struct.iter_unpack("d", data)]

    def time(self, fn) -> tuple[float, float]:
        """Call fn; return its clock seconds and its paced seconds."""
        self._from_workers()        # drop samples of earlier workers
        self.samples = []
        for _ in range(LEAD):
            self._sample()
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        t0 = perf_counter()
        try:
            fn()
        finally:
            wall = perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
        work = wall - sum(self.samples[LEAD:])
        pace = statistics.fmean(self.samples + self._from_workers())
        return work, work / pace * REF_S
