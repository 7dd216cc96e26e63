"""Machine speed, sampled while an operation runs.

On a shared machine the same optimization can take a third longer from
one minute to the next.  A fixed reference kernel, built like the
program's own work (batched 4 x 4 eigendecompositions, the einsums of
propagators and gradients, and a Python loop of 4 x 4 products) but
sharing no code with it, slows down with it.  ``Sampler.sampling()``
times that kernel every ``interval_s`` from a SIGALRM handler, in the
main thread between bytecodes, so the samples spread over the whole
operation; the time they take is reported in ``spent_s`` for the caller
to subtract, and passed to ``on_sample`` as it happens.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

KERNEL_REPEATS = 7  # about 10 ms on a 2-CPU x86 container


class Sampler:
    def __init__(self, interval_s: float = 0.25):
        self.interval_s = interval_s
        a = np.random.default_rng(20181212).standard_normal((2, 50, 4, 4))
        z = a[0] + 1j * a[1]
        self._hams = z + z.conj().swapaxes(1, 2)
        self._ops = self._hams[:4]
        self.samples: list[float] = []
        self.spent_s = 0.0
        self.on_sample = None  # called with each sample's duration

    def kernel_seconds(self) -> float:
        t0 = time.perf_counter()
        for _ in range(KERNEL_REPEATS):
            w, v = np.linalg.eigh(self._hams)
            u = np.einsum("mij,mj,mkj->mik", v, np.exp(-1j * w), v.conj())
            e = np.einsum("mji,cjk,mkl->mcil", v.conj(), self._ops, v)
            np.einsum("mij,mcjl,mkl->mcik", v, e, v.conj())
            psi = np.zeros(4, dtype=complex)
            psi[0] = 1.0
            for m in range(len(u)):
                psi = u[m] @ psi
        return time.perf_counter() - t0

    def _sample(self, *_):
        t0 = time.perf_counter()
        self.samples.append(self.kernel_seconds())
        elapsed = time.perf_counter() - t0
        self.spent_s += elapsed
        if self.on_sample is not None:
            self.on_sample(elapsed)

    @contextmanager
    def sampling(self):
        """Sample at the start, every ``interval_s`` and at the end."""
        self.samples, self.spent_s = [], 0.0
        previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self._sample()

    @property
    def kernel_s(self) -> float:
        """Mean kernel time over the operation: the time-averaged slowness."""
        return statistics.fmean(self.samples)
