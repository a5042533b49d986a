"""Reference kernel: fixed numpy/scipy work that gauges the host's speed.

The speed of a shared host drifts by up to ±20% within seconds, and the same
solves then take that much longer or shorter. Each timed solve is divided by
the time of this kernel, measured right before, during and right after it,
so the gated solve figures follow the solver and not the host. The kernel mixes the
three kinds of work the solver paths do: a dense LAPACK solve, a sparse LU
factorization and solve, and a 2-D FFT. It never calls ``sparseipm``, so no
change to the program moves it.
"""
from __future__ import annotations

import contextlib
import statistics
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

MIN_REPEATS = 3


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.dense = rng.standard_normal((180, 180)) + 180.0 * np.eye(180)
        side = 26
        lap1 = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(side, side))
        eye = sp.identity(side)
        self.sparse = (sp.kron(lap1, eye) + sp.kron(eye, lap1)).tocsc()
        self.rhs = rng.standard_normal(side * side)
        self.image = rng.standard_normal((256, 256))

    def work(self) -> float:
        x = np.linalg.solve(self.dense, self.dense)
        y = spla.splu(self.sparse).solve(self.rhs)
        z = np.fft.irfft2(np.fft.rfft2(self.image), s=self.image.shape)
        return float(x[0, 0] + y[0] + z[0, 0])

    def seconds(self, budget: float = 0.0) -> float:
        """Median wall time of the kernel over at least ``MIN_REPEATS`` runs
        and at least ``budget`` seconds."""
        times = []
        while len(times) < MIN_REPEATS or sum(times) < budget:
            t0 = time.perf_counter()
            self.work()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    @contextlib.contextmanager
    def during(self, module, name: str, interval: float, budget: float):
        """While active, a call of ``module.name`` first times the kernel
        when ``interval`` seconds have passed since the last sample. Yields
        the samples and the seconds they took, to be subtracted from the
        wall time of the enclosing solve."""
        original = getattr(module, name)
        found = {"samples": [], "spent_s": 0.0}
        last = time.perf_counter()

        def sampled(*args, **kwargs):
            nonlocal last
            now = time.perf_counter()
            if now - last >= interval:
                found["samples"].append(self.seconds(budget))
                last = time.perf_counter()
                found["spent_s"] += last - now
            return original(*args, **kwargs)

        setattr(module, name, sampled)
        try:
            yield found
        finally:
            setattr(module, name, original)
