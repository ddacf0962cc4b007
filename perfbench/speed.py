"""A fixed reference computation that tracks the speed of the machine.

On a shared host, other tenants slow a VM for minutes at a time, by up to
1.8x, in CPU time as well as in wall time.  Runs minutes apart then differ
by more than any change to the program would.  The probe measures that
drift: it runs the same small computation, made of the three kinds of work
qskein does, between jobs, and ``factor()`` says how much slower than the
reference speed the machine ran over the run.  Dividing a run's timings by
it gives seconds at the reference speed.

The probe uses no qskein code, so a change to the program cannot move it.
It runs with the garbage collector off, so the program's heap does not
change its time either.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# Seconds one sample takes at the reference speed: the probe's median on a
# 2-vCPU VM on a shared Intel Xeon host during a quiet spell.
REFERENCE_S = 0.040
EVERY_S = 0.5           # sample at most this often, so the probe costs ~8 %


class Probe:
    def __init__(self):
        rng = random.Random(1)
        # Laurent-polynomial-like products: dicts keyed by exponent tuples
        self.terms = {(rng.randrange(-8, 8), rng.randrange(-8, 8)): rng.randrange(-50, 50)
                      for _ in range(60)}
        # a sparse LU factorization and solve (2-D Laplacian, 3,600 unknowns)
        side = sp.diags([-1, 2.5, -1], [-1, 0, 1], shape=(60, 60))
        eye = sp.identity(60)
        self.matrix = (sp.kron(eye, side) + sp.kron(side, eye)).tocsc()
        self.rhs = np.random.default_rng(0).standard_normal((3600, 2))
        # scattered reads over an 8 MB list of small (shared) ints; the probe
        # adds about 11 MB to the run's peak_rss_mb
        self.big = [i % 256 for i in range(1 << 20)]
        self.index = [rng.randrange(1 << 20) for _ in range(60_000)]
        self.samples = []
        self.last = float("-inf")

    def _work(self):
        for _ in range(15):
            out = {}
            for (i, j), x in self.terms.items():
                for (k, m), y in self.terms.items():
                    key = (i + k, j + m)
                    out[key] = out.get(key, 0) + x * y
        spla.splu(self.matrix).solve(self.rhs)
        total = 0
        for i in self.index:
            total += self.big[i]
        return total

    def sample(self):
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        try:
            self._work()
        finally:
            now = time.perf_counter()
            if enabled:
                gc.enable()
        self.samples.append(now - start)
        self.last = now

    def maybe(self):
        """Sample if EVERY_S has passed since the last sample."""
        if time.perf_counter() - self.last >= EVERY_S:
            self.sample()

    def factor(self, since=0):
        """How many times slower than the reference speed the samples from
        index since on ran."""
        return statistics.median(self.samples[since:]) / REFERENCE_S
