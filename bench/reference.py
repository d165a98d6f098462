"""Fixed reference kernel: the yardstick for the host's speed of the moment.

The benchmark runs on a few vCPUs of a shared host whose speed swings by up
to a factor of two, in CPU time as much as in wall time, over seconds to
minutes.  ``worker.py`` therefore runs this kernel between windows of ops and
scales each op's wall time by ``REF_S`` over the kernel's time measured
around it.  The kernel is the same kind of work as the ops (small Hermitian
eigendecompositions, SVDs and products through numpy, plus Python-level set
and dict work) and does not touch ``povmlab``, so a change to the toolkit
moves the scaled times exactly as it moves the wall times.

A workload whose ops run on a thread pool is scaled by the kernel run on as
many threads at once: those ops, like that kernel, wait on the interpreter
lock and on the other vCPU, which a single thread does not see.

The decompositions are bound here, at import, so the traced run's patches of
``numpy.linalg`` never see the kernel.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

import numpy as np
from numpy.linalg import eigh, eigvalsh, svd

# one run of the kernel on one thread counts as taking exactly this long; it
# takes about that on a quiet 2-vCPU host, so single-threaded scaled times
# read close to wall times there.  On k threads at once it counts as k * REF_S.
REF_S = 1e-3
REPEATS = 4

_rng = np.random.default_rng(20260417)
_A = _rng.standard_normal((16, 16)) + 1j * _rng.standard_normal((16, 16))
_H = _A + _A.conj().T
_R = _rng.standard_normal((16, 16))
_S = _R + _R.T


def _kernel() -> None:
    for _ in range(REPEATS):
        w, v = eigh(_H)
        svd(_H, compute_uv=False)
        eigvalsh(_S)
        m = (v * np.sqrt(np.abs(w))) @ v.conj().T
        m = m @ _H @ m.conj().T
        cells = {}
        for k in range(200):
            cells[frozenset((k, k + 1))] = k
        np.allclose(m, m.conj().T)


class Reference:
    """Times the kernel run on ``threads`` threads at once; the helper
    threads stay up between calls, so no call pays for starting one."""

    def __init__(self, threads: int = 1):
        self.threads = threads
        self.nominal_s = threads * REF_S
        self._pool = ThreadPoolExecutor(threads - 1) if threads > 1 else None

    def __call__(self) -> float:
        """Wall time of one run on every thread, in seconds."""
        t0 = perf_counter()
        helpers = [self._pool.submit(_kernel) for _ in range(self.threads - 1)]
        _kernel()
        for helper in helpers:
            helper.result()
        return perf_counter() - t0

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()

    def __enter__(self) -> "Reference":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
