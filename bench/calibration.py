"""A fixed calibration kernel that measures how fast the CPU runs right now.

On a shared host the speed of one vCPU swings by up to half for seconds
to minutes at a time, so raw pass times of the same code spread more
than a regression bound allows.  While a pass runs, a timer signal
interrupts it every ``INTERVAL_S`` to run one short chunk of this kernel
on the same CPU, in the same process; the pass time, less the time spent
in the kernel, is then divided by the kernel's rate over that pass.

The kernel does the kinds of work a microtherm pass does (small sparse
LU solves and matrix-vector products, finite differences, norms, a
small dense eigensolve, dataclass construction and float formatting)
but calls nothing in microtherm, so a change to the package cannot
change it.  A signal handler runs between bytecodes, so a long call
into compiled code defers the chunk until it returns.
"""

import contextlib
import signal
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

UNIT_REPS = 30000   # reps in one calibration unit (cal): 0.7-1.9 s on a shared 2.0 GHz Xeon vCPU
CHUNK_REPS = 100    # reps per chunk, about 4 ms
INTERVAL_S = 0.1    # wall time from the end of one chunk to the next
_N = 96


@dataclass
class _Pair:
    left: np.ndarray
    right: np.ndarray

    def __post_init__(self):
        if self.left.shape != self.right.shape:
            raise ValueError("shape mismatch")


class Calibrator:
    """Accumulates kernel seconds and reps until ``take``."""

    def __init__(self):
        off = np.full(_N - 1, -1.0)
        mat = scipy.sparse.diags([off, np.full(_N, 4.0), off], [-1, 0, 1], format="csc")
        self._lu = scipy.sparse.linalg.splu(mat)
        self._csr = mat.tocsr()
        self._dense = np.add.outer(np.arange(12.0), np.arange(12.0) ** 2) / 100.0
        self._x = np.linspace(0.0, 1.0, _N)
        self.seconds = 0.0
        self.reps = 0

    def chunk(self):
        """Run CHUNK_REPS reps of the kernel and add their time."""
        x, out = self._x, []
        start = time.perf_counter()
        for _ in range(CHUNK_REPS):
            y = self._lu.solve(x)
            pair = _Pair(x, self._csr @ y)
            x = 0.5 * x + pair.right / (1.0 + np.linalg.norm(np.diff(pair.right)))
            out.append(format(float(x[3]), ".17g"))
        scipy.linalg.eigvals(self._dense + x[0])
        self.seconds += time.perf_counter() - start
        self.reps += CHUNK_REPS

    def _on_alarm(self, signum, frame):
        self.chunk()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    @contextlib.contextmanager
    def sampling(self):
        """Run a chunk now and then one every INTERVAL_S until the block
        ends; the timer is re-armed only after a chunk, so chunks never
        nest."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        try:
            self.chunk()
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def take(self):
        """Seconds per calibration unit since the last take, and reset."""
        unit_s = self.seconds / self.reps * UNIT_REPS
        self.seconds, self.reps = 0.0, 0
        return unit_s
