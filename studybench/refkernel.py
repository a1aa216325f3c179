"""A fixed numpy-plus-Python reference kernel (about 22 ms on a quiet core).

Half of it is short numpy calls and a Python loop on 32 KB of data, half is
array work on 5 MB buffers, more than the 4 MB L2 of the reference host:
host contention slows the first kind more than the second, and the studies
mix both.  The study interpreter times it before importing levyspde and after
the study (once its peak resident set has been read, so the kernel's arrays
never set that peak); it shows how fast the host ran at that moment and never
changes with levyspde.  The benchmark scales each study sample by QUIET_S over
the mean of the two kernel times, so the figure stays in seconds of a quiet
machine.

    OPENBLAS_NUM_THREADS=1 python3 studybench/refkernel.py [repeats]

prints the best kernel time over `repeats` runs (default 1000), the way
QUIET_S was set.
"""

import mmap
import sys
import time

import numpy as np

# Smallest of three `refkernel.py 1000` runs on the 2-core reference host
# (Intel Xeon, 2 vCPUs, one BLAS thread), 2026-10-18.
QUIET_S = 0.02195

_X = np.linspace(0.01, 4.0, 4096)
_LOGX = np.log(np.linspace(1.01, 5.0, 16384))
_J = np.arange(1.0, 41.0)
_SHAPE = (_LOGX.size, _J.size)  # 5.2 MB of doubles


def kernel(w: np.ndarray, low: np.ndarray, mask: np.ndarray) -> float:
    acc = 0.0
    for i in range(240):
        y = np.exp(-_X * (0.0025 * i)) * np.sin(_X * (1.0 + 0.25 * i))
        acc += float(np.dot(y, y)) + float(np.cumsum(y)[-1])
        for v in y[::64].tolist():
            acc += v * v
    np.multiply(_LOGX[:, None], _J[None, :], out=w)
    np.negative(w, out=w)
    np.exp(w, out=w)
    np.minimum.accumulate(w, axis=1, out=low)
    np.greater(w, low, out=mask)
    return acc + float(np.count_nonzero(mask)) + float(w.sum())


def timed(repeats: int = 3) -> float:
    """Best of a few kernel runs, in seconds.  The array half works in buffers
    mapped for this call and unmapped after it, so no memory stays with the
    interpreter and malloc's state is left alone; the first run pays their
    page faults, and the best run does not."""
    n = _SHAPE[0] * _SHAPE[1]
    best = float("inf")
    with mmap.mmap(-1, 8 * n) as mw, mmap.mmap(-1, 8 * n) as ml, mmap.mmap(-1, n) as mm:
        bufs = [np.frombuffer(m, dtype=t).reshape(_SHAPE) for m, t in ((mw, float), (ml, float), (mm, bool))]
        for _ in range(repeats):
            t0 = time.perf_counter()
            kernel(*bufs)
            best = min(best, time.perf_counter() - t0)
        del bufs
    return best


if __name__ == "__main__":
    print(f"{timed(int(sys.argv[1]) if len(sys.argv) > 1 else 1000):.6f}")
