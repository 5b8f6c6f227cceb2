"""Host-speed calibration: a fixed kernel, timed between jobs.

The shared VM this benchmark was tuned on switches between speed states for
seconds to minutes at a time; the fast state ran interpreter-bound jobs up
to 1.6 times faster than the slow one.  Raw wall and CPU times then measure
the host's state more than the code, and two sets of runs of the same
commit disagree by more than any useful bound.

So after every job, outside its timed region, the benchmark times a fixed
kernel that never calls codedmm.  Each workload's kernel is the same kind of
work as its hot path:

- `elimination` (sim-small, fault-repair): a Python-int loop and
  Gauss-Jordan-style row operations on small int64 and object-dtype arrays,
  the shape of `linalg` elimination and of the per-block Python overhead;
- `matmul` (bulk-512): an int64 256x256 by 256x32 product reduced mod q,
  the shape of one worker product.

A job's times are multiplied by REF_MS / k, where k is the median kernel
time over the job's cycle and the cycles either side.  The result reads as
milliseconds on a host where the kernel takes REF_MS, the kernel's median on
the reference host (2-core VM, Python 3.11.7, numpy 2.4.6) in its slow
state.  A change to codedmm moves a scaled time exactly as much as the raw
one, because the kernel does not depend on codedmm.  Raw times stay in the
report.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

_Q64 = 65537
_QBIG = 2**61 - 1
_gen = np.random.default_rng(20180121)
_ROWS64 = _gen.integers(0, _Q64, size=(12, 40))
_ROWSOBJ = np.array(_gen.integers(0, _QBIG, size=(10, 20)).tolist(), dtype=object)
_MAT_A = _gen.integers(0, _Q64, size=(256, 256))
_MAT_B = _gen.integers(0, _Q64, size=(256, 32))


def _row_ops(a: np.ndarray, q: int, sweeps: int) -> None:
    """Eliminate against row 0, keeping every entry a full-size residue."""
    for _ in range(sweeps):
        for r in range(1, a.shape[0]):
            a[r] = (a[r] - (a[r, 0] + 1) * a[0]) % q


def elimination() -> None:
    s = 1
    for i in range(4000):
        s = (s * 1000003 + i) % _QBIG
    _row_ops(_ROWS64.copy(), _Q64, 4)
    _row_ops(_ROWSOBJ.copy(), _QBIG, 3)


def matmul() -> None:
    (_MAT_A.T @ _MAT_B) % _Q64


# kernel and REF_MS, its median on the reference host in the slow state
KERNELS = {"elimination": (elimination, 1.8), "matmul": (matmul, 4.1)}


class Calibration:
    """Times one workload's kernel and turns kernel times into scale factors."""

    def __init__(self, name: str):
        self.name = name
        self.kernel, ref_ms = KERNELS[name]
        self.ref_s = ref_ms / 1e3
        self.kernel()  # first call pays for page faults and caches

    def sample(self) -> float:
        t = perf_counter()
        self.kernel()
        return perf_counter() - t

    def scale(self, samples: list[float]) -> float:
        return self.ref_s / statistics.median(samples)

    def cycle_scales(self, per_cycle: list[list[float]]) -> list[float]:
        """One factor per cycle, from its samples and its neighbours'."""
        n = len(per_cycle)
        return [
            self.scale([x for c in range(max(i - 1, 0), min(i + 2, n)) for x in per_cycle[c]])
            for i in range(n)
        ]
