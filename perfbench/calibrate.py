"""Host-speed calibration kernel, served by a helper process.

On a shared host the vCPU itself runs faster or slower by up to a third
from one second to the next, and CPU time moves with wall time, so neither
can be read on its own.  This script times a fixed piece of work that does
not touch ``repro`` and is built like the workloads: stacked small
``eigh``, a sparse LU factorisation and solves, elementwise NumPy on short
vectors, gathers and a dot product over an array larger than cache, and
interpreted dict and float work.

``run.py`` starts it once per run, on the CPU the measured processes run
on, and sends it a line whenever it wants a sample: just before, during and
just after each timed process.  For each line it times one pass and answers
``<wall seconds> <CPU seconds>``.  Its first line of output records the
NumPy, SciPy and BLAS it runs on.  It runs apart from ``run.py`` because a
child's peak RSS, as ``wait4`` reports it, includes the RSS of the process
that started it: the benchmark process must stay smaller than any workload.
"""

import json
import sys
import time

import numpy as np
import scipy
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class Kernel:
    """The kernel's inputs, built once; ``sample`` times one pass."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        blocks = rng.standard_normal((48, 10, 10))
        self.blocks = blocks + blocks.transpose(0, 2, 1)
        n = 600
        band = sp.diags([-1.0, 4.0, -1.0], [-1, 0, 1], shape=(n, n))
        noise = sp.random(n, n, density=0.004, random_state=7)
        self.matrix = (band + noise + noise.T).tocsc()
        self.rhs = rng.standard_normal((n, 4))
        self.vector = rng.standard_normal(4000)
        # Larger than a core's share of cache: memory-bound work slows more
        # than the rest when neighbours contend for the cache.
        self.large = rng.standard_normal(4_000_000)
        self.gather = rng.integers(0, self.large.size, 200_000)
        self.sample()  # first pass pays for page faults

    def _work(self):
        total = 0.0
        for _ in range(10):
            values, vectors = np.linalg.eigh(self.blocks)
            total += float(values[:, -1].sum())
        lu = spla.splu(self.matrix)
        for _ in range(15):
            total += float(lu.solve(self.rhs)[0, 0])
        x = self.vector
        for _ in range(120):
            x = np.clip(0.5 * x + np.sqrt(np.abs(x)) - 0.25, -3.0, 3.0)
        total += float(x.sum())
        for _ in range(3):
            total += float(self.large[self.gather].sum())
            total += float(np.dot(self.large, self.large))
        table = {}
        for i in range(25000):
            key = (i * 7919) % 1021
            table[key] = table.get(key, 0.0) + i * 0.5 - key
        return total + sum(table.values())

    def sample(self):
        """One timed pass: ``(wall seconds, CPU seconds)``."""
        wall, cpu = time.perf_counter(), time.thread_time()
        self._work()
        return time.perf_counter() - wall, time.thread_time() - cpu


def libraries():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older NumPy has no dict form of its build config
        blas = "unknown"
    return {"numpy": np.__version__, "scipy": scipy.__version__, "blas": blas}


def main():
    kernel = Kernel()
    print(json.dumps(libraries()), flush=True)
    for _ in sys.stdin:
        wall, cpu = kernel.sample()
        print(f"{wall!r} {cpu!r}", flush=True)


if __name__ == "__main__":
    main()
