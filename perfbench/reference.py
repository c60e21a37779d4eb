"""Machine-speed references: fixed tasks no change to the program can move.

The machines this benchmark runs on are shared, and their speed drifts by up
to 1.6x over tens of seconds while other tenants load them; the CPU time of a
repetition drifts with its wall time, so the slowdown cannot be subtracted
out.  Each workload therefore times a reference task of the same kind as its
repetition right before every repetition and once after the last, and
reports each repetition's time scaled by ``NOMINAL_S / reference time`` (the
mean of the two references around it): seconds at the machine speed at
which the reference takes its nominal time.  The references use only
Python, NumPy and SciPy, never ``repro``.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

#: Each reference's time on an idle 2-CPU x86-64 Linux box.
NOMINAL_S = {"mixed": 0.017, "sparse_lu": 0.025, "process": 0.45}


def _grid_laplacian(shape: tuple[int, ...]) -> sp.csc_matrix:
    total = None
    for axis, n in enumerate(shape):
        line = sp.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)],
                        [-1, 0, 1])
        factors = [sp.eye(m) for m in shape]
        factors[axis] = line
        term = factors[0]
        for factor in factors[1:]:
            term = sp.kron(term, factor)
        total = term if total is None else total + term
    return (total + 1e-3 * sp.eye(total.shape[0])).tocsc()


class SparseLU:
    """Factor a 20x20x6 grid Laplacian and solve 13 right-hand sides: the
    kind of work the substrate Kron reduction does."""

    kind = "sparse_lu"

    def __init__(self):
        self.matrix = _grid_laplacian((20, 20, 6))
        self.rhs = np.zeros((self.matrix.shape[0], 13))
        self.rhs[np.arange(13) * 97, np.arange(13)] = 1.0

    def __call__(self) -> float:
        start = time.perf_counter()
        spla.splu(self.matrix).solve(self.rhs)
        return time.perf_counter() - start


class Mixed:
    """A small sparse LU plus interpreter-bound dict and complex arithmetic:
    the mix of a warm spur campaign.  The faster of two runs."""

    kind = "mixed"

    def __init__(self):
        self.matrix = _grid_laplacian((48, 48))
        self.rhs = np.ones((self.matrix.shape[0], 8))

    def _once(self) -> float:
        start = time.perf_counter()
        spla.splu(self.matrix).solve(self.rhs)
        table: dict[int, float] = {}
        for i in range(30000):
            table[i % 97] = table.get(i % 97, 0.0) + i * 0.5
        [complex(i, 1) * 1.5 for i in range(20000)]
        return time.perf_counter() - start

    def __call__(self) -> float:
        return min(self._once(), self._once())


class Process:
    """A fresh interpreter importing NumPy and SciPy's sparse solvers: the
    kind of work a process start and ``import repro`` do."""

    kind = "process"

    def __init__(self, spawn, env: dict[str, str], log: Path):
        self.spawn, self.env, self.log = spawn, env, log

    def __call__(self) -> float:
        child = self.spawn([sys.executable, "-c",
                            "import numpy, scipy.sparse.linalg"],
                           self.log, self.env)
        if child.exit_code != 0:
            raise RuntimeError("the process reference failed to start")
        return child.seconds


def scaled(times: list[float], references: list[float], kind: str) -> list[float]:
    """Scale ``times[i]`` by the references taken before and after it."""
    if len(references) != len(times) + 1:
        raise ValueError("need one reference before each time and one after")
    return [t * NOMINAL_S[kind] / (0.5 * (references[i] + references[i + 1]))
            for i, t in enumerate(times)]
