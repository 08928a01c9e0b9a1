"""A fixed reference kernel, timed in the same process as the workload.

On a host whose cores are shared with other tenants, the same work can take
a quarter longer for tens of seconds at a time.  A timed run therefore also times this kernel right after each call and reports the
run time in units of the kernel's time (``run_ref``), which cancels most of
that drift; the wall time is printed beside it.

The kernel does the kinds of work a ``dynclear`` call does, on inputs that
never change: an interpreted Python loop, small dense NumPy products and
HiGHS solves through ``scipy.optimize.linprog``.  It imports nothing from
``dynclear``, so a change to the program cannot move it.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse
from scipy.optimize import linprog

#: Share of each call's time spent on the kernel right after the call.
SHARE = 0.12

_RNG = np.random.default_rng(20220527)
_DENSE = _RNG.random((150, 250))
_DENSE_B = _DENSE.sum(axis=1) * 0.3
_DENSE_C = -_RNG.random(250)
_SPARSE = scipy.sparse.random(
    800, 1200, density=0.005, random_state=_RNG, format="csr"
)
_SPARSE_B = np.asarray(_SPARSE.sum(axis=1)).ravel() * 0.3 + 0.01
_SPARSE_C = -_RNG.random(1200)
_M = _RNG.random((80, 80))


def _solve(c, a, b) -> None:
    res = linprog(c, A_ub=a, b_ub=b, bounds=(0, 1), method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")


def unit() -> None:
    """One unit of fixed work, about 0.25 s on a 2.1 GHz Xeon vCPU.  Half of
    it is an interpreted loop, a small dense LP and small matrix products,
    which slow down under contention about as much as the Python-bound
    workloads; the other half is a larger sparse LP, which slows down less,
    as the HiGHS-bound workloads do."""
    for _ in range(3):
        s = 0
        for i in range(60000):
            s += i * i % 7
        _solve(_DENSE_C, _DENSE, _DENSE_B)
        m = _M.copy()
        for _ in range(10):
            m = m @ m
            m /= m.max()
    _solve(_SPARSE_C, _SPARSE, _SPARSE_B)


def block(call_s: float) -> float:
    """Time kernel units for ``SHARE`` of ``call_s`` (at least one) and
    return the mean seconds per unit."""
    units = 0
    start = time.perf_counter()
    while units == 0 or time.perf_counter() - start < SHARE * call_s:
        unit()
        units += 1
    return (time.perf_counter() - start) / units
