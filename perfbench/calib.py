"""The machine's speed, measured next to every op by a fixed kernel.

A shared host's speed drifts by 15-30% over seconds to minutes, as other
tenants come and go, and that drift moves every op of a run together. So each
op is timed between two runs of a fixed kernel that never touches seqmatch,
and the end-to-end times are reported at the reference speed, at which the
kernel takes REF_S seconds:

    op time at reference speed = op seconds * REF_S / kernel seconds,

with the kernel's seconds the mean of its runs just before and just after the
op. The kernel mixes the kinds of work the workloads do: interpreter work on
dicts and tuples, many numpy calls on tiny arrays, special functions over
arrays larger than a core's private cache, and small SLSQP solves. The raw op
seconds are kept beside the reported values.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.optimize import minimize
from scipy.special import ndtr, ndtri

# about the kernel's median time, back to back, on the 2-vCPU
# "Intel(R) Xeon(R) Processor" host the benchmark was first measured on
REF_S = 0.23

_TINY_P = np.linspace(0.1, 0.9, 4)
_TINY_Q = _TINY_P[::-1].copy()
_LARGE = np.linspace(1e-6, 1.0 - 1e-6, 1 << 18)  # 2 MiB
# min D(x || P) over the simplex subject to D(x || Q) <= 0.05: SLSQP takes the
# same fixed path on every run
_P = np.array([0.1, 0.2, 0.3, 0.4])
_Q = np.full(4, 0.25)
_X0 = np.array([0.4, 0.3, 0.2, 0.1])


def _kl(x, ref) -> float:
    return float(np.sum(x * np.log(np.maximum(x, 1e-300) / ref)))


_CONSTRAINTS = (
    {"type": "eq", "fun": lambda x: float(np.sum(x) - 1.0)},
    {"type": "ineq", "fun": lambda x: 0.05 - _kl(x, _Q)},
)


def kernel_seconds() -> float:
    """Time one run of the fixed kernel."""
    t0 = time.perf_counter()
    counts: dict = {}
    for i in range(64_000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + 1
    for _ in range(5_000):
        float(np.sum(_TINY_P * np.log(_TINY_P / _TINY_Q)))
    for _ in range(5):
        float(ndtr(ndtri(_LARGE) * 0.5).sum())
    for _ in range(12):
        minimize(
            _kl, _X0, args=(_P,), method="SLSQP", bounds=[(1e-12, 1.0)] * 4,
            constraints=_CONSTRAINTS, options={"ftol": 1e-14, "maxiter": 300},
        )
    return time.perf_counter() - t0


def at_reference(op_seconds, kernel_seconds_) -> list[float]:
    """Op times at reference speed. `kernel_seconds_` has one more entry than
    `op_seconds`: op i ran between kernel runs i and i + 1."""
    if len(kernel_seconds_) != len(op_seconds) + 1:
        raise ValueError(f"{len(op_seconds)} ops need {len(op_seconds) + 1} kernel runs, got {len(kernel_seconds_)}")
    return [
        dt * REF_S * 2.0 / (kernel_seconds_[i] + kernel_seconds_[i + 1])
        for i, dt in enumerate(op_seconds)
    ]
