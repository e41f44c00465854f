"""Information measures: KL, generalized Jensen-Shannon, Renyi, information
densities, and the weighted-KL minimizer with geometric-mean closed form.

All logarithms are natural (nats). KL may return +inf (absolutely continuous
failure); GJS is always finite. The 0*log 0 = 0 convention is enforced
explicitly everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .core import Distribution, InputError, NumericError, check_alpha


def _check_same_alphabet(p: Distribution, q: Distribution) -> None:
    if p.size != q.size:
        raise InputError(f"alphabet mismatch: {p.size} vs {q.size}")


# -- raw ndarray kernels (hot paths operate on plain arrays) ----------------

def kl_arr(p: np.ndarray, q: np.ndarray) -> float:
    mask = p > 0
    if np.any(q[mask] <= 0):
        return math.inf
    pm = p[mask]
    return float(np.sum(pm * np.log(pm / q[mask])))


def gjs_arr(p: np.ndarray, q: np.ndarray, alpha: float):
    """GJS over the last axis of broadcast arrays (a float for two rows), as
    alpha p log1p((p - q)/(alpha p + q)) + q log1p(alpha (q - p)/(alpha p + q)),
    which keeps the digits of p - q where p and q nearly agree; 0 log 0 = 0.
    Unlike `info_densities` it needs no log branch: at a tiny p/q the factor
    p scales log1p's error down to about eps (alpha p + q), so it only costs."""
    den = alpha * p + q
    with np.errstate(divide="ignore", invalid="ignore"):
        tp = np.where(p > 0.0, p * np.log1p((p - q) / den), 0.0)
        tq = np.where(q > 0.0, q * np.log1p(alpha * (q - p) / den), 0.0)
    v = np.maximum((alpha * tp + tq).sum(axis=-1), 0.0)  # clamp float noise
    return float(v) if v.ndim == 0 else v


def _xlogx(c: np.ndarray, inv_len) -> np.ndarray:
    """c log(c / len) of non-negative integer counts c, with 0 log 0 = 0."""
    t = np.maximum(c, 1.0)
    t *= inv_len
    np.log(t, out=t)
    t *= c
    return t


def gjs_table(cx: np.ndarray, cy: np.ndarray) -> np.ndarray:
    """GJS(c/N, d/n, N/n) of every x count row c against every y count row d.

    cx: (S, M1, ...) integer counts of length N, cy: (S, M2, ...) of length n,
    symbol axis first, trailing (trial) axes broadcast -> (M1, M2, ...). With
    s = c + d, n GJS = sum c log(c/N) + sum d log(d/n) - sum s log(s/(N+n)):
    one logarithm per pair and symbol, one symbol at a time, so no temporary
    outgrows the table."""
    big_n, n = cx[:, :1].sum(axis=0), cy[:, :1].sum(axis=0)
    table = _xlogx(cx, 1.0 / big_n).sum(axis=0)[:, None] + _xlogx(cy, 1.0 / n).sum(axis=0)[None]
    inv, equal = 1.0 / (big_n + n), True
    for c, d in zip(cx, cy):
        table -= _xlogx(c[:, None] + d[None], inv)
        equal &= (c * n)[:, None] == (d * big_n)[None]
    table /= n
    np.copyto(table, 0.0, where=equal)  # equal types: exactly 0, not rounding noise
    return np.maximum(table, 0.0, out=table)


def stacked_densities(pq: np.ndarray, alpha: float) -> np.ndarray:
    """The information densities log((1+a)p/(ap+q)) and log((1+a)q/(ap+q))
    of a stacked operand, p = pq[0] and q = pq[1], as one (2, ...) array, 0
    where p (q) is 0: log1p of (p - q)(1, -a)/(ap + q) where it is below 0.5
    in size, keeping the digits of p - q ((p - q)(-a) is a(q - p) to the
    bit), and else the log of the ratio, keeping those of a tiny ratio."""
    p, q = pq
    den = alpha * p + q
    with np.errstate(divide="ignore", invalid="ignore"):
        r = (p - q) * np.array([1.0, -alpha]).reshape((2,) + (1,) * den.ndim)
        r /= den
        d = np.log1p(r)
        np.log((1.0 + alpha) * pq / den, out=d, where=np.abs(r) >= 0.5)
    np.copyto(d, 0.0, where=pq == 0.0)
    return d


def info_densities(p: np.ndarray, q: np.ndarray, alpha: float) -> np.ndarray:
    """`stacked_densities` of broadcast arrays p and q: unpacks as (i1, i2)."""
    return stacked_densities(np.stack(np.broadcast_arrays(p, q)), alpha)


# -- public typed operations -------------------------------------------------

def kl(p: Distribution, q: Distribution) -> float:
    """D(p||q) in nats; +inf when q misses mass where p has some."""
    _check_same_alphabet(p, q)
    return kl_arr(p.probs, q.probs)


def gjs(p: Distribution, q: Distribution, alpha: float) -> float:
    """Generalized Jensen-Shannon divergence
    alpha*D(p||m) + D(q||m) with m = (alpha*p + q)/(1+alpha)."""
    _check_same_alphabet(p, q)
    check_alpha(alpha)
    return gjs_arr(p.probs, q.probs, alpha)


def renyi(p: Distribution, q: Distribution, gamma: float) -> float:
    """Renyi divergence of order gamma != 1: log(sum p^g q^(1-g))/(g-1)."""
    _check_same_alphabet(p, q)
    if gamma == 1.0:
        raise InputError("Renyi order 1 is the KL divergence; use kl()")
    pa, qa = p.probs, q.probs
    if gamma < 1.0:
        mask = (pa > 0) & (qa > 0)
        if not mask.any():
            return math.inf
    else:
        mask = pa > 0
        if np.any(qa[mask] <= 0):
            return math.inf
    s = float(np.sum(pa[mask] ** gamma * qa[mask] ** (1.0 - gamma)))
    return math.log(s) / (gamma - 1.0)


def _info_density(side: int, x: int, p: Distribution, q: Distribution, alpha: float) -> float:
    _check_same_alphabet(p, q)
    check_alpha(alpha)
    if isinstance(x, bool) or not isinstance(x, Integral) or not 0 <= x < p.size:
        raise InputError(f"symbol {x!r} is not in the alphabet 0..{p.size - 1}")
    if (p, q)[side].probs[x] <= 0:
        raise NumericError(f"info_density_{side + 1} undefined at symbol {x}: {'pq'[side]}(x)=0")
    return float(info_densities(p.probs, q.probs, alpha)[side][x])


def info_density_1(x: int, p: Distribution, q: Distribution, alpha: float) -> float:
    """log((1+a)p(x) / (a p(x) + q(x))); requires p(x) > 0."""
    return _info_density(0, x, p, q, alpha)


def info_density_2(x: int, p: Distribution, q: Distribution, alpha: float) -> float:
    """log((1+a)q(x) / (a p(x) + q(x))); requires q(x) > 0."""
    return _info_density(1, x, p, q, alpha)


# -- weighted-KL minimization ------------------------------------------------

@dataclass(frozen=True)
class WeightedKlProblem:
    """min over a single distribution Psi of sum_i w_i * D(Psi || R_i)."""

    targets: tuple
    weights: tuple

    def __post_init__(self):
        ts = tuple(self.targets)
        ws = tuple(float(w) for w in self.weights)
        if len(ts) != len(ws) or not ts:
            raise InputError("targets and weights must be equally long and non-empty")
        if any(w <= 0 for w in ws):
            raise InputError("all weights must be positive")
        sizes = {t.size for t in ts}
        if len(sizes) != 1:
            raise InputError("targets must share one alphabet")
        object.__setattr__(self, "targets", ts)
        object.__setattr__(self, "weights", ws)


def min_weighted_kl(problem: WeightedKlProblem) -> tuple[float, Distribution | None]:
    """Closed form via stationarity: the argmin is the normalized weighted
    geometric mean of the targets and the value is -W*log(normalizer).

    Returns (+inf, None) when the targets' supports have empty intersection.
    """
    w = np.asarray(problem.weights)
    big_w = float(w.sum())
    mats = np.stack([t.probs for t in problem.targets])
    support = np.all(mats > 0, axis=0)
    if not support.any():
        return math.inf, None
    logg = np.full(mats.shape[1], -math.inf)
    logg[support] = np.sum(
        (w[:, None] / big_w) * np.log(mats[:, support]), axis=0
    )
    g = np.exp(logg)
    z = float(g.sum())
    value = -big_w * math.log(z)
    if -1e-12 < value < 0.0:
        value = 0.0
    return value, Distribution(g / z)
