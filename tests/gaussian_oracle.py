"""The Gaussian CDF and reject quantile as they were before one prepared
Gaussian per covariance, kept as a bitwise oracle for `seqmatch.smalldev.mvn_cdf`
and `seqmatch.smalldev.gaussian_reject_quantile`.

`mvn_cdf` checks and projects the covariance at every call, merges copies
only when that projection found a negative eigenvalue and then projects the
merged matrix again. `reject_quantile` projects the covariance once more to
validate it, and every Brent probe of `brent_quantile` calls `mvn_cdf` on the
raw matrix. The kernels (`_project_psd`, `_phi2`, `_phi3`, `_qmc_mvn`) are the
package's, unchanged.
"""

import math

import numpy as np
from scipy.optimize import brentq
from scipy.special import ndtr, ndtri

from seqmatch.core import InputError, NumericError
from seqmatch.smalldev import (
    _BRACKET_HAIR,
    _RIDGE_BAND,
    MVN_ABS_TOL,
    PSD_RIDGE,
    _phi2,
    _phi3,
    _project_psd,
    _qmc_mvn,
)


def merge_copies(z, cov):
    """Coordinates a, b with Var(Z_a - Z_b) = 0 to rounding (64 ulps of
    var_a + var_b) are one variable: keep the first, with the smaller of
    their limits."""
    cov = 0.5 * (cov + cov.T)
    var = np.diag(cov)
    z = z.copy()
    keep = []
    tol = 64.0 * np.finfo(np.float64).eps
    for b in range(z.size):
        for a in keep:
            if var[a] + var[b] - 2.0 * cov[a, b] <= tol * (var[a] + var[b]):
                z[a] = min(z[a], z[b])
                break
        else:
            keep.append(b)
    return z[keep], cov[np.ix_(keep, keep)]


def mvn_cdf(upper, mean=None, cov=None, abs_tol=MVN_ABS_TOL, target=None):
    """(estimate, error) of P(Z <= upper) for Z ~ N(mean, cov)."""
    upper = np.atleast_1d(np.asarray(upper, dtype=np.float64))
    d = upper.size
    mean = np.zeros(d) if mean is None else np.atleast_1d(np.asarray(mean, dtype=np.float64))
    cov = np.eye(d) if cov is None else np.atleast_2d(np.asarray(cov, dtype=np.float64))
    if mean.size != d or cov.shape != (d, d):
        raise InputError("mvn_cdf dimensions disagree")
    if np.isnan(upper).any() or not (np.isfinite(mean).all() and np.isfinite(cov).all()):
        raise InputError("mvn_cdf needs limits that are not NaN and a finite mean and covariance")
    z = upper - mean
    psd, projected = _project_psd(cov)
    ridge_dev = 0.0
    if projected:
        z, cov = merge_copies(z, cov)
        d = z.size
        psd, projected = _project_psd(cov)
        if projected:
            added = np.linalg.eigvalsh(psd - 0.5 * (cov + cov.T))[-1]
            ridge_dev = math.sqrt(max(float(added), 0.0))
    cov = psd
    sig = np.sqrt(np.diag(cov))

    live = sig > 1e-150
    if np.any(z == -np.inf) or np.any(z[~live] < 0):
        return 0.0, 0.0
    keep = live & (z < np.inf)
    if not keep.all():
        z, cov, sig = z[keep], cov[np.ix_(keep, keep)], sig[keep]
        d = z.size
        if d == 0:
            return 1.0, 0.0

    h = z / sig
    err = 0.0
    if ridge_dev > 0.0:
        err = float(np.sum(ridge_dev * _RIDGE_BAND / sig)) + d * 1.3e-15
    if d == 1:
        return float(ndtr(h[0])), err
    if d <= 3:
        r = np.clip(cov / np.outer(sig, sig), -1.0, 1.0)
        if d == 2:
            return float(_phi2(h[0], h[1], r[0, 1])), err
        return _phi3(h, r), err

    ridged = cov + PSD_RIDGE * np.eye(d)
    chol = np.linalg.cholesky(ridged)
    for n_pow in (14, 16, 18):
        est, err = _qmc_mvn(z, chol, n_pow=n_pow)
        if err <= abs_tol or (target is not None and abs(est - target) > err):
            return est, err
    if target is None:
        raise NumericError(f"mvn_cdf error estimate {err:.2e} above {abs_tol:.2e}")
    return est, err


def cdf_slope(cov, x):
    """d/dx P(Z <= x*1) for Z ~ N(0, cov), by this module's `mvn_cdf`."""
    tau = cov.shape[0]
    total = 0.0
    for i in range(tau):
        var = float(cov[i, i])
        if var <= 1e-300:
            continue
        rest = np.arange(tau) != i
        beta = cov[rest, i] / var
        cond = cov[np.ix_(rest, rest)] - np.outer(beta, cov[i, rest])
        stay = mvn_cdf(np.full(tau - 1, x), x * beta, cond, abs_tol=1e-3)[0]
        total += stay * math.exp(-0.5 * x * x / var) / math.sqrt(2.0 * math.pi * var)
    return total


def brent_quantile(cov, epsilon, sig_max, tol):
    """(root, half-width) by Brent's method on the closed-form bracket."""
    tau, target = cov.shape[0], 1.0 - epsilon
    hair = _BRACKET_HAIR * sig_max
    lo = sig_max * float(ndtri(1.0 - epsilon)) - hair
    hi = sig_max * float(ndtri(1.0 - epsilon / tau)) + hair
    probes = {}

    def gap(x):
        if x not in probes:
            est, err = mvn_cdf(np.full(tau, x), None, cov, target=target)
            g = est - target
            probes[x] = (0.0 if abs(g) <= err else g, err)
        return probes[x][0]

    if gap(lo) >= 0.0:
        root = lo
    elif gap(hi) <= 0.0:
        root = hi
    else:
        root = brentq(gap, lo, hi, xtol=tol)
    err = probes[root][1]
    slope = cdf_slope(cov, root) if err else math.inf
    return root, max(tol, err / slope if slope > 0.0 else math.inf)


def reject_quantile(cov, epsilon, tol=1e-8):
    """(nu*, its half-width) as `gaussian_reject_quantile(..., with_tol=True)`
    returned it, for a valid epsilon and a finite square covariance."""
    cov = np.atleast_2d(np.asarray(cov, dtype=np.float64))
    _project_psd(cov)
    sig_max = float(np.sqrt(np.clip(np.diag(cov), 0.0, None)).max())
    if sig_max <= 1e-150:
        return 0.0, 0.0
    if cov.shape[0] == 1:
        return float(sig_max * ndtri(1.0 - epsilon)), 0.0
    return brent_quantile(cov, epsilon, sig_max, tol)
