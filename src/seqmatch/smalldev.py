"""Second-order (finite-n) analysis: score covariances, the tie set of
rival hypotheses attaining the minimal population score, the multivariate
Gaussian CDF, the reject quantile, and the calibrated threshold that pins the
false-reject probability near a target level.

Also exposes the non-asymptotic converse slack terms as plain numbers.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq
from scipy.special import ndtr, ndtri, roots_legendre
from scipy.stats import qmc

from .core import Distribution, InputError, MatchHypothesis, NumericError
from .divergences import i1_arr, i2_arr
from .exponents import check_consistent, min_rival_score, population_score
from .hypotheses import HypothesisSpace

PSD_RIDGE = 1e-10
_QMC_SEED = 20240801
MVN_ABS_TOL = 1e-6
# the closed-form quantile bracket is widened by this fraction of sigma_max
_BRACKET_HAIR = 1e-6


def _cov_under(w: np.ndarray, f: np.ndarray, g: np.ndarray) -> float:
    ef = float(np.sum(w * f))
    eg = float(np.sum(w * g))
    return float(np.sum(w * f * g)) - ef * eg


def score_covariance(
    p_dists, q_dists, h1: MatchHypothesis, h2: MatchHypothesis, alpha: float
) -> float:
    """Asymptotic covariance of the two hypotheses' score statistics: shared
    x-indices contribute alpha-weighted first-density covariances, shared
    y-indices second-density covariances, all summed exactly over the
    alphabet."""
    total = 0.0
    for i, j in h1.pairs:
        p = p_dists[i].probs
        for i2, j2 in h2.pairs:
            if i2 == i:
                f = i1_arr(p, q_dists[j].probs, alpha)
                g = i1_arr(p, q_dists[j2].probs, alpha)
                total += alpha * _cov_under(p, f, g)
            if j2 == j:
                q = q_dists[j].probs
                f = i2_arr(p_dists[i].probs, q, alpha)
                g = i2_arr(p_dists[i2].probs, q, alpha)
                total += _cov_under(q, f, g)
    return total


def tie_set(
    p_dists,
    q_dists,
    space: HypothesisSpace,
    l: int,
    alpha: float,
    tol: float = 1e-9,
    *,
    big_lambda: float | None = None,
) -> list[int]:
    """Rival hypotheses whose population score ties the minimum within a
    relative tolerance, in ascending index order. `big_lambda` is that
    minimum (`min_rival_score`) when the caller already has it."""
    if space.count < 2:
        raise InputError("tie set needs at least two hypotheses")
    lam = big_lambda
    if lam is None:
        lam = min_rival_score(p_dists, q_dists, space, l, alpha)
    cut = lam + tol * (lam if lam > 0 else 1.0)
    return [
        t
        for t in range(space.count)
        if t != l and population_score(p_dists, q_dists, space[t], alpha) <= cut
    ]


def covariance_matrix(p_dists, q_dists, space, ties, alpha: float) -> np.ndarray:
    tau = len(ties)
    v = np.empty((tau, tau))
    for a in range(tau):
        for b in range(a, tau):
            v[a, b] = v[b, a] = score_covariance(
                p_dists, q_dists, space[ties[a]], space[ties[b]], alpha
            )
    return v


def _project_psd(cov: np.ndarray, budget: float = 1e-8):
    """Clip negative eigenvalues at zero (plus a ridge); error out when the
    most negative eigenvalue exceeds the regularization budget."""
    sym = 0.5 * (cov + cov.T)
    if not np.allclose(cov, cov.T, atol=1e-12 * max(1.0, float(np.abs(cov).max()))):
        raise InputError("covariance matrix must be symmetric")
    w, u = np.linalg.eigh(sym)
    scale = max(1.0, float(w.max(initial=0.0)))
    if w.min() < -budget * scale:
        raise NumericError(
            f"matrix is not PSD within budget: eigenvalues {w}, condition "
            f"{w.max() / max(abs(w.min()), 1e-300):.3e}"
        )
    if w.min() >= 0:
        return sym, False
    w = np.clip(w, 0.0, None) + PSD_RIDGE
    return (u * w) @ u.T, True


@functools.cache
def _legendre_rule():
    # computed on first use rather than at import: it loads about 0.5 MB of
    # code that callers never needing a bivariate CDF would carry
    return roots_legendre(96)


def _phi2(h: float, k: float, rho: float) -> float:
    """Standard bivariate normal CDF by Gauss-Legendre quadrature of the
    correlation-path integral; exact limits at |rho| = 1."""
    if rho >= 1.0 - 1e-12:
        return float(ndtr(min(h, k)))
    if rho <= -1.0 + 1e-12:
        return float(max(ndtr(h) + ndtr(k) - 1.0, 0.0))
    base = float(ndtr(h) * ndtr(k))
    if rho == 0.0:
        return base
    nodes, weights = _legendre_rule()
    r = 0.5 * rho * (nodes + 1.0)
    w = 0.5 * rho * weights
    one_m = 1.0 - r * r
    integrand = np.exp(-(h * h - 2.0 * r * h * k + k * k) / (2.0 * one_m)) / np.sqrt(one_m)
    return base + float(np.sum(w * integrand)) / (2.0 * math.pi)


# the longest scrambled Sobol draw so far, as (dimension, points): a shorter
# draw of the same dimension is a prefix of it, bit for bit
_sobol_draw: list = [0, np.empty((0, 0))]


def _sobol(dim: int, count: int) -> np.ndarray:
    """The first `count` points of the seeded scrambled Sobol set in `dim`
    dimensions, drawn anew only for a new dimension or a longer prefix."""
    if _sobol_draw[0] != dim or len(_sobol_draw[1]) < count:
        _sobol_draw[:] = dim, qmc.Sobol(dim, scramble=True, seed=_QMC_SEED).random(count)
    return _sobol_draw[1][:count]


def _qmc_mvn(upper: np.ndarray, chol: np.ndarray, n_pow: int = 14, batches: int = 8):
    """Genz sequential-conditioning estimate of P(Z <= upper) with a seeded
    scrambled Sobol sequence; returns (estimate, error estimate)."""
    d = upper.size
    m = 2**n_pow
    pts = _sobol(d - 1, m * batches)
    vals = np.empty(batches)
    for b in range(batches):
        u = pts[b * m : (b + 1) * m]
        f = np.ones(m)
        ys = np.zeros((m, d))
        e_prev = np.full(m, ndtr(upper[0] / chol[0, 0]))
        f *= e_prev
        for i in range(1, d):
            q = np.clip(u[:, i - 1] * e_prev, 1e-15, 1 - 1e-15)
            ys[:, i - 1] = ndtri(q)
            mu = ys[:, :i] @ chol[i, :i]
            e_prev = ndtr((upper[i] - mu) / chol[i, i])
            f *= e_prev
        vals[b] = f.mean()
    est = float(vals.mean())
    err = 3.0 * float(vals.std(ddof=1)) / math.sqrt(batches)
    return est, err


def mvn_cdf(
    upper,
    mean=None,
    cov=None,
    *,
    abs_tol: float = MVN_ABS_TOL,
    target: float | None = None,
    with_error: bool = False,
):
    """P(Z <= upper componentwise) for Z ~ N(mean, cov).

    tau = 1 uses the error function, tau = 2 deterministic quadrature (both
    report error 0), tau >= 3 seeded quasi-Monte Carlo (reproducible), whose
    sample size grows through 2^14, 2^16 and 2^18 points per batch until the
    error estimate is at most abs_tol. With a `target`, only the sign of
    P - target is asked for: the growth also stops once the estimate is
    farther than its error from the target, and the last estimate is returned
    however large its error; without one, an error above abs_tol at 2^18
    raises NumericError. `with_error=True` returns (estimate, error)."""
    est, err = _mvn_cdf(upper, mean, cov, abs_tol, target)
    return (est, err) if with_error else est


def _mvn_cdf(upper, mean, cov, abs_tol: float, target: float | None) -> tuple[float, float]:
    upper = np.atleast_1d(np.asarray(upper, dtype=np.float64))
    d = upper.size
    mean = np.zeros(d) if mean is None else np.atleast_1d(np.asarray(mean, dtype=np.float64))
    cov = np.eye(d) if cov is None else np.atleast_2d(np.asarray(cov, dtype=np.float64))
    if mean.size != d or cov.shape != (d, d):
        raise InputError("mvn_cdf dimensions disagree")
    z = upper - mean
    cov, _ = _project_psd(cov)
    sig = np.sqrt(np.diag(cov))

    # degenerate coordinates are deterministic zeros: drop them
    live = sig > 1e-150
    if not live.all():
        if np.any(z[~live] < 0):
            return 0.0, 0.0
        z, cov, sig = z[live], cov[np.ix_(live, live)], sig[live]
        d = z.size
        if d == 0:
            return 1.0, 0.0

    if d == 1:
        return float(ndtr(z[0] / sig[0])), 0.0
    if d == 2:
        rho = float(cov[0, 1] / (sig[0] * sig[1]))
        rho = min(1.0, max(-1.0, rho))
        return _phi2(z[0] / sig[0], z[1] / sig[1], rho), 0.0

    ridged = cov + PSD_RIDGE * np.eye(d)
    chol = np.linalg.cholesky(ridged)
    for n_pow in (14, 16, 18):
        est, err = _qmc_mvn(z, chol, n_pow=n_pow)
        if err <= abs_tol or (target is not None and abs(est - target) > err):
            return est, err
    if target is None:
        raise NumericError(f"mvn_cdf error estimate {err:.2e} above {abs_tol:.2e}")
    return est, err


def _cdf_slope(cov: np.ndarray, x: float) -> float:
    """d/dx P(Z <= x*1) for Z ~ N(0, cov): over the non-degenerate
    coordinates i, the density of Z_i at x times the probability that the
    others stay at most x given Z_i = x."""
    tau = cov.shape[0]
    total = 0.0
    for i in range(tau):
        var = float(cov[i, i])
        if var <= 1e-300:
            continue
        rest = np.arange(tau) != i
        beta = cov[rest, i] / var
        cond = cov[np.ix_(rest, rest)] - np.outer(beta, cov[i, rest])
        stay = mvn_cdf(np.full(tau - 1, x), x * beta, cond, abs_tol=1e-3)
        total += stay * math.exp(-0.5 * x * x / var) / math.sqrt(2.0 * math.pi * var)
    return total


def gaussian_reject_quantile(
    cov: np.ndarray, epsilon: float, *, tol: float = 1e-8, with_tol: bool = False
):
    """inf over L of {Phi_tau(L*1; 0; cov) >= 1 - epsilon}: the centered
    Gaussian quantile governing the second-order threshold shift.

    Solved once per (cov, epsilon, tol) per process and then memoised.
    `with_tol=True` returns (quantile, half-width to which it is known)."""
    if not 0.0 < epsilon < 1.0:
        raise InputError(f"epsilon must be in (0, 1), got {epsilon}")
    cov = np.ascontiguousarray(np.atleast_2d(np.asarray(cov, dtype=np.float64)))
    nu, nu_tol = _reject_quantile(cov.tobytes(), cov.shape, float(epsilon), float(tol))
    return (nu, nu_tol) if with_tol else nu


@functools.lru_cache(maxsize=64)
def _reject_quantile(cov_bytes: bytes, shape: tuple, epsilon: float, tol: float):
    """Brent's method on the closed-form bracket [sigma_max z(1 - eps),
    sigma_max z(1 - eps/tau)]: at the lower end P(max Z <= L) is at most the
    largest-variance marginal's 1 - eps, at the upper end the union bound
    over the tau marginals makes it at least 1 - eps. Each probe only needs the sign of
    P - (1 - eps), so its QMC sample grows only while the estimate is within
    its error of the target. The returned half-width is the QMC error at the
    root over the CDF slope there, and at least `tol` (Brent's xtol)."""
    cov = np.frombuffer(cov_bytes).reshape(shape)
    tau = shape[0]
    sig_max = float(np.sqrt(np.clip(np.diag(cov), 0.0, None)).max())
    if sig_max <= 1e-150:
        return 0.0, 0.0
    if tau == 1:
        return float(sig_max * ndtri(1.0 - epsilon)), 0.0
    target = 1.0 - epsilon
    hair = _BRACKET_HAIR * sig_max
    lo = sig_max * float(ndtri(1.0 - epsilon)) - hair
    hi = sig_max * float(ndtri(1.0 - epsilon / tau)) + hair
    ones = np.ones(tau)
    probes: dict[float, tuple[float, float]] = {}

    def gap(x: float) -> float:
        if x not in probes:
            est, err = mvn_cdf(x * ones, None, cov, target=target, with_error=True)
            g = est - target
            # no sample size settles the sign: x is the root to within its
            # error, and a zero stops Brent there
            probes[x] = (0.0 if abs(g) <= err and err > MVN_ABS_TOL else g, err)
        return probes[x][0]

    # either end can only miss its side of the target by QMC error: the
    # root is then that end
    if gap(lo) >= 0.0:
        root = lo
    elif gap(hi) <= 0.0:
        root = hi
    else:
        root = brentq(gap, lo, hi, xtol=tol)
    err = probes[root][1]
    if err == 0.0:
        return root, tol
    slope = _cdf_slope(cov, root)
    return root, max(tol, err / slope if slope > 0.0 else math.inf)


def second_order_threshold(n: int, epsilon: float, big_lambda: float, nu: float) -> float:
    """Threshold Lambda - nu/sqrt(n) at which the false-reject probability is
    pinned near epsilon."""
    if n < 1:
        raise InputError(f"n must be >= 1, got {n}")
    return big_lambda - nu / math.sqrt(n)


@dataclass(frozen=True)
class SmallDevAnalysis:
    big_lambda: float
    tie_set: tuple
    tau: int
    cov_matrix: np.ndarray
    nu_star: float
    nu_tol: float
    chi_star: float
    n: int
    epsilon: float
    psd_projected: bool


def analyze(
    p_dists,
    q_dists,
    space: HypothesisSpace,
    l: int,
    alpha: float,
    n: int,
    epsilon: float,
    tie_tol: float = 1e-9,
) -> SmallDevAnalysis:
    """Assemble the full second-order picture for hypothesis l, which must
    index the space and agree with (P, Q). nu* depends on the tie-set
    covariance and epsilon only, so across n it is solved once."""
    check_consistent(p_dists, q_dists, space[l])
    big_lambda = min_rival_score(p_dists, q_dists, space, l, alpha)
    ties = tie_set(p_dists, q_dists, space, l, alpha, tol=tie_tol, big_lambda=big_lambda)
    raw = covariance_matrix(p_dists, q_dists, space, ties, alpha)
    cov, projected = _project_psd(raw)
    nu, nu_tol = gaussian_reject_quantile(cov, epsilon, with_tol=True)
    chi = second_order_threshold(n, epsilon, big_lambda, nu)
    return SmallDevAnalysis(
        big_lambda=big_lambda,
        tie_set=tuple(ties),
        tau=len(ties),
        cov_matrix=cov,
        nu_star=nu,
        nu_tol=nu_tol,
        chi_star=chi,
        n=n,
        epsilon=epsilon,
        psd_projected=projected,
    )


def converse_slack(n: int, big_n: int, m1: int, m2: int, alphabet_size: int, lam: float) -> dict:
    """Non-asymptotic converse slack delta and the deflated threshold
    lambda - delta - log(n)/n; a negative result is reported as-is with a
    warning flag."""
    if n < 1 or big_n < 1:
        raise InputError("n and N must be >= 1")
    delta = (
        m1 * alphabet_size * math.log(big_n + 1.0) / big_n
        + m2 * alphabet_size * math.log(n + 1.0) / n
    )
    lam_tilde = lam - delta - math.log(n) / n
    return {
        "delta": delta,
        "lambda_tilde": lam_tilde,
        "negative_threshold": lam_tilde < 0,
    }
