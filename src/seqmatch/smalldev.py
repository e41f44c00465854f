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

from .core import InputError, MatchHypothesis, NumericError, check_alpha, check_length, check_lengths
from .divergences import info_densities
from .exponents import check_consistent, check_shape, population_scores, rivals
from .hypotheses import HypothesisSpace

PSD_RIDGE = 1e-10
# the probability mass, per deviation of the ridge's noise, of a band of
# 8 such deviations on either side of a limit: 16 / sqrt(2 pi)
_RIDGE_BAND = 16.0 / math.sqrt(2.0 * math.pi)
_QMC_SEED = 20240801
MVN_ABS_TOL = 1e-6
# the closed-form quantile bracket is widened by this fraction of sigma_max
_BRACKET_HAIR = 1e-6


def _score_covariance(p_dists, q_dists, t, i, j, alpha: float) -> np.ndarray:
    """G W G^T for the hypotheses 0..t[-1], where hypothesis t[c] holds the
    pair (i[c], j[c]) and t ascends. Row t of G holds, for each pair (i, j)
    of hypothesis t, the first information density of (P_i, Q_j) centred
    under P_i in x-block i, and the second centred under Q_j in y-block j;
    W weighs x-block i by alpha*P_i and y-block j by Q_j, so an entry sums
    the covariances over the sequences two hypotheses share."""
    p = np.array([d.probs for d in p_dists])
    q = np.array([d.probs for d in q_dists])
    d1, d2 = info_densities(p[i], q[j], alpha)
    g = np.zeros((t[-1] + 1, len(p) + len(q), p.shape[1]))
    g[t, i] = d1 - np.sum(p[i] * d1, axis=1, keepdims=True)
    g[t, len(p) + j] = d2 - np.sum(q[j] * d2, axis=1, keepdims=True)
    g = (g * np.sqrt(np.concatenate([alpha * p, q]))).reshape(len(g), -1)
    return g @ g.T


def score_covariance(
    p_dists, q_dists, h1: MatchHypothesis, h2: MatchHypothesis, alpha: float
) -> float:
    """Asymptotic covariance of the two hypotheses' score statistics: shared
    x-indices contribute alpha-weighted first-density covariances, shared
    y-indices second-density covariances, all summed exactly over the
    alphabet."""
    check_alpha(alpha)
    check_shape(p_dists, q_dists, h1)
    check_shape(p_dists, q_dists, h2)
    t, i, j = np.array([(t, i, j) for t, h in enumerate((h1, h2)) for i, j in h.pairs]).T
    return float(_score_covariance(p_dists, q_dists, t, i, j, alpha)[0, 1])


def tie_set(
    p_dists, q_dists, space: HypothesisSpace, l: int, alpha: float, tol: float = 1e-9
) -> list[int]:
    """Rival hypotheses whose population score ties the minimum within a
    relative tolerance, in ascending index order."""
    return rivals(population_scores(p_dists, q_dists, space, alpha), l, tol=tol)[1]


def covariance_matrix(p_dists, q_dists, space, ties, alpha: float) -> np.ndarray:
    """Score covariance of the hypotheses `ties` of the space, in that order."""
    check_alpha(alpha)
    check_shape(p_dists, q_dists, space=space)
    t = np.arange(len(ties)).repeat(space.k)
    i, j = space.pairs(ties).reshape(-1, 2).T
    return _score_covariance(p_dists, q_dists, t, i, j, alpha)


def _project_psd(cov: np.ndarray, budget: float = 1e-8):
    """Clip negative eigenvalues at zero (plus a ridge); error out when the
    most negative eigenvalue exceeds the regularization budget."""
    sym = 0.5 * (cov + cov.T)
    if not np.allclose(cov, cov.T, rtol=0.0, atol=1e-12 * max(1.0, float(np.abs(cov).max()))):
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


def _merge_copies(cov: np.ndarray):
    """Coordinates a, b with Var(Z_a - Z_b) = 0 to rounding (64 ulps of
    var_a + var_b) are one variable, kept by the first of them: returns each
    coordinate's keeper, as an index into the kept ones, and their covariance."""
    cov = 0.5 * (cov + cov.T)
    var = np.diag(cov)
    keeper = np.empty(len(cov), dtype=np.intp)
    keep: list[int] = []
    tol = 64.0 * np.finfo(np.float64).eps
    for b in range(len(cov)):
        for g, a in enumerate(keep):
            if var[a] + var[b] - 2.0 * cov[a, b] <= tol * (var[a] + var[b]):
                keeper[b] = g
                break
        else:
            keeper[b] = len(keep)
            keep.append(b)
    return keeper, cov[np.ix_(keep, keep)]


# Gauss-Legendre orders: 20 nodes give the bivariate CDF to double precision
# at any correlation (Genz 2004); the trivariate conditioning integral uses
# _PHI3_NODES in each of its panels
_PHI2_NODES = 20
_PHI3_NODES = 32
# the standard normal density carries under 1e-17 of its mass beyond this
_T_SPAN = 8.5
# the panels of the trivariate integral grow by this factor away from a
# sharp feature of the integrand, until they are _T_WIDE long
_T_GRADE = 4.0
_T_WIDE = 2.0
# Genz switches from Sheppard's angle integral to the expansion about
# |rho| = 1 above this correlation
_RHO_HIGH = 0.925
# Phi(-40) underflows to 0: standardized limits past +-40 change no
# probability, and clipping them there keeps every power in _phi2 finite
_Z_CAP = 40.0


@functools.cache
def _legendre_rule(order: int):
    # computed on first use rather than at import: it loads about 0.5 MB of
    # code that callers never needing a bivariate CDF would carry
    return roots_legendre(order)


def _phi2(h, k, rho: float) -> np.ndarray:
    """Standard bivariate normal CDF P(X <= h, Y <= k) at correlation rho,
    elementwise over the broadcast arrays h and k, by Genz's (2004)
    method. Below |rho| = 0.925 it is Gauss-Legendre quadrature of
    Sheppard's angle integral; above, the closed-form part of the
    Drezner-Wesolowsky expansion about |rho| = 1 plus quadrature of its
    smooth remainder, with the exact limits at |rho| = 1."""
    x, w = _legendre_rule(_PHI2_NODES)
    # Genz's upper-orthant probability P(X > h, Y > k), taken at (-h, -k)
    h, k = np.broadcast_arrays(-np.clip(h, -_Z_CAP, _Z_CAP), -np.clip(k, -_Z_CAP, _Z_CAP))
    hk = h * k
    if abs(rho) < _RHO_HIGH:
        half = 0.5 * math.asin(rho)
        sn = np.sin(half * (x + 1.0))
        hs = 0.5 * (h * h + k * k)
        f = np.exp((sn * hk[..., None] - hs[..., None]) / (1.0 - sn * sn))
        return half * (f @ w) / (2.0 * math.pi) + ndtr(-h) * ndtr(-k)
    if rho < 0.0:
        k, hk = -k, -hk
    correction = 0.0
    if abs(rho) < 1.0:
        a2 = (1.0 - rho) * (1.0 + rho)
        a = math.sqrt(a2)
        bs = (h - k) ** 2
        c = (4.0 - hk) / 8.0
        d = (12.0 - hk) / 16.0
        correction = a * np.exp(-0.5 * (bs / a2 + hk)) * (
            1.0 - c * (bs - a2) * (1.0 - d * bs / 5.0) / 3.0 + c * d * a2 * a2 / 5.0
        )
        b = np.sqrt(bs)
        tail = (
            np.exp(-0.5 * np.maximum(hk, -160.0)) * math.sqrt(2.0 * math.pi)
            * ndtr(-b / a) * b * (1.0 - c * bs * (1.0 - d * bs / 5.0) / 3.0)
        )
        correction = correction - np.where(hk > -160.0, tail, 0.0)
        # the remainder in u = sqrt(1 - r^2) over (0, a); its exponents are
        # at most 0 for every h and k
        u2 = (0.5 * a * (x + 1.0)) ** 2
        rs = np.sqrt(1.0 - u2)
        bs, hk, c, d = bs[..., None], hk[..., None], c[..., None], d[..., None]
        g = np.exp(-0.5 * bs / u2 - hk / (1.0 + rs)) / rs - np.exp(-0.5 * (bs / u2 + hk)) * (
            1.0 + c * u2 * (1.0 + d * u2)
        )
        correction = -(correction + 0.5 * a * (g @ w)) / (2.0 * math.pi)
    if rho > 0.0:
        return correction + ndtr(-np.maximum(h, k))
    inside = np.where(h < 0.0, ndtr(k) - ndtr(h), ndtr(-h) - ndtr(-k))
    return np.where(k > h, inside, 0.0) - correction


def _phi3(h: np.ndarray, r: np.ndarray) -> float:
    """Standard trivariate normal CDF P(X <= h) at the correlation matrix r.

    Given X_i = t the other two are normal with means r_ij t, deviations
    s_j = sqrt(1 - r_ij^2) and correlation rho, so
    P = int_{-inf}^{h_i} phi(t) Phi2((h_j - r_ij t)/s_j, (h_k - r_ik t)/s_k; rho) dt.
    X_i is the coordinate least correlated with the other two, which keeps
    s_j and s_k largest. The integrand turns sharply where either argument
    crosses zero and where one equals the other times the sign of rho (the
    kink of Phi2 at |rho| = 1); Gauss-Legendre panels are cut at each such point and
    graded geometrically from its width, so singular and near-singular r
    are integrated to about 1e-14 with a fixed rule."""
    off = np.abs(r)
    np.fill_diagonal(off, 0.0)
    a, b = np.unravel_index(int(np.argmax(off)), off.shape)
    if off[a, b] >= 1.0:
        # X_b = +-X_a: the pair is one coordinate, bounded above by both
        # limits or kept within [-h_b, h_a]
        c = 3 - a - b
        if r[a, b] > 0.0:
            return float(_phi2(min(h[a], h[b]), h[c], r[a, c]))
        if h[a] <= -h[b]:
            return 0.0
        return float(_phi2(h[a], h[c], r[a, c]) - _phi2(-h[b], h[c], r[a, c]))
    i = int(np.argmin(off.max(axis=1)))
    j, k = (m for m in range(3) if m != i)
    rij, rik = r[i, j], r[i, k]
    sj, sk = math.sqrt(1.0 - rij * rij), math.sqrt(1.0 - rik * rik)
    rho = min(1.0, max(-1.0, (r[j, k] - rij * rik) / (sj * sk)))
    lo, hi = -_T_SPAN, min(float(h[i]), _T_SPAN)
    if hi <= lo:
        return 0.0
    # (centre, width) in t of each sharp feature
    features = [(h[m] / rm, sm / abs(rm)) for m, rm, sm in ((j, rij, sj), (k, rik, sk)) if rm != 0.0]
    sign = 1.0 if rho >= 0.0 else -1.0
    meet = rij / sj - sign * rik / sk
    if meet != 0.0:
        features.append(((h[j] / sj - sign * h[k] / sk) / meet, math.sqrt(1.0 - rho * rho) / abs(meet)))
    cuts = {lo, hi}
    for centre, width in features:
        cuts.add(centre)
        while 0.0 < width < _T_WIDE:
            cuts.update((centre - width, centre + width))
            width *= _T_GRADE
    edges = np.array(sorted(c for c in cuts if lo <= c <= hi))
    x, w = _legendre_rule(_PHI3_NODES)
    half = 0.5 * np.diff(edges)[:, None]
    t = (edges[:-1, None] + half * (x + 1.0)).ravel()
    wt = (half * w).ravel()
    inner = _phi2((h[j] - rij * t) / sj, (h[k] - rik * t) / sk, rho)
    return float(np.sum(wt * np.exp(-0.5 * t * t) * inner)) / math.sqrt(2.0 * math.pi)


# the longest scrambled Sobol draw so far, as (dimension, points): a shorter
# draw of the same dimension is a prefix of it, bit for bit
_sobol_draw: list = [0, np.empty((0, 0))]


def _sobol(dim: int, count: int) -> np.ndarray:
    """The first `count` points of the seeded scrambled Sobol set in `dim`
    dimensions, drawn anew only for a new dimension or a longer prefix."""
    if _sobol_draw[0] != dim or len(_sobol_draw[1]) < count:
        # imported here: it loads most of scipy.stats, which no CDF below
        # four dimensions needs
        from scipy.stats import qmc

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


class _Gaussian:
    """N(0, cov), with the work that depends on cov alone done once: the symmetry
    and PSD-budget check, whose projection of the whole matrix is `psd`; the merge
    of copies (correlation 1, equal variance), which are one coordinate under the
    smaller limit; and the ridge of what is still singular after the merge."""

    def __init__(self, cov: np.ndarray):
        self.psd, self.projected = _project_psd(cov)
        self.keeper, merged = _merge_copies(cov)
        # with nothing merged, the check's projection is the one to evaluate
        psd, projected = _project_psd(merged) if len(merged) < len(cov) else (self.psd, self.projected)
        self.ridge_dev = 0.0
        if projected:
            # the projection adds a PSD matrix: Gaussian noise of at most this deviation per coordinate
            added = np.linalg.eigvalsh(psd - merged)[-1]
            self.ridge_dev = math.sqrt(max(float(added), 0.0))
        self.cov = psd
        self.sig = np.sqrt(np.diag(psd))

    def cdf(self, limits: np.ndarray, abs_tol: float, target: float | None) -> tuple[float, float]:
        """(P(Z <= limits), error) by the rules of `mvn_cdf`."""
        z = np.full(len(self.cov), np.inf)
        np.minimum.at(z, self.keeper, limits)
        # a degenerate coordinate is a deterministic zero, and one without an
        # upper limit is marginalized out: drop both
        live = self.sig > 1e-150
        if np.any(z == -np.inf) or np.any(z[~live] < 0):
            return 0.0, 0.0
        keep = live & (z < np.inf)
        z, cov, sig = z[keep], self.cov[np.ix_(keep, keep)], self.sig[keep]
        d = z.size
        if d == 0:
            return 1.0, 0.0
        h = z / sig
        # the exact paths are exact for the projected matrix, whose noise moves
        # a coordinate across its limit only from within 8 deviations of it, or
        # by more than 8 deviations (2 Phi(-8) < 1.3e-15)
        err = 0.0
        if self.ridge_dev > 0.0:
            err = float(np.sum(self.ridge_dev * _RIDGE_BAND / sig)) + d * 1.3e-15
        if d == 1:
            return float(ndtr(h[0])), err
        if d <= 3:
            r = np.clip(cov / np.outer(sig, sig), -1.0, 1.0)
            if d == 2:
                return float(_phi2(h[0], h[1], r[0, 1])), err
            return _phi3(h, r), err

        chol = np.linalg.cholesky(cov + PSD_RIDGE * np.eye(d))
        for n_pow in (14, 16, 18):
            est, err = _qmc_mvn(z, chol, n_pow=n_pow)
            if err <= abs_tol or (target is not None and abs(est - target) > err):
                return est, err
        if target is None:
            raise NumericError(f"mvn_cdf error estimate {err:.2e} above {abs_tol:.2e}")
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

    A coordinate whose limit is +inf is marginalized out, and any -inf
    limit gives 0. Up to three remaining coordinates the CDF is
    deterministic and reports error 0: the error function for one, Genz's
    (2004) bivariate quadrature for two, and for three a Gauss-Legendre
    integral of that bivariate CDF over one coordinate. From four on it is
    seeded quasi-Monte Carlo (reproducible), whose sample size grows
    through 2^14, 2^16 and 2^18 points per batch until the error estimate
    is at most abs_tol. With a `target`, only the sign of P - target is
    asked for: the growth also stops once the estimate is farther than its
    error from the target, and the last estimate is returned however large
    its error; without one, an error above abs_tol at 2^18 raises
    NumericError. `with_error=True` returns (estimate, error)."""
    upper = np.atleast_1d(np.asarray(upper, dtype=np.float64))
    d = upper.size
    mean = np.zeros(d) if mean is None else np.atleast_1d(np.asarray(mean, dtype=np.float64))
    cov = np.eye(d) if cov is None else np.atleast_2d(np.asarray(cov, dtype=np.float64))
    if mean.size != d or cov.shape != (d, d):
        raise InputError("mvn_cdf dimensions disagree")
    if np.isnan(upper).any() or not (np.isfinite(mean).all() and np.isfinite(cov).all()):
        raise InputError("mvn_cdf needs limits that are not NaN and a finite mean and covariance")
    est, err = _Gaussian(cov).cdf(upper - mean, abs_tol, target)
    return (est, err) if with_error else est


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
    `with_tol=True` returns (quantile, half-width to which it is known)."""
    nu, nu_tol, _ = _reject_quantile(cov, epsilon, tol)
    return (nu, nu_tol) if with_tol else nu


def _reject_quantile(cov, epsilon: float, tol: float):
    """(root, half-width, the prepared Gaussian of cov that every probe evaluates). Above tau = 1
    the root is Brent's on the closed-form bracket [sigma_max z(1 - eps), sigma_max z(1 - eps/tau)]:
    at the lower end P(max Z <= L) is at most the largest-variance marginal's 1 - eps, at the upper
    end the union bound over the tau marginals makes it at least 1 - eps. Each probe only needs the
    sign of P - (1 - eps), so its QMC sample grows only while the estimate is within its error of
    the target, and the solve stops at the first probe whose sign no sample settles. The half-width
    is the QMC error at the root over the CDF slope there, and at least `tol` (Brent's xtol); up to
    tau = 3 the CDF is exact and it is `tol`."""
    if not 0.0 < epsilon < 1.0:
        raise InputError(f"epsilon must be in (0, 1), got {epsilon}")
    cov = np.atleast_2d(np.asarray(cov, dtype=np.float64))
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1] or not cov.size:
        raise InputError(f"covariance must be a non-empty square matrix, got shape {cov.shape}")
    if not np.isfinite(cov).all():
        raise InputError("covariance entries must be finite")
    # built before the shortcuts below, which skip the CDF but not its checks
    gauss = _Gaussian(cov)
    tau, target = cov.shape[0], 1.0 - epsilon
    sig_max = float(np.sqrt(np.clip(np.diag(cov), 0.0, None)).max())
    if sig_max <= 1e-150:
        return 0.0, 0.0, gauss
    if tau == 1:
        return float(sig_max * ndtri(1.0 - epsilon)), 0.0, gauss
    hair = _BRACKET_HAIR * sig_max
    lo = sig_max * float(ndtri(1.0 - epsilon)) - hair
    hi = sig_max * float(ndtri(1.0 - epsilon / tau)) + hair
    probes: dict[float, tuple[float, float]] = {}

    def gap(x: float) -> float:
        if x not in probes:
            est, err = gauss.cdf(np.full(tau, x), MVN_ABS_TOL, target)
            g = est - target
            # no sample size settles the sign: x is the root to within its
            # error, and a zero stops Brent there
            probes[x] = (0.0 if abs(g) <= err else g, err)
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
    slope = _cdf_slope(cov, root) if err else math.inf  # an exact root is known to tol
    return root, max(tol, err / slope if slope > 0.0 else math.inf), gauss


def second_order_threshold(n: int, epsilon: float, big_lambda: float, nu: float) -> float:
    """Threshold Lambda - nu/sqrt(n) at which the false-reject probability is
    pinned near epsilon."""
    check_length(n)
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


# the n-free part of analyze, keyed by instance value: (P, Q, (M1, M2, K), l,
# alpha, epsilon, tie_tol) -> (Lambda_l, ties, read-only cov, nu*, its tol,
# projected). It holds no space, and a failed computation is never stored.
_instances: dict = {}


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
    index the space and agree with (P, Q). Only chi* depends on n, so the
    rest is computed once per instance per process and then memoised (64
    entries); a later n costs only the lookup."""
    key = (tuple(p_dists), tuple(q_dists), (space.m1, space.m2, space.k), l, alpha, epsilon, tie_tol)
    hit = _instances.get(key)
    if hit is None:
        check_consistent(p_dists, q_dists, space[l])
        big_lambda, ties = rivals(population_scores(p_dists, q_dists, space, alpha), l, tol=tie_tol)
        raw = covariance_matrix(p_dists, q_dists, space, ties, alpha)
        nu, nu_tol, gauss = _reject_quantile(raw, epsilon, 1e-8)
        # the reported matrix is the projection that checked raw for the solve
        gauss.psd.flags.writeable = False
        if len(_instances) >= 64:
            _instances.pop(next(iter(_instances)), None)
        hit = _instances[key] = (big_lambda, tuple(ties), gauss.psd, nu, nu_tol, gauss.projected)
    big_lambda, ties, cov, nu, nu_tol, projected = hit
    return SmallDevAnalysis(
        big_lambda=big_lambda,
        tie_set=ties,
        tau=len(ties),
        cov_matrix=cov,
        nu_star=nu,
        nu_tol=nu_tol,
        chi_star=second_order_threshold(n, epsilon, big_lambda, nu),
        n=n,
        epsilon=epsilon,
        psd_projected=projected,
    )


def converse_slack(n: int, big_n: int, m1: int, m2: int, alphabet_size: int, lam: float) -> dict:
    """Non-asymptotic converse slack delta and the deflated threshold
    lambda - delta - log(n)/n; a negative result is reported as-is with a
    warning flag."""
    check_lengths(n, big_n)
    delta = (
        m1 * alphabet_size * math.log(big_n + 1.0) / big_n
        + m2 * alphabet_size * math.log(n + 1.0) / n
    )
    lam_tilde = lam - delta - math.log(n) / n
    return {"delta": delta, "lambda_tilde": lam_tilde, "negative_threshold": lam_tilde < 0}
