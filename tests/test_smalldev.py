import dataclasses
import gc
import math
import weakref
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import dblquad
from scipy.special import ndtr, ndtri
from scipy.stats import qmc

import gaussian_oracle
from conftest import random_binary_instance
from seqmatch import smalldev
from seqmatch.core import Distribution, InputError, MatchHypothesis, NumericError, load_dists
from seqmatch.divergences import info_densities
from seqmatch.exponents import population_scores, rivals
from seqmatch.hypotheses import HypothesisSpace, enumerate_space
from seqmatch.smalldev import (
    SmallDevAnalysis,
    analyze,
    converse_slack,
    covariance_matrix,
    gaussian_reject_quantile,
    mvn_cdf,
    score_covariance,
    second_order_threshold,
    tie_set,
)

B = Distribution.bernoulli
ALPHA = 2.0

# ternary tau = 3 instance: a uniform column against the uniform row and its
# three rotations of (1/2, 1/4, 1/4), which tie as rivals
THIRD = np.full(3, 1 / 3)
TERNARY_P = [Distribution(THIRD)] + [Distribution(np.roll([0.5, 0.25, 0.25], r)) for r in range(3)]
TERNARY_Q = [Distribution(THIRD)]
TERNARY_SPACE = enumerate_space(4, 1, 1)


def _ill_conditioned_cases():
    """tau = 3, 4, 5, 3, 4 covariances 0.05 A A^T / tau with smallest
    correlation eigenvalue between 1e-3 and 1e-2: for tau >= 4 their QMC
    error stays above 1e-6 at the largest sample near the quantile."""
    rng = np.random.default_rng(3)
    cases = []
    for tau in (3, 4, 5, 3, 4):
        a = rng.normal(size=(tau, tau))
        cov = 0.05 * a @ a.T / tau
        cases += [(cov, eps) for eps in (0.1, 0.05)]
    return cases


def _well_conditioned_covs():
    rng = np.random.default_rng(8)
    covs = []
    for tau in (3, 4, 5, 3, 4):
        a = rng.normal(size=(tau, tau))
        sd = rng.uniform(0.1, 0.3, size=tau)
        corr = (a @ a.T + tau * np.eye(tau)) / (2 * tau)
        corr /= np.sqrt(np.outer(np.diag(corr), np.diag(corr)))
        covs.append(corr * np.outer(sd, sd))
    return covs


def _ternary_cov():
    l = TERNARY_SPACE.index_of(MatchHypothesis(((0, 0),)))
    ties = tie_set(TERNARY_P, TERNARY_Q, TERNARY_SPACE, l, ALPHA)
    return covariance_matrix(TERNARY_P, TERNARY_Q, TERNARY_SPACE, ties, ALPHA)


def _trivariate_covs():
    """The distinct tau = 3 covariances of this file."""
    ill = _ill_conditioned_cases()
    well = _well_conditioned_covs()
    return [ill[0][0], ill[6][0], well[0], well[3], _ternary_cov()]


def _dblquad_cdf(upper, cov):
    """P(Z <= upper) for Z ~ N(0, cov) in three dimensions by adaptive
    dblquad: the density of two coordinates times the conditional normal CDF
    of the third, which is the one keeping the largest conditional
    variance."""
    best = None
    for c in range(3):
        ab = [m for m in range(3) if m != c]
        beta = np.linalg.solve(cov[np.ix_(ab, ab)], cov[ab, c])
        var = cov[c, c] - cov[ab, c] @ beta
        if best is None or var > best[0]:
            best = (var, ab, c, beta)
    var, (a, b), c, beta = best
    pair = cov[np.ix_([a, b], [a, b])]
    inv = np.linalg.inv(pair)
    norm = 2 * math.pi * math.sqrt(np.linalg.det(pair))
    sd = math.sqrt(var)

    def density(y, x):
        q = inv[0, 0] * x * x + 2 * inv[0, 1] * x * y + inv[1, 1] * y * y
        return math.exp(-0.5 * q) / norm * ndtr((upper[c] - beta[0] * x - beta[1] * y) / sd)

    lo_a, lo_b = -12 * math.sqrt(pair[0, 0]), -12 * math.sqrt(pair[1, 1])
    return dblquad(density, lo_a, upper[a], lo_b, upper[b], epsabs=1e-14, epsrel=1e-13)[0]


def _bisect_quantile(cov, epsilon, tol=1e-8):
    """The bracket-doubling bisection the Brent solve replaced, kept as its
    oracle."""
    tau = cov.shape[0]
    sig = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    target = 1.0 - epsilon
    span = 1.0 + 8.0 * float(sig.max())
    lo, hi = -span, span
    ones = np.ones(tau)

    def cdf(val):
        return mvn_cdf(val * ones, np.zeros(tau), cov)

    for _ in range(60):
        if cdf(lo) < target:
            break
        lo *= 2.0
    for _ in range(60):
        if cdf(hi) >= target:
            break
        hi *= 2.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if cdf(mid) >= target:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


@pytest.fixture
def qmc_runs(monkeypatch):
    """List the QMC runs from here on, each as its log2 points per batch."""
    runs = []
    real = smalldev._qmc_mvn

    def counting(upper, chol, n_pow=14, batches=8):
        runs.append(n_pow)
        return real(upper, chol, n_pow, batches)

    monkeypatch.setattr(smalldev, "_qmc_mvn", counting)
    return runs


@pytest.fixture
def cdf_runs(monkeypatch):
    """Count the CDF evaluations of prepared Gaussians from here on."""
    runs = []
    real = smalldev._Gaussian.cdf

    def counting(self, *args):
        runs.append(1)
        return real(self, *args)

    monkeypatch.setattr(smalldev._Gaussian, "cdf", counting)
    return runs


def _double_loop_covariance(P, Q, hyps, alpha):
    """The covariance as a double loop over hypothesis pairs and their
    matched pairs: E[fg] - E[f]E[g] of the information densities of every
    two pairs sharing an x- or a y-index."""

    def cov_under(w, f, g):
        return float(np.sum(w * f * g)) - float(np.sum(w * f)) * float(np.sum(w * g))

    v = np.empty((len(hyps), len(hyps)))
    for a, h1 in enumerate(hyps):
        for b, h2 in enumerate(hyps):
            total = 0.0
            for i, j in h1.pairs:
                p, q = P[i].probs, Q[j].probs
                for i2, j2 in h2.pairs:
                    if i2 == i:
                        f, g = info_densities(p, q, alpha)[0], info_densities(p, Q[j2].probs, alpha)[0]
                        total += alpha * cov_under(p, f, g)
                    if j2 == j:
                        f, g = info_densities(p, q, alpha)[1], info_densities(P[i2].probs, q, alpha)[1]
                        total += cov_under(q, f, g)
            v[a, b] = total
    return v


class TestScoreCovariance:
    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(17)

        def dist(size):
            p = rng.dirichlet(np.ones(size))
            if size > 2 and rng.random() < 0.3:
                p[rng.integers(size)] = 0.0  # a zero-probability symbol
            return Distribution(p / p.sum())

        for _ in range(40):
            size = int(rng.integers(2, 5))
            m1 = int(rng.integers(1, 5))
            m2 = int(rng.integers(1, min(m1, 3) + 1))
            k = int(rng.integers(1, m2 + 1))
            P = [dist(size) for _ in range(m1)]
            Q = [dist(size) for _ in range(m2)]
            space = enumerate_space(m1, m2, k)
            ties = sorted(rng.choice(len(space), min(len(space), 8), replace=False).tolist())
            a = float(rng.uniform(0.3, 3.0))
            got = covariance_matrix(P, Q, space, ties, a)
            want = _double_loop_covariance(P, Q, [space[t] for t in ties], a)
            # relative to the largest entry: single entries may cancel to 0
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * np.abs(want).max())
            assert np.array_equal(got, got.T)

    def test_symmetric(self):
        rng = np.random.default_rng(2)
        P, Q, h = random_binary_instance(rng, m1=4, m2=2, k=2)
        space = enumerate_space(4, 2, 2)
        for t1 in range(0, len(space), 3):
            for t2 in range(0, len(space), 4):
                a = score_covariance(P, Q, space[t1], space[t2], ALPHA)
                b = score_covariance(P, Q, space[t2], space[t1], ALPHA)
                assert a == pytest.approx(b, abs=1e-15)

    def test_zero_when_matched_equal(self):
        # under the true hypothesis both densities vanish identically
        P = [B(0.3), B(0.6)]
        Q = [B(0.3)]
        h = MatchHypothesis(((0, 0),))
        assert score_covariance(P, Q, h, h, ALPHA) == pytest.approx(0.0, abs=1e-15)

    def test_zero_for_disjoint_pairs(self):
        P = [B(0.1), B(0.4), B(0.7), B(0.9)]
        Q = [B(0.2), B(0.5)]
        h1 = MatchHypothesis(((0, 0),))
        h2 = MatchHypothesis(((1, 1),))
        assert score_covariance(P, Q, h1, h2, ALPHA) == 0.0

    def test_single_column_closed_form(self):
        # V_{t1,t2} = 1{t1=t2} a Var_P(i1) + Cov_Q(i2, i2)
        P = [B(0.2), B(0.45), B(0.7)]
        Q = [B(0.2)]
        a = ALPHA

        def direct(t1, t2):
            out = 0.0
            if t1 == t2:
                d = info_densities(P[t1].probs, Q[0].probs, a)[0]
                m = float(np.sum(P[t1].probs * d))
                out += a * (float(np.sum(P[t1].probs * d * d)) - m * m)
            f = info_densities(P[t1].probs, Q[0].probs, a)[1]
            g = info_densities(P[t2].probs, Q[0].probs, a)[1]
            mf = float(np.sum(Q[0].probs * f))
            mg = float(np.sum(Q[0].probs * g))
            out += float(np.sum(Q[0].probs * f * g)) - mf * mg
            return out

        for t1 in range(3):
            for t2 in range(3):
                h1 = MatchHypothesis(((t1, 0),))
                h2 = MatchHypothesis(((t2, 0),))
                assert score_covariance(P, Q, h1, h2, a) == pytest.approx(direct(t1, t2), abs=1e-14)

    def test_monte_carlo_oracle(self):
        rng = np.random.default_rng(99)
        m = 400_000
        for trial in range(2):
            P, Q, h_l = random_binary_instance(rng, m1=4, m2=2, k=1)
            space = enumerate_space(4, 2, 2)
            t1, t2 = space[int(rng.integers(len(space)))], space[int(rng.integers(len(space)))]
            exact = score_covariance(P, Q, t1, t2, ALPHA)
            xs = (rng.random((m, 4)) < np.array([p.probs[1] for p in P])).astype(int)
            ys = (rng.random((m, 2)) < np.array([q.probs[1] for q in Q])).astype(int)
            a1 = np.zeros(m)
            a2 = np.zeros(m)
            b1 = np.zeros(m)
            b2 = np.zeros(m)
            for arr_a, arr_b, hyp in ((a1, b1, t1), (a2, b2, t2)):
                for i, j in hyp.pairs:
                    d1, d2 = info_densities(P[i].probs, Q[j].probs, ALPHA)
                    arr_a += d1[xs[:, i]]
                    arr_b += d2[ys[:, j]]

            def cov_se(u, v):
                uc, vc = u - u.mean(), v - v.mean()
                c = float((uc * vc).mean())
                var = float(((uc * vc - c) ** 2).mean()) / m
                return c, math.sqrt(var)

            ca, sea = cov_se(a1, a2)
            cb, seb = cov_se(b1, b2)
            mc = ALPHA * ca + cb
            se = math.hypot(ALPHA * sea, seb)
            assert abs(mc - exact) <= 3 * se + 1e-12


class TestTieSet:
    def test_engineered_near_tie(self):
        P = [B(0.2), B(0.1), B(0.327), B(0.4)]
        Q = [B(0.2)]
        space = enumerate_space(4, 1, 1)
        assert tie_set(P, Q, space, 0, ALPHA, tol=1e-3) == [1, 2]
        # the default tight tolerance resolves the 1.4e-4 relative gap
        assert tie_set(P, Q, space, 0, ALPHA) == [2]

    def test_perturbed_singleton(self):
        P = [B(0.2), B(0.1), B(0.30), B(0.4)]
        Q = [B(0.2)]
        space = enumerate_space(4, 1, 1)
        ties = tie_set(P, Q, space, 0, ALPHA, tol=1e-3)
        from seqmatch.exponents import population_score

        scores = [population_score(P, Q, space[t], ALPHA) for t in range(4)]
        rival = min(s for t, s in enumerate(scores) if t != 0)
        assert ties == [t for t in range(1, 4) if scores[t] == rival]
        assert len(ties) == 1

    def test_generic_singleton(self):
        P, Q, h = random_binary_instance(np.random.default_rng(1), m1=4, m2=2, k=2)
        space = enumerate_space(4, 2, 2)
        assert len(tie_set(P, Q, space, space.index_of(h), ALPHA)) == 1

    @pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf])
    def test_negative_or_non_finite_tolerance_rejected(self, tol):
        P, Q = [B(0.2), B(0.1), B(0.327), B(0.4)], [B(0.2)]
        space = enumerate_space(4, 1, 1)
        with pytest.raises(InputError, match="tie tolerance"):
            tie_set(P, Q, space, 0, ALPHA, tol=tol)
        with pytest.raises(InputError, match="tie tolerance"):
            analyze(P, Q, space, 0, ALPHA, 1000, 0.1, tie_tol=tol)


class TestMvnCdf:
    def test_univariate_reduction(self):
        for u in (-1.3, 0.0, 2.4):
            assert mvn_cdf([u], [0.0], [[1.0]]) == pytest.approx(float(ndtr(u)), abs=1e-14)
        assert mvn_cdf([3.0], [1.0], [[4.0]]) == pytest.approx(float(ndtr(1.0)), abs=1e-14)

    def test_bivariate_independent(self):
        assert mvn_cdf([0, 0], [0, 0], np.eye(2)) == pytest.approx(0.25, abs=1e-12)

    def test_orthant_closed_form(self):
        # P(Z1<=0, Z2<=0) = 1/4 + arcsin(rho)/(2 pi), also near |rho| = 1,
        # where Genz's expansion about the singular limit takes over
        for rho in (-1 + 1e-9, -0.97, -0.8, -0.3, 0.5, 0.9, 0.93, 0.999, 1 - 1e-9):
            want = 0.25 + math.asin(rho) / (2 * math.pi)
            got = mvn_cdf([0, 0], [0, 0], [[1, rho], [rho, 1]])
            assert got == pytest.approx(want, abs=1e-14)

    def test_monotone_in_upper(self):
        cov = [[1.0, 0.4], [0.4, 2.0]]
        vals = [mvn_cdf([u, 0.3], [0, 0], cov) for u in np.linspace(-2, 2, 9)]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_trivariate_against_independence(self):
        got = mvn_cdf([0.2, -0.1, 0.4], [0, 0, 0], np.eye(3))
        want = float(ndtr(0.2) * ndtr(-0.1) * ndtr(0.4))
        assert got == pytest.approx(want, abs=1e-12)

    def test_trivariate_deterministic(self):
        cov = np.array([[1.0, 0.5, 0.2], [0.5, 1.0, 0.3], [0.2, 0.3, 1.0]])
        a = mvn_cdf([0.5, 0.1, -0.2], [0, 0, 0], cov)
        b = mvn_cdf([0.5, 0.1, -0.2], [0, 0, 0], cov)
        assert a == b

    def test_non_psd_rejected(self):
        with pytest.raises(NumericError):
            mvn_cdf([0, 0], [0, 0], [[0.0189, -0.12], [-0.12, 0.0174]])

    def test_asymmetric_rejected(self):
        with pytest.raises(InputError):
            mvn_cdf([0, 0], [0, 0], [[1.0, 0.5], [0.1, 1.0]])

    @pytest.mark.parametrize("upper,mean,cov", [
        ([0.0, 0.0], [0.0, 0.0, 0.0], None),
        ([0.0, 0.0], None, np.eye(3)),
        ([0.0, 0.0], None, [[1.0, 0.0, 0.0]]),
    ], ids=["mean", "cov", "cov_not_square"])
    def test_dimension_mismatch_rejected(self, upper, mean, cov):
        with pytest.raises(InputError, match="mvn_cdf dimensions disagree"):
            mvn_cdf(upper, mean, cov)

    @pytest.mark.parametrize("upper,mean,cov", [
        ([math.nan, 0.0], None, None),
        ([0.1, 0.2, 0.3, math.nan], None, np.eye(4)),
        ([0.0, 0.0], [math.inf, 0.0], None),
        ([0.0, 0.0], [-math.inf, 0.0], None),
        ([0.0, 0.0], [math.nan, 0.0], None),
        ([0.0, 0.0], None, [[math.inf, 0.0], [0.0, 1.0]]),
        ([0.0, 0.0], None, [[1.0, math.nan], [math.nan, 1.0]]),
    ], ids=["nan_limit", "nan_limit_qmc", "inf_mean", "minus_inf_mean", "nan_mean", "inf_cov", "nan_cov"])
    def test_nan_limit_and_non_finite_moments_rejected(self, upper, mean, cov):
        with pytest.raises(InputError, match="not NaN and a finite mean and covariance"):
            mvn_cdf(upper, mean, cov, with_error=True)

    def test_infinite_limits_keep_their_meaning(self):
        assert mvn_cdf([math.inf, 0.0]) == pytest.approx(0.5, abs=1e-15)
        assert mvn_cdf([-math.inf, 0.0]) == 0.0

    def test_target_settles_sign_at_smallest_sample(self, qmc_runs):
        cov = _well_conditioned_covs()[1]
        upper = 0.05 * np.ones(4)
        est, err = mvn_cdf(upper, None, cov, abs_tol=1e-12, target=0.9, with_error=True)
        assert len(qmc_runs) == 1 and abs(est - 0.9) > err > 1e-12
        # without a target the same error bound escalates to 2^18 and fails
        with pytest.raises(NumericError):
            mvn_cdf(upper, None, cov, abs_tol=1e-12)
        assert len(qmc_runs) == 4

    def test_bivariate_kernel_vectorized(self):
        h = np.array([-1.2, 0.0, 0.4, 2.5])
        k = np.array([0.3, -0.7, 0.4, 1.1])
        for rho in (-0.95, -0.4, 0.0, 0.6, 0.99, 1.0, -1.0):
            got = smalldev._phi2(h, k, rho)
            assert got.shape == (4,)
            for m in range(4):
                assert got[m] == float(smalldev._phi2(h[m], k[m], rho))

    def test_trivariate_orthant_closed_form(self):
        # P(Z <= 0) = 1/8 + (asin r12 + asin r13 + asin r23) / (4 pi)
        corrs = [np.array([[1.0, 0.5, 0.2], [0.5, 1.0, 0.3], [0.2, 0.3, 1.0]]),
                 np.array([[1.0, -0.6, 0.1], [-0.6, 1.0, 0.45], [0.1, 0.45, 1.0]])]
        for cov in _trivariate_covs():
            sd = np.sqrt(np.diag(cov))
            corrs.append(cov / np.outer(sd, sd))
        for r in corrs:
            want = 0.125 + (math.asin(r[0, 1]) + math.asin(r[0, 2]) + math.asin(r[1, 2])) / (4 * math.pi)
            est, err = mvn_cdf(np.zeros(3), None, r, with_error=True)
            assert err == 0.0
            assert est == pytest.approx(want, abs=1e-12)

    def test_trivariate_perfect_pair_reduces_to_bivariate(self):
        # Z_3 = Z_1 (or -Z_1): the pair is one coordinate
        r12, r13 = 0.4, 1.0
        r = np.array([[1.0, r12, r13], [r12, 1.0, r12 * r13], [r13, r12 * r13, 1.0]])
        h = np.array([0.3, -0.2, 0.1])
        want = float(smalldev._phi2(0.1, -0.2, r12))
        assert smalldev._phi3(h, r) == pytest.approx(want, abs=1e-12)
        flip = r * np.array([1.0, 1.0, -1.0])[:, None] * np.array([1.0, 1.0, -1.0])
        want = float(smalldev._phi2(0.3, -0.2, r12) - smalldev._phi2(-0.1, -0.2, r12))
        assert smalldev._phi3(h, flip) == pytest.approx(want, abs=1e-12)
        assert smalldev._phi3(np.array([-0.3, 0.5, 0.2]), flip) == 0.0
        # one rounding away from the perfect pair: the graded panels carry it
        near = r.copy()
        near[0, 2] = near[2, 0] = 1.0 - 2.0**-52
        want = float(smalldev._phi2(0.1, -0.2, r12))
        assert smalldev._phi3(h, near) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("case", range(10))
    def test_trivariate_matches_dblquad_oracle(self, case):
        cov = _trivariate_covs()[case // 2]
        sd = np.sqrt(np.diag(cov))
        # at the reject quantile's scale, and at uneven limits
        upper = 2.0 * sd if case % 2 == 0 else np.array([0.3, -0.1, 0.2]) * sd.max() * 4
        est, err = mvn_cdf(upper, None, cov, with_error=True)
        assert err == 0.0
        assert est == pytest.approx(_dblquad_cdf(upper, cov), abs=1e-10)

    @pytest.mark.parametrize("case", [0, 2])
    def test_trivariate_within_qmc_error(self, case):
        cov = _trivariate_covs()[case]
        upper = 1.5 * np.sqrt(np.diag(cov))
        est, err = smalldev._qmc_mvn(upper, np.linalg.cholesky(cov), n_pow=18)
        assert abs(mvn_cdf(upper, None, cov) - est) <= err

    def test_infinite_upper_limit_marginalized(self):
        cov2 = [[1.0, 0.5], [0.5, 1.0]]
        assert mvn_cdf([np.inf, 0.3], None, cov2) == pytest.approx(float(ndtr(0.3)), abs=1e-15)
        assert mvn_cdf([np.inf, np.inf], None, cov2) == 1.0
        assert mvn_cdf([-np.inf, 0.3], None, cov2) == 0.0
        cov3 = _well_conditioned_covs()[0]
        sub = cov3[np.ix_([0, 2], [0, 2])]
        assert mvn_cdf([0.2, np.inf, -0.1], None, cov3) == mvn_cdf([0.2, -0.1], None, sub)
        assert mvn_cdf([np.inf, 0.4, np.inf], [0.0, 0.1, 0.0], cov3) == pytest.approx(
            float(ndtr(0.3 / math.sqrt(cov3[1, 1]))), abs=1e-15)
        assert mvn_cdf([0.2, np.inf, -np.inf], None, cov3) == 0.0
        cov4 = _well_conditioned_covs()[1]
        keep = [0, 1, 3]
        assert mvn_cdf([0.1, 0.2, np.inf, 0.3], None, cov4) == mvn_cdf(
            [0.1, 0.2, 0.3], None, cov4[np.ix_(keep, keep)])

    def test_degenerate_coordinate(self):
        cov = [[1.0, 0.0], [0.0, 0.0]]
        assert mvn_cdf([0.7, 0.1], [0, 0], cov) == pytest.approx(float(ndtr(0.7)), abs=1e-12)
        assert mvn_cdf([0.7, -0.1], [0, 0], cov) == 0.0


class TestPsdProjection:
    def test_tiny_negative_eigenvalue_projected(self):
        from seqmatch.smalldev import _project_psd

        base = np.array([[1.0, 1.0], [1.0, 1.0]])  # eigenvalues {2, 0}
        bent = base - 1e-10 * np.eye(2)             # slightly indefinite
        out, projected = _project_psd(bent)
        assert projected
        assert np.linalg.eigvalsh(out).min() >= 0

    def test_clean_matrix_untouched(self):
        from seqmatch.smalldev import _project_psd

        cov = np.array([[0.04, 0.01], [0.01, 0.09]])
        out, projected = _project_psd(cov)
        assert not projected
        assert np.allclose(out, cov)

    def test_copies_merged_instead_of_ridged(self):
        # identical scores are one score: no ridge, so the exact path is exact
        est, err = mvn_cdf(0.1 * np.ones(3), None, np.ones((3, 3)), with_error=True)
        assert est == pytest.approx(float(ndtr(0.1)), abs=1e-15)
        assert err == 0.0
        # the smallest limit wins, whichever coordinate carries it
        est = mvn_cdf([0.1, 0.3, -0.2], None, 4.0 * np.ones((3, 3)))
        assert est == pytest.approx(float(ndtr(-0.1)), abs=1e-15)
        # a copy within a larger singular block
        cov = np.array([[1.0, 1.0, 0.3], [1.0, 1.0, 0.3], [0.3, 0.3, 1.0]])
        est, err = mvn_cdf([0.4, 0.2, 0.5], None, cov, with_error=True)
        want = mvn_cdf([0.2, 0.5], None, [[1.0, 0.3], [0.3, 1.0]])
        assert est == pytest.approx(want, abs=1e-15)
        assert err == 0.0

    def test_near_copy_kept_apart(self):
        # Z_0 - Z_1 has deviation 1e-6: not a copy to rounding, and merging
        # it would move the CDF by about 1e-7; Z_2 and Z_3 are exact copies
        from seqmatch.smalldev import _merge_copies

        c = 1.0 - 5e-13
        cov = np.array([[1.0, c, 0.3, 0.3], [c, 1.0, 0.3, 0.3], [0.3, 0.3, 1.0, 1.0], [0.3, 0.3, 1.0, 1.0]])
        keeper, merged = _merge_copies(cov)
        np.testing.assert_array_equal(keeper, [0, 1, 2, 2])
        np.testing.assert_array_equal(merged, cov[:3, :3])

    def test_ridged_rank_deficient_reports_error(self):
        # Z3 = (Z1 + Z2)/sqrt(2) has no copy to merge, so it keeps the
        # ridge; the reported error covers the exact singular CDF
        from scipy.integrate import quad

        c = 2 ** -0.5
        cov = np.array([[1.0, 0.0, c], [0.0, 1.0, c], [c, c, 1.0]]) - 1e-12 * np.eye(3)
        a, b, t = 0.1, 0.2, 0.3
        est, err = mvn_cdf([a, b, t], None, cov, with_error=True)
        want = quad(
            lambda z1: math.exp(-0.5 * z1 * z1) / math.sqrt(2 * math.pi)
            * float(ndtr(min(b, t / c - z1))),
            -np.inf, a, epsabs=1e-13,
        )[0]
        assert err > 0.0
        assert abs(est - want) <= err


    @pytest.mark.parametrize("off", [0.500004, 0.50001])
    def test_asymmetry_past_the_absolute_tolerance_rejected(self, off):
        # 8e-6 and 2e-5 apart: both far past 1e-12 of the matrix's scale
        with pytest.raises(InputError, match="must be symmetric"):
            mvn_cdf([0.0, 0.0], None, [[1.0, 0.5], [off, 1.0]])

    def test_rounding_asymmetry_accepted(self):
        # 1e-13 of the scale apart passes, and reads the symmetric part
        cov = np.array([[2.0, 0.6], [0.6 + 2e-13, 2.0]])
        want = mvn_cdf([0.1, -0.2], None, [[2.0, 0.6], [0.6, 2.0]])
        assert mvn_cdf([0.1, -0.2], None, cov) == pytest.approx(want, abs=1e-12)


class TestRejectQuantile:
    def test_univariate_closed_form(self):
        for eps in (0.05, 0.1, 0.3, 0.7):
            got = gaussian_reject_quantile(np.array([[0.04]]), eps)
            assert got == pytest.approx(0.2 * float(ndtri(1 - eps)), abs=1e-10)

    def test_median_is_zero(self):
        assert gaussian_reject_quantile(np.array([[0.35]]), 0.5) == pytest.approx(0.0, abs=1e-10)

    def test_bivariate_consistency(self):
        cov = np.array([[0.04, 0.01], [0.01, 0.09]])
        eps = 0.2
        L = gaussian_reject_quantile(cov, eps)
        assert mvn_cdf([L, L], [0, 0], cov) == pytest.approx(1 - eps, abs=1e-6)

    def test_epsilon_validated(self):
        with pytest.raises(InputError):
            gaussian_reject_quantile(np.array([[1.0]]), 0.0)

    def test_malformed_covariance_rejected_like_the_cdf(self):
        # tau = 1 and zero variance skip the CDF, so the quantile checks first
        with pytest.raises(InputError, match="square matrix"):
            gaussian_reject_quantile(np.array([[1.0, 0.0, 0.0]]), 0.1)
        with pytest.raises(NumericError):
            mvn_cdf([0.0], None, [[-1.0]])
        with pytest.raises(NumericError):
            gaussian_reject_quantile(np.array([[-1.0]]), 0.1)

    def test_zero_covariance_is_zero(self):
        assert gaussian_reject_quantile(np.zeros((2, 2)), 0.1, with_tol=True) == (0.0, 0.0)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_covariance_rejected(self, bad):
        for cov in ([[bad]], [[bad, 0.0], [0.0, 1.0]]):
            with pytest.raises(InputError, match="covariance entries must be finite"):
                gaussian_reject_quantile(np.array(cov), 0.1)

    def test_sobol_prefix_bit_identical(self):
        long = qmc.Sobol(2, scramble=True, seed=smalldev._QMC_SEED).random(2**19)
        assert smalldev._sobol(2, 2**19).tobytes() == long.tobytes()
        assert smalldev._sobol(2, 2**17).tobytes() == long[: 2**17].tobytes()
        fresh = qmc.Sobol(2, scramble=True, seed=smalldev._QMC_SEED).random(2**17)
        assert fresh.tobytes() == long[: 2**17].tobytes()

    @pytest.mark.parametrize("case", range(10))
    def test_ill_conditioned_solved_within_reported_tol(self, case):
        cov, eps = _ill_conditioned_cases()[case]
        tau = cov.shape[0]
        sig_max = float(np.sqrt(np.diag(cov)).max())
        nu, nu_tol = gaussian_reject_quantile(cov, eps, with_tol=True)
        assert math.isfinite(nu) and 0.0 < nu_tol < 1e-4
        assert sig_max * ndtri(1 - eps) <= nu <= sig_max * ndtri(1 - eps / tau)
        target = 1 - eps
        # the QMC error of the probe at the root, over the CDF slope there
        _, err = mvn_cdf(nu * np.ones(tau), None, cov, target=target, with_error=True)
        assert nu_tol >= err / smalldev._cdf_slope(cov, nu)
        below, err_below = mvn_cdf((nu - nu_tol) * np.ones(tau), None, cov,
                                   target=target, with_error=True)
        above, err_above = mvn_cdf((nu + nu_tol) * np.ones(tau), None, cov,
                                   target=target, with_error=True)
        assert below - err_below <= target <= above + err_above

    @pytest.mark.parametrize("case", [2, 8, 9])
    def test_solve_stops_inside_qmc_noise(self, case, qmc_runs):
        # each cold solve used to take four 2^18 QMC runs, the last ones
        # probing inside the noise of the first
        cov, eps = _ill_conditioned_cases()[case]
        nu, nu_tol = gaussian_reject_quantile(cov, eps, with_tol=True)
        assert qmc_runs.count(18) <= 2
        before = {2: 0.48366245983769734, 8: 0.4509232442882743, 9: 0.5325784553398808}[case]
        assert abs(nu - before) <= nu_tol

    @pytest.mark.parametrize("case", range(3))
    def test_cdf_slope_matches_central_difference(self, case):
        cov = _well_conditioned_covs()[case]
        tau = cov.shape[0]
        x, h = 0.3, 1e-3

        def cdf(v):
            # one sample size on both sides: the QMC estimate is then smooth in v
            return mvn_cdf(v * np.ones(tau), None, cov, abs_tol=1.0)

        want = (cdf(x + h) - cdf(x - h)) / (2 * h)
        assert smalldev._cdf_slope(cov, x) == pytest.approx(want, rel=2e-3)

    @pytest.mark.parametrize("case", range(6))
    def test_matches_bisection_oracle(self, case):
        if case == 0:
            cov = _ternary_cov()
            assert cov.shape == (3, 3)
        else:
            cov = _well_conditioned_covs()[case - 1]
        nu, nu_tol = gaussian_reject_quantile(cov, 0.1, with_tol=True)
        assert nu_tol < 1e-5
        assert abs(nu - _bisect_quantile(cov, 0.1)) <= nu_tol


class TestQuantileMemo:
    def _ternary(self, n, eps=0.1):
        return analyze(TERNARY_P, TERNARY_Q, TERNARY_SPACE, 0, ALPHA, n, eps)

    def test_second_n_runs_no_qmc(self, cdf_runs):
        first = self._ternary(1000)
        assert first.tau == 3 and len(cdf_runs) > 0
        cold = len(cdf_runs)
        second = self._ternary(3000)
        assert len(cdf_runs) == cold
        assert second.nu_star == first.nu_star
        assert second.nu_tol == first.nu_tol
        assert second.chi_star != first.chi_star

    def test_ternary_cold_solve_is_exact_and_short(self, qmc_runs, cdf_runs):
        a = self._ternary(1000)
        assert a.tau == 3 and a.nu_tol == 1e-8
        assert len(qmc_runs) == 0 and 0 < len(cdf_runs) <= 12


class TestThreshold:
    def test_increasing_to_limit(self):
        lam, nu = 0.0176, 0.2356
        vals = [second_order_threshold(n, 0.1, lam, nu) for n in (200, 500, 1000, 5000, 10**8)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(lam, abs=1e-3)

    @pytest.mark.parametrize("n", [0, -1, math.nan, 2.5, 1000.0, True, None])
    def test_n_below_one_rejected(self, n):
        with pytest.raises(InputError, match="n must be >= 1"):
            second_order_threshold(n, 0.1, 0.0176, 0.2356)

    def test_numpy_integer_n_accepted(self):
        assert second_order_threshold(np.int64(400), 0.1, 0.0176, 0.2) == 0.0176 - 0.2 / 20


class TestAnalyze:
    def test_reference_configuration(self):
        P = [B(0.1), B(0.2), B(0.3), B(0.4)]
        Q = [B(0.1), B(0.2)]
        space = enumerate_space(4, 2, 2)
        l = space.index_of(MatchHypothesis(((0, 0), (1, 1))))
        a = analyze(P, Q, space, l, ALPHA, 2000, 0.1, tie_tol=1e-6)
        assert a.big_lambda == pytest.approx(0.017614486606327355, rel=1e-10)
        assert a.tau == 1
        assert a.cov_matrix[0, 0] == pytest.approx(0.03380133588741047, rel=1e-9)
        assert a.nu_star == pytest.approx(0.2356150446371544, rel=1e-7)
        assert a.chi_star == pytest.approx(0.012345974043024111, rel=1e-7)
        assert not a.psd_projected
        assert a.nu_tol == 0.0  # tau = 1 is closed form

    @pytest.mark.parametrize("l", [3, 12, -1])
    def test_hypothesis_outside_space_or_inconsistent_rejected(self, l):
        # 3 matches P_0 = Bern(.1) with Q_1 = Bern(.2); T = 12
        P = [B(0.1), B(0.2), B(0.3), B(0.4)]
        Q = [B(0.1), B(0.2)]
        space = enumerate_space(4, 2, 2)
        with pytest.raises(InputError):
            analyze(P, Q, space, l, ALPHA, 1000, 0.1)

    @pytest.mark.parametrize("alpha", [0.0, -1.0, math.inf, math.nan])
    def test_alpha_must_be_finite_and_positive(self, alpha):
        with pytest.raises(InputError, match="alpha must be finite and > 0"):
            analyze(TERNARY_P, TERNARY_Q, TERNARY_SPACE, 0, alpha, 1000, 0.1)

    def test_ternary_bench_instance(self):
        a = analyze(TERNARY_P, TERNARY_Q, TERNARY_SPACE, 0, ALPHA, 1000, 0.1)
        assert a.tau == 3 and a.tie_set == (1, 2, 3)
        # the 1e-8 bisection's value over the QMC CDF, within the 1.1e-6
        # that the QMC solve reported
        assert abs(a.nu_star - 0.49841645662567396) <= 1.1e-6
        # the exact CDF crosses 0.9 within nu_tol = xtol of nu*, by the
        # independent dblquad oracle
        assert a.nu_tol == 1e-8
        ones = np.ones(3)
        assert _dblquad_cdf((a.nu_star - a.nu_tol) * ones, a.cov_matrix) < 0.9
        assert _dblquad_cdf((a.nu_star + a.nu_tol) * ones, a.cov_matrix) > 0.9

    def test_singular_tie_covariance_merges_copies(self, monkeypatch):
        # three copies of one score: the quantile is the univariate one, with
        # no ridge noise, while the reported matrix is still the projection
        monkeypatch.setattr(smalldev, "covariance_matrix", lambda *a: 0.04 * np.ones((3, 3)))
        a = analyze(TERNARY_P, TERNARY_Q, TERNARY_SPACE, 0, ALPHA, 1000, 0.1)
        assert a.psd_projected
        assert a.nu_star == pytest.approx(0.2 * float(ndtri(0.9)), abs=2e-8)
        assert a.nu_tol == 1e-8

    def test_near_tie_pair_analysis(self):
        P = [B(0.2), B(0.1), B(0.327), B(0.4)]
        Q = [B(0.2)]
        space = enumerate_space(4, 1, 1)
        a = analyze(P, Q, space, 0, ALPHA, 1000, 0.1, tie_tol=1e-3)
        assert a.tau == 2
        assert a.tie_set == (1, 2)
        v = a.cov_matrix
        assert v[0, 1] == pytest.approx(v[1, 0], abs=1e-15)
        assert np.all(np.linalg.eigvalsh(v) > 0)
        assert a.chi_star < a.big_lambda

    def test_one_population_table_per_call(self, monkeypatch):
        # Lambda_l and the tie set come from one table of population scores,
        # and agree with min_rival_score and tie_set
        from seqmatch.exponents import min_rival_score

        real, calls = smalldev.population_scores, []

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(smalldev, "population_scores", counted)
        a = analyze(TERNARY_P, TERNARY_Q, TERNARY_SPACE, 0, ALPHA, 1000, 0.1)
        assert len(calls) == 1
        assert a.big_lambda == min_rival_score(TERNARY_P, TERNARY_Q, TERNARY_SPACE, 0, ALPHA)
        assert list(a.tie_set) == tie_set(TERNARY_P, TERNARY_Q, TERNARY_SPACE, 0, ALPHA)


def _uncached_analysis(P, Q, space, l, alpha, n, eps, tie_tol=1e-9):
    """analyze as one pass that reads no memo: the tie set, the covariance
    and its projection, and the Brent solve of nu*, at this n."""
    big_lambda, ties = rivals(population_scores(P, Q, space, alpha), l, tol=tie_tol)
    raw = smalldev.covariance_matrix(P, Q, space, ties, alpha)
    cov, projected = smalldev._project_psd(raw)
    nu, nu_tol = gaussian_reject_quantile(raw, eps, with_tol=True)
    return SmallDevAnalysis(big_lambda, tuple(ties), len(ties), cov, nu, nu_tol,
                            big_lambda - nu / math.sqrt(n), n, eps, projected)


def _assert_bit_identical(got, want):
    for f in dataclasses.fields(SmallDevAnalysis):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(a, np.ndarray):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), f.name
        else:
            assert type(a) is type(b) and repr(a) == repr(b), f.name


# P = Bern(.1, .2, .3, .4), Q = Bern(.1, .2), K = 1: the hypotheses (0, 0)
# and (1, 1) are both consistent with (P, Q)
K1_P = [B(0.1), B(0.2), B(0.3), B(0.4)]
K1_Q = [B(0.1), B(0.2)]
K1_SPACE = enumerate_space(4, 2, 1)


def _counted_tables(monkeypatch):
    """Count the population tables analyze builds from here on."""
    calls, real = [], smalldev.population_scores

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(smalldev, "population_scores", counted)
    return calls


class TestInstanceMemo:
    @pytest.mark.parametrize("case", ["ternary", "near_tie", "singular_copies"])
    def test_memoised_equals_uncached_bit_for_bit(self, case, monkeypatch):
        if case == "near_tie":
            args = ([B(0.1), B(0.10000001), B(0.4)], [B(0.1)], enumerate_space(3, 1, 1), 0, ALPHA)
        else:
            args = (TERNARY_P, TERNARY_Q, TERNARY_SPACE, 0, ALPHA)
        if case == "singular_copies":
            monkeypatch.setattr(smalldev, "covariance_matrix", lambda *a: 0.04 * np.ones((3, 3)))
        tables = _counted_tables(monkeypatch)
        for n in (200, 1000, 1001, 5000, 10**7):
            _assert_bit_identical(analyze(*args, n, 0.1), _uncached_analysis(*args, n, 0.1))
        assert len(tables) == 1 and len(smalldev._instances) == 1

    def test_any_changed_input_misses(self, monkeypatch):
        tables = _counted_tables(monkeypatch)
        base = (TERNARY_P, TERNARY_Q, TERNARY_SPACE, 0, ALPHA, 1000, 0.1)
        first = analyze(*base)
        # equal values in new objects, and a new space, hit
        same_p = [Distribution(d.probs.copy()) for d in TERNARY_P]
        again = analyze(same_p, TERNARY_Q, enumerate_space(4, 1, 1), 0, ALPHA, 1000, 0.1)
        _assert_bit_identical(again, first)
        assert len(tables) == 1
        probs = TERNARY_P[1].probs.copy()
        probs[0] = np.nextafter(probs[0], 1.0)
        moved = [TERNARY_P[0], Distribution(probs)] + TERNARY_P[2:]
        assert moved[1] != TERNARY_P[1]
        # two hypotheses consistent with (P, Q) are each other's zero-score
        # rival, so a second l is only found on a degenerate instance
        other_l = K1_SPACE.index_of(MatchHypothesis(((1, 1),)))
        changed = [
            base[:-1] + (0.05,),
            base[:4] + (3.0,) + base[5:],
            base + (1e-3,),
            (moved,) + base[1:],
            (K1_P, K1_Q, K1_SPACE, 0, ALPHA, 1000, 0.1),
            (K1_P, K1_Q, K1_SPACE, other_l, ALPHA, 1000, 0.1),
        ]
        for i, args in enumerate(changed, start=2):
            a = analyze(*args)
            assert len(tables) == i
            _assert_bit_identical(a, _uncached_analysis(*args))
        assert len(smalldev._instances) == len(changed) + 1

    def test_covariance_is_read_only(self):
        for n in (1000, 2000):
            a = analyze(TERNARY_P, TERNARY_Q, TERNARY_SPACE, 0, ALPHA, n, 0.1)
            with pytest.raises(ValueError):
                a.cov_matrix[0, 0] = 1.0
        assert analyze(TERNARY_P, TERNARY_Q, TERNARY_SPACE, 0, ALPHA, 3000, 0.1).cov_matrix[0, 0] < 1.0

    def test_memo_keeps_no_space_alive(self):
        space = enumerate_space(4, 2, 1)
        ref = weakref.ref(space)
        a = analyze(K1_P, K1_Q, space, 0, ALPHA, 1000, 0.1)
        del space
        gc.collect()
        assert ref() is None
        assert analyze(K1_P, K1_Q, K1_SPACE, 0, ALPHA, 1000, 0.1).nu_star == a.nu_star

    def test_space_built_from_its_shape_gets_the_enumerated_answer(self):
        # a space takes no index arrays, so none can disagree with the
        # (M1, M2, K) of the memo key
        with pytest.raises(TypeError):
            HypothesisSpace(4, 2, 2, np.zeros((11, 2), np.intp), np.zeros((11, 2), np.intp))
        enumerated = enumerate_space(4, 2, 2)
        warm = analyze(K1_P, K1_Q, enumerated, 0, ALPHA, 1000, 0.1)
        direct = analyze(K1_P, K1_Q, HypothesisSpace(4, 2, 2), 0, ALPHA, 1000, 0.1)
        _assert_bit_identical(direct, warm)
        _assert_bit_identical(direct, _uncached_analysis(K1_P, K1_Q, enumerated, 0, ALPHA, 1000, 0.1))
        assert (round(direct.big_lambda, 4), direct.tie_set) == (0.0176, (1,))

    @pytest.mark.parametrize("n", [math.nan, 2.5, True])
    def test_bad_length_rejected_cold(self, n):
        with pytest.raises(InputError, match="n must be >= 1"):
            analyze(K1_P, K1_Q, K1_SPACE, 0, ALPHA, n, 0.1)

    def test_bounded_at_64_entries(self):
        for i in range(65):
            analyze(K1_P, K1_Q, K1_SPACE, 0, ALPHA, 1000, 0.01 + 0.01 * i)
        assert len(smalldev._instances) == 64

    @pytest.mark.parametrize("change,err,what", [
        ({"alpha": math.nan}, InputError, "alpha must be finite and > 0"),
        ({"alpha": 0.0}, InputError, "alpha must be finite and > 0"),
        ({"alpha": math.inf}, InputError, "alpha must be finite and > 0"),
        ({"epsilon": 0.0}, InputError, "epsilon must be in"),
        ({"epsilon": math.nan}, InputError, "epsilon must be in"),
        ({"tie_tol": -1.0}, InputError, "tie tolerance must be finite"),
        ({"tie_tol": math.nan}, InputError, "tie tolerance must be finite"),
        ({"n": 0}, InputError, "n must be >= 1"),
        ({"q_dists": [Distribution([0.1, 0.2, 0.7]), B(0.2)]}, InputError, "alphabet size"),
        ({"space": enumerate_space(3, 2, 1)}, InputError, "space is over"),
        ({"l": 8}, InputError, "outside"),
        ({"l": 1}, InputError, "inconsistent"),
        ({"n": math.nan}, InputError, "n must be >= 1"),
        ({"n": 2.5}, InputError, "n must be >= 1"),
        ({"n": True}, InputError, "n must be >= 1"),
    ])
    def test_guards_raise_again_with_a_warm_memo(self, change, err, what):
        good = dict(p_dists=K1_P, q_dists=K1_Q, space=K1_SPACE, l=0, alpha=ALPHA, n=1000,
                    epsilon=0.1, tie_tol=1e-9)
        analyze(**good)
        for _ in range(2):
            with pytest.raises(err, match=what):
                analyze(**{**good, **change})
        assert len(smalldev._instances) == 1


def _outcome(fn, *args, **kwargs):
    """What a call gives: the repr of its result, exact for floats, or its
    error's type and message."""
    try:
        return repr(fn(*args, **kwargs))
    except (InputError, NumericError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _pre_change_cdf(upper, mean=None, cov=None, **kwargs):
    """(estimate, error) of the pre-change CDF, with its one declared change:
    exact copies that it left apart, because the covariance needed no
    projection, are merged, so the answer is its CDF of the merged
    coordinates."""
    if cov is not None and np.shape(cov)[0] == np.size(upper) and np.isfinite(cov).all():
        cov = np.asarray(cov, dtype=np.float64)
        z = np.asarray(upper, dtype=np.float64) - (0.0 if mean is None else np.asarray(mean, dtype=np.float64))
        merged_z, merged = gaussian_oracle.merge_copies(z, cov)
        if merged_z.size < z.size and not smalldev._project_psd(cov)[1]:
            return gaussian_oracle.mvn_cdf(merged_z, None, merged, **kwargs)
    return gaussian_oracle.mvn_cdf(upper, mean, cov, **kwargs)


def _copy_covs():
    """PSD covariances with exact copies at tau = 2, 3 and 4. The
    eigendecomposition of some finds a negative eigenvalue (the pre-change
    CDF projected and merged them) and of the others none."""
    w = _well_conditioned_covs()

    def dup(cov, idx):
        return cov[np.ix_(idx, idx)]

    return [
        0.04 * np.ones((2, 2)), dup(w[0], [1, 1]),
        np.ones((3, 3)), np.array([[1.0, 1.0, 0.3], [1.0, 1.0, 0.3], [0.3, 0.3, 1.0]]),
        dup(w[0], [0, 1, 0]), dup(w[3], [2, 0, 2]),
        DECLARED_COV, 4.0 * np.ones((4, 4)), dup(w[0], [0, 1, 2, 1]), dup(w[1], [3, 0, 3, 1]),
        dup(w[0], [0, 0, 2, 2]),
    ]


# copies Z_0 = Z_1 in a PSD matrix whose eigenvalues all come out >= 0
DECLARED_COV = np.array([[1.0, 1.0, 0.3, 0.2], [1.0, 1.0, 0.3, 0.2], [0.3, 0.3, 1.0, 0.1], [0.2, 0.2, 0.1, 1.0]])
_C3 = np.array([[1.0, 0.5, 0.2], [0.5, 1.0, 0.3], [0.2, 0.3, 1.0]])
_NEAR = np.array([[1.0, 1.0 - 5e-13, 0.3, 0.3], [1.0 - 5e-13, 1.0, 0.3, 0.3],
                  [0.3, 0.3, 1.0, 1.0], [0.3, 0.3, 1.0, 1.0]])
_RANK2 = np.array([[1.0, 0.0, 2**-0.5], [0.0, 1.0, 2**-0.5], [2**-0.5, 2**-0.5, 1.0]]) - 1e-12 * np.eye(3)


def _cdf_cases():
    """(upper, mean, cov, keywords) of the TestMvnCdf and TestPsdProjection
    calls, then the test covariances at two sets of limits, asked for their
    sign against 0.9 as a quantile probe asks, and the copy covariances."""
    eye = np.eye
    cases = [([u], [0.0], [[1.0]], {}) for u in (-1.3, 0.0, 2.4)] + [([3.0], [1.0], [[4.0]], {})]
    cases += [([0, 0], [0, 0], eye(2), {}), ([0.2, -0.1, 0.4], [0, 0, 0], eye(3), {})]
    cases += [([0, 0], [0, 0], [[1, r], [r, 1]], {})
              for r in (-1 + 1e-9, -0.97, -0.8, -0.3, 0.5, 0.9, 0.93, 0.999, 1 - 1e-9)]
    cases += [([u, 0.3], [0, 0], [[1.0, 0.4], [0.4, 2.0]], {}) for u in np.linspace(-2, 2, 9)]
    cases += [([0.5, 0.1, -0.2], [0, 0, 0], _C3, {}), (np.zeros(3), None, _C3, {})]
    cases += [([0, 0], [0, 0], [[0.0189, -0.12], [-0.12, 0.0174]], {}),
              ([0, 0], [0, 0], [[1.0, 0.5], [0.1, 1.0]], {}),
              ([0.0, 0.0], [0.0, 0.0, 0.0], None, {}), ([0.0, 0.0], None, eye(3), {}),
              ([math.nan, 0.0], None, None, {}), ([0.0, 0.0], None, [[math.inf, 0.0], [0.0, 1.0]], {}),
              ([math.inf, 0.0], None, None, {}), ([-math.inf, 0.0], None, None, {})]
    well, cov2 = _well_conditioned_covs(), [[1.0, 0.5], [0.5, 1.0]]
    cases += [(0.05 * np.ones(4), None, well[1], {"abs_tol": 1e-12, "target": 0.9}),
              (0.05 * np.ones(4), None, well[1], {"abs_tol": 1e-12})]
    cases += [(u, None, cov2, {}) for u in ([np.inf, 0.3], [np.inf, np.inf], [-np.inf, 0.3])]
    cases += [(u, m, well[0], {}) for u, m in (([0.2, np.inf, -0.1], None), ([np.inf, 0.4, np.inf], [0.0, 0.1, 0.0]),
                                                ([0.2, np.inf, -np.inf], None))]
    cases += [([0.1, 0.2, np.inf, 0.3], None, well[1], {})]
    cases += [([0.7, x], [0, 0], [[1.0, 0.0], [0.0, 0.0]], {}) for x in (0.1, -0.1)]
    cases += [(0.1 * np.ones(3), None, np.ones((3, 3)), {}), ([0.1, 0.3, -0.2], None, 4.0 * np.ones((3, 3)), {}),
              ([0.4, 0.2, 0.5], None, [[1.0, 1.0, 0.3], [1.0, 1.0, 0.3], [0.3, 0.3, 1.0]], {}),
              ([0.1, 0.1, 0.4, 0.3], None, _NEAR, {}), ([0.1, 0.2, 0.3], None, _RANK2, {})]
    for cov in [c for c, _ in _ill_conditioned_cases()[::2]] + well + _copy_covs():
        sd = np.sqrt(np.diag(cov))
        for upper in (2.0 * sd, np.resize([0.3, -0.1, 0.2], len(sd)) * sd.max() * 4):
            cases.append((upper, None, cov, {"target": 0.9}))
    return cases


class TestPreChangeOracle:
    """mvn_cdf and the reject quantile against the code before one prepared
    Gaussian per covariance, bit for bit."""

    @pytest.mark.parametrize("case", range(len(_cdf_cases())))
    def test_mvn_cdf_matches_bit_for_bit(self, case):
        upper, mean, cov, kwargs = _cdf_cases()[case]
        got = _outcome(mvn_cdf, upper, mean, cov, with_error=True, **kwargs)
        assert got == _outcome(_pre_change_cdf, upper, mean, cov, **kwargs)

    @pytest.mark.parametrize("case", range(15))
    def test_quantile_matches_bit_for_bit(self, case):
        if case < 10:
            cov, eps = _ill_conditioned_cases()[case]
        else:
            cov, eps = _well_conditioned_covs()[case - 10], 0.1
        got = gaussian_reject_quantile(cov, eps, with_tol=True)
        assert repr(got) == repr(gaussian_oracle.reject_quantile(cov, eps))

    @pytest.mark.parametrize("case", range(len(_copy_covs())))
    def test_quantile_with_copies(self, case):
        # bit for bit where the pre-change CDF merged the copies; elsewhere
        # its CDF of the merged coordinates crosses 0.9 within nu_tol of nu*
        cov = _copy_covs()[case]
        nu, nu_tol = gaussian_reject_quantile(cov, 0.1, with_tol=True)
        if smalldev._project_psd(cov)[1]:
            assert repr((nu, nu_tol)) == repr(gaussian_oracle.reject_quantile(cov, 0.1))
        else:
            ones = np.ones(len(cov))
            assert _pre_change_cdf((nu - nu_tol) * ones, None, cov)[0] < 0.9
            assert _pre_change_cdf((nu + nu_tol) * ones, None, cov)[0] >= 0.9

    def test_declared_copy_change(self):
        # the pre-change CDF ran QMC on the four coordinates; Z_0 = Z_1 now
        # merge, and the exact tau = 3 value lies within that QMC error
        upper = [0.2, 0.1, 0.3, 0.4]
        est, err = mvn_cdf(upper, None, DECLARED_COV, with_error=True)
        assert (est, err) == (0.2738519062777856, 0.0)
        assert (est, err) == mvn_cdf([0.1, 0.3, 0.4], None, DECLARED_COV[1:, 1:], with_error=True)
        old, old_err = gaussian_oracle.mvn_cdf(upper, None, DECLARED_COV)
        assert (old, old_err) == (0.2738518941331495, pytest.approx(3.8e-7, rel=0.02))
        assert abs(est - old) <= old_err

    @pytest.mark.parametrize("name,k,truth", [
        ("dists.json", 2, ((0, 0), (1, 1))), ("near_tie.json", 1, ((0, 0),)), ("ternary.json", 1, ((0, 0),)),
    ])
    def test_golden_analyses_bit_identical(self, name, k, truth):
        _, p, q = load_dists(str(Path(__file__).parent / "golden" / name))
        space = enumerate_space(len(p), len(q), k)
        l = space.index_of(MatchHypothesis(truth))
        for n in (200, 1000):
            _assert_bit_identical(analyze(p, q, space, l, ALPHA, n, 0.1), _pre_change_analysis(p, q, space, l, n))

    def test_bench_analysis_bit_identical(self):
        a = analyze(TERNARY_P, TERNARY_Q, TERNARY_SPACE, 0, ALPHA, 1000, 0.1)
        _assert_bit_identical(a, _pre_change_analysis(TERNARY_P, TERNARY_Q, TERNARY_SPACE, 0, 1000))
        assert a.nu_star == 0.4984165628703029


def _pre_change_analysis(p, q, space, l, n, eps=0.1):
    """analyze as it was: the projection of the raw covariance, then the
    pre-change quantile solve of the raw matrix."""
    big_lambda, ties = rivals(population_scores(p, q, space, ALPHA), l, tol=1e-9)
    raw = smalldev.covariance_matrix(p, q, space, ties, ALPHA)
    cov, projected = smalldev._project_psd(raw)
    nu, nu_tol = gaussian_oracle.reject_quantile(raw, eps)
    return SmallDevAnalysis(big_lambda, tuple(ties), len(ties), cov, nu, nu_tol,
                            big_lambda - nu / math.sqrt(n), n, eps, projected)


@pytest.fixture
def projections(monkeypatch):
    """List the PSD projections from here on."""
    calls, real = [], smalldev._project_psd

    def counted(cov, *args):
        calls.append(np.shape(cov))
        return real(cov, *args)

    monkeypatch.setattr(smalldev, "_project_psd", counted)
    return calls


class TestOnePreparation:
    """A covariance is checked, merged and projected once, however many
    probes evaluate it: twice only when copies merge."""

    def test_cold_analyze_projects_once(self, projections, cdf_runs):
        a = analyze(TERNARY_P, TERNARY_Q, TERNARY_SPACE, 0, ALPHA, 1000, 0.1)
        assert a.tau == 3 and len(cdf_runs) >= 3
        assert projections == [(3, 3)]
        analyze(TERNARY_P, TERNARY_Q, TERNARY_SPACE, 0, ALPHA, 2000, 0.1)
        assert projections == [(3, 3)]

    def test_cold_analyze_with_copies_projects_twice(self, projections, monkeypatch):
        monkeypatch.setattr(smalldev, "covariance_matrix", lambda *a: 0.04 * np.ones((3, 3)))
        a = analyze(TERNARY_P, TERNARY_Q, TERNARY_SPACE, 0, ALPHA, 1000, 0.1)
        assert a.psd_projected and projections == [(3, 3), (1, 1)]

    @pytest.mark.parametrize("case", range(6))
    def test_quantile_solve_projects_once_or_twice(self, case, projections, cdf_runs):
        cov = (_trivariate_covs() + [_copy_covs()[-1]])[case]
        gaussian_reject_quantile(cov, 0.1)
        merged = len(smalldev._merge_copies(cov)[1])
        assert len(cdf_runs) >= 3
        assert projections == [cov.shape] + ([(merged, merged)] if merged < len(cov) else [])

    @pytest.mark.parametrize("end,within", [("lo", False), ("lo", True), ("hi", False), ("hi", True)])
    def test_bracket_end_is_the_root(self, end, within, monkeypatch):
        # an estimate at a bracket end on the wrong side of 1 - eps, beyond
        # or within its error, makes that end nu*; the slope's conditional
        # CDFs (tau - 1 coordinates) run for real
        cov, eps, err = _well_conditioned_covs()[0], 0.1, 1e-4
        sig_max = float(np.sqrt(np.diag(cov)).max())
        lo = sig_max * float(ndtri(1 - eps)) - 1e-6 * sig_max
        hi = sig_max * float(ndtri(1 - eps / 3)) + 1e-6 * sig_max
        miss = 0.5 * err if within else 2.0 * err
        real, probes = smalldev._Gaussian.cdf, []

        def probe(self, limits, abs_tol, target):
            if len(limits) < 3:
                return real(self, limits, abs_tol, target)
            probes.append(limits[0])
            if end == "lo":
                return target + miss, err
            return (target - 2.0 * err if len(probes) == 1 else target - miss), err

        monkeypatch.setattr(smalldev._Gaussian, "cdf", probe)
        nu, nu_tol = gaussian_reject_quantile(cov, eps, with_tol=True)
        assert nu == (lo if end == "lo" else hi)
        assert probes == ([lo] if end == "lo" else [lo, hi])
        assert nu_tol == err / smalldev._cdf_slope(cov, nu)

    def test_slope_skips_a_zero_variance_coordinate(self):
        # a fourth score that is always 0 stays below any x > 0: the slope
        # is that of the other three
        base = _well_conditioned_covs()[0]
        cov = np.zeros((4, 4))
        cov[:3, :3] = base
        slope = smalldev._cdf_slope(cov, 0.3)
        assert math.isfinite(slope) and slope > 0.0
        assert slope == pytest.approx(smalldev._cdf_slope(base, 0.3), rel=1e-12)


class TestConverseSlack:
    def test_direct_arithmetic(self):
        out = converse_slack(100, 200, 4, 2, 2, 0.5)
        want_delta = 4 * 2 * math.log(201) / 200 + 2 * 2 * math.log(101) / 100
        assert out["delta"] == pytest.approx(want_delta, rel=1e-14)
        assert out["lambda_tilde"] == pytest.approx(0.5 - want_delta - math.log(100) / 100, rel=1e-13)
        assert not out["negative_threshold"]

    def test_vanishing_slack(self):
        out = converse_slack(10**8, 2 * 10**8, 4, 2, 2, 0.3)
        assert out["delta"] < 2e-6
        assert out["lambda_tilde"] == pytest.approx(0.3, abs=1e-5)

    def test_negative_flagged(self):
        out = converse_slack(100, 200, 4, 2, 2, 0.01)
        assert out["lambda_tilde"] < 0
        assert out["negative_threshold"]

    @pytest.mark.parametrize("n,big_n", [
        (0, 200), (100, 0), (-1, 200), (math.nan, 200), (100, math.nan), (2.5, 200), (100, 200.0),
        (True, 200), (100, True),
    ])
    def test_lengths_below_one_rejected(self, n, big_n):
        with pytest.raises(InputError, match="n and N must be >= 1"):
            converse_slack(n, big_n, 4, 2, 2, 0.5)

    def test_numpy_integer_lengths_accepted(self):
        assert converse_slack(np.int64(100), np.int32(200), 4, 2, 2, 0.5) == converse_slack(100, 200, 4, 2, 2, 0.5)
