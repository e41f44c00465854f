"""Acceptance suite: one test per criterion, asserted at the stated
tolerances, printing one pass/fail line each (run with -s to stream them).

Criterion 2 checks the reference configuration's rival-score floor at its
corrected value, 0.0275: the printed 0.275 drops a zero (the companion
`_recomputed` test pins the recomputed 0.0274511). Criterion 3's ceiling
clause compares the solver's zero-threshold value with the separately
assembled ceiling of `max_false_reject_exponent`. README section "Errata
of the reference values" gives the worked numbers for both.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import ndtri

from conftest import random_binary_instance
from seqmatch.core import Alphabet, Distribution, MatchHypothesis, ProblemConfig
from seqmatch.divergences import gjs, info_densities, kl, renyi
from seqmatch.exponents import (
    false_reject_curve,
    false_reject_exponent,
    max_false_reject_exponent,
    min_rival_score,
    min_unmatched_gjs,
    simple_test_floor,
    spurious_match_exponent,
)
from seqmatch.glrt import TestConfig as GlrtConfig
from seqmatch.hypotheses import enumerate_space
from seqmatch.simulate import SimulationSpec, estimate_errors
from seqmatch.smalldev import analyze, mvn_cdf, score_covariance, tie_set

B = Distribution.bernoulli
ALPHA = 2.0


def _report(num: int, desc: str):
    class _Ctx:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            status = "PASS" if exc_type is None else "FAIL"
            print(f"[criterion {num:02d}] {status} - {desc}")
            return False

    return _Ctx()


# -- 1 -----------------------------------------------------------------------

def test_criterion_01_hypothesis_counting():
    with _report(1, "hypothesis counting: T(4,2,2)=12, T(M,1,1)=M, <1ms"):
        enumerate_space(4, 2, 2)  # warm
        t0 = time.perf_counter()
        space = enumerate_space(4, 2, 2)
        elapsed = time.perf_counter() - t0
        assert len(space) == 12
        for m in (2, 3, 5, 7):
            assert len(enumerate_space(m, 1, 1)) == m
        assert elapsed < 1e-3


# -- 2 -----------------------------------------------------------------------

CRIT2_P = [B(0.2), B(0.1), B(0.327), B(0.4)]
CRIT2_Q = [B(0.2)]


def test_criterion_02_rival_floor_reproduction():
    with _report(2, "rival-score floor = 0.0275 +/- 2e-3 and tie set {2,3} (erratum corrected)"):
        space = enumerate_space(4, 1, 1)
        lam = min_rival_score(CRIT2_P, CRIT2_Q, space, 0, ALPHA)
        ties = tie_set(CRIT2_P, CRIT2_Q, space, 0, ALPHA, tol=1e-3)
        assert {t + 1 for t in ties} == {2, 3}
        assert abs(lam - 0.0275) <= 2e-3, (
            f"floor {lam:.7f} misses the corrected constant 0.0275 "
            "(the printed 0.275 drops a zero; see criterion 2 companion)"
        )


def test_criterion_02_recomputed():
    with _report(2, "companion: recomputed floor 0.0274511 +/- 2e-3, tie set {2,3}"):
        space = enumerate_space(4, 1, 1)
        lam = min_rival_score(CRIT2_P, CRIT2_Q, space, 0, ALPHA)
        direct = min(gjs(CRIT2_P[t], CRIT2_Q[0], ALPHA) for t in (1, 2, 3))
        assert lam == pytest.approx(direct, rel=1e-12)
        assert abs(lam - 0.0274511) <= 2e-3
        ties = tie_set(CRIT2_P, CRIT2_Q, space, 0, ALPHA, tol=1e-3)
        assert {t + 1 for t in ties} == {2, 3}


# -- 3 -----------------------------------------------------------------------

def _lemma1_instances():
    rng = np.random.default_rng(20240809)
    out = []
    while len(out) < 20:
        P, Q, h = random_binary_instance(rng)
        space = enumerate_space(len(P), len(Q), h.k)
        if len(space) >= 2:
            out.append((P, Q, h, space))
    return out


def test_criterion_03_lemma1_property_suite():
    with _report(3, "20 random instances: monotone curve, zero condition, ceiling equality"):
        for P, Q, h, space in _lemma1_instances():
            l = space.index_of(h)
            lam_star = min_rival_score(P, Q, space, l, ALPHA)
            lams = np.linspace(0.0, lam_star * 1.2, 50)
            vals = [s.value for s in false_reject_curve(P, Q, h, space, lams, ALPHA)]
            assert all(a >= b - 1e-7 for a, b in zip(vals, vals[1:])), "monotonicity"
            assert false_reject_exponent(P, Q, h, space, lam_star + 1e-3, ALPHA).value == 0.0
            if lam_star > 1e-2:
                below = false_reject_exponent(P, Q, h, space, lam_star - 1e-2, ALPHA)
                assert below.value > 1e-6
            ups = max_false_reject_exponent(P, Q, h, space, ALPHA)
            assert vals[0] == pytest.approx(ups, abs=1e-5), (
                f"ceiling mismatch at K={h.k}: F(0)={vals[0]:.6f} vs ceiling {ups:.6f} "
                "(per-column formula miscounts shared x-costs whenever M2>=2; "
                "see criterion 3 companion)"
            )


def test_criterion_03_corrected():
    with _report(3, "companion: ceiling exact for M2=1; zero-threshold value cross-validated"):
        for P, Q, h, space in _lemma1_instances():
            l = space.index_of(h)
            lam_star = min_rival_score(P, Q, space, l, ALPHA)
            v0 = false_reject_exponent(P, Q, h, space, 0.0, ALPHA).value
            ups = max_false_reject_exponent(P, Q, h, space, ALPHA)
            if len(Q) == 1:
                # a single y-column leaves no x-sequence to link two
                # columns, so the ceiling is the per-column formula
                assert v0 == pytest.approx(ups, abs=1e-5)
            # independent route: the inequality-constrained solver at a tiny
            # positive threshold must sit just below the closed form
            near = false_reject_exponent(P, Q, h, space, 1e-7, ALPHA).value
            assert near <= v0 + 1e-9
            assert v0 - near <= 5e-3
            assert false_reject_exponent(P, Q, h, space, lam_star + 1e-3, ALPHA).value == 0.0


# -- 4 -----------------------------------------------------------------------

def test_criterion_04_renyi_closed_form():
    with _report(4, "zero-threshold estimation exponent equals min eligible Renyi"):
        rng = np.random.default_rng(77)
        for _ in range(20):
            m1 = int(rng.integers(2, 5))
            P, Q, h = random_binary_instance(rng, m1=m1, m2=2, k=1)
            got = spurious_match_exponent(P, Q, h, 0.0, ALPHA)
            want = min(
                renyi(P[i], Q[j], ALPHA / (1 + ALPHA))
                for i in range(m1)
                for j in range(2)
                if i not in h.a_set and j not in h.b_set
            )
            assert got == pytest.approx(want, abs=1e-6)


# -- 5 -----------------------------------------------------------------------

def test_criterion_05_decomposition_identity():
    with _report(5, "weighted-KL/GJS decomposition identity on 1e4 random draws"):
        rng = np.random.default_rng(13)
        total = 0
        while total < 10_000:
            size = int(rng.integers(2, 7))
            m = 500
            om = rng.dirichlet(np.ones(size), m)
            ps = rng.dirichlet(np.ones(size), m)
            pp = rng.dirichlet(np.ones(size) * 2, m)
            a = rng.uniform(0.1, 6.0)
            mix = (a * om + ps) / (1 + a)

            def _kl_rows(x, y):
                t = np.where(x > 0, x * (np.log(np.maximum(x, 1e-300)) / 1.0 - np.log(np.maximum(y, 1e-300))), 0.0)
                return t.sum(axis=1)

            lhs = a * _kl_rows(om, pp) + _kl_rows(ps, pp)
            gjs_v = a * _kl_rows(om, mix) + _kl_rows(ps, mix)
            rhs = gjs_v + (1 + a) * _kl_rows(mix, pp)
            assert np.max(np.abs(lhs - rhs)) <= 1e-10
            total += m


# -- 6 -----------------------------------------------------------------------

NEAR_TIED_P = (B(0.1), B(0.11), B(0.12), B(0.13))
NEAR_TIED_Q = (B(0.1), B(0.11))
TRUTH_2 = MatchHypothesis(((0, 0), (1, 1)))


def test_criterion_06_mismatch_bound():
    with _report(6, "empirical mismatch <= exp(-n*lambda) + 3 se on the near-tied config"):
        lam = 1e-4
        cfg = ProblemConfig(4, 2, Alphabet(2), ALPHA, 200)
        spec = SimulationSpec(
            cfg, NEAR_TIED_P, NEAR_TIED_Q, TRUTH_2, "unnikrishnan",
            GlrtConfig(lam=lam, k=2), 100_000, 2024, (200, 500, 1000),
        )
        res = estimate_errors(spec)
        for n in (200, 500, 1000):
            row = res.row(n, "mismatch")
            assert row.p_hat <= math.exp(-n * lam) + 3 * row.stderr + 1e-12

        # the corrected thresholds above reject every trial, so the bound
        # holds with no mismatch at all; at the raw threshold mismatches occur
        lam = 2e-3
        spec = SimulationSpec(
            cfg, NEAR_TIED_P, NEAR_TIED_Q, TRUTH_2, "unnikrishnan",
            GlrtConfig(lam=lam, k=2, type_correction=False), 100_000, 2024, (200, 500, 1000),
        )
        res = estimate_errors(spec)
        for n in (200, 500, 1000):
            row = res.row(n, "mismatch")
            assert row.count >= 1
            assert row.p_hat <= math.exp(-n * lam) + 3 * row.stderr + 1e-12


# -- 7 -----------------------------------------------------------------------

def test_criterion_07_calibrated_threshold_tracks_epsilon():
    with _report(7, "false-reject at the calibrated raw threshold approaches 0.1"):
        P = (B(0.1), B(0.2), B(0.3), B(0.4))
        Q = (B(0.1), B(0.2))
        space = enumerate_space(4, 2, 2)
        l = space.index_of(TRUTH_2)
        eps = 0.1
        p_hats = {}
        ses = {}
        for n in (500, 1000, 2000):
            a = analyze(P, Q, space, l, ALPHA, n, eps, tie_tol=1e-6)
            assert a.chi_star > 0
            cfg = ProblemConfig(4, 2, Alphabet(2), ALPHA, n)
            spec = SimulationSpec(
                cfg, P, Q, TRUTH_2, "unnikrishnan",
                GlrtConfig(lam=a.chi_star, k=2, type_correction=False),
                100_000, 71, (n,),
            )
            row = estimate_errors(spec).row(n, "false_reject")
            p_hats[n], ses[n] = row.p_hat, row.stderr
        assert p_hats[2000] <= eps + 0.03 + 3 * ses[2000]
        assert abs(p_hats[2000] - eps) <= abs(p_hats[500] - eps) + 3 * (ses[2000] + ses[500])


# -- 8 -----------------------------------------------------------------------

def test_criterion_08_covariance_oracle():
    with _report(8, "exact score covariance matches 1e6-sample Monte Carlo within 3 se"):
        rng = np.random.default_rng(55)
        m = 1_000_000
        for _ in range(10):
            P, Q, _h = random_binary_instance(rng, m1=4, m2=2, k=1)
            space = enumerate_space(4, 2, 2)
            t1 = space[int(rng.integers(len(space)))]
            t2 = space[int(rng.integers(len(space)))]
            exact = score_covariance(P, Q, t1, t2, ALPHA)
            xs = (rng.random((m, 4)) < np.array([p.probs[1] for p in P])).astype(int)
            ys = (rng.random((m, 2)) < np.array([q.probs[1] for q in Q])).astype(int)
            sums = []
            for hyp in (t1, t2):
                sa = np.zeros(m)
                sb = np.zeros(m)
                for i, j in hyp.pairs:
                    d1, d2 = info_densities(P[i].probs, Q[j].probs, ALPHA)
                    sa += d1[xs[:, i]]
                    sb += d2[ys[:, j]]
                sums.append((sa, sb))

            def cov_se(u, v):
                uc, vc = u - u.mean(), v - v.mean()
                c = float((uc * vc).mean())
                return c, math.sqrt(float(((uc * vc - c) ** 2).mean()) / m)

            ca, sea = cov_se(sums[0][0], sums[1][0])
            cb, seb = cov_se(sums[0][1], sums[1][1])
            mc = ALPHA * ca + cb
            se = math.hypot(ALPHA * sea, seb)
            assert abs(mc - exact) <= 3 * se + 1e-12


# -- 9 -----------------------------------------------------------------------

def test_criterion_09_two_phase_estimation():
    with _report(9, "match-count estimation >= 99% and decaying false alarms"):
        p = (B(0.10), B(0.45), B(0.90))
        q = (B(0.10), B(0.70))
        truth = MatchHypothesis(((0, 0),))
        gmin = min_unmatched_gjs(p, q, truth, ALPHA)
        lam1 = 0.3 * gmin
        assert 0 < lam1 < gmin
        cfg = ProblemConfig(3, 2, Alphabet(2), ALPHA, 2000)
        spec = SimulationSpec(
            cfg, p, q, truth, "two_phase",
            GlrtConfig(lambda1=lam1, lambda2=1e-3), 10_000, 31, (2000,),
        )
        res = estimate_errors(spec)
        assert res.row(2000, "k_estimate_correct").p_hat >= 0.99

        qn = (B(0.26), B(0.62))
        g0 = min_unmatched_gjs(p, qn, None, ALPHA)
        lam1n = g0 - 0.03
        assert 0 < lam1n < g0
        cfg2 = ProblemConfig(3, 2, Alphabet(2), ALPHA, 500)
        spec2 = SimulationSpec(
            cfg2, p, qn, None, "two_phase",
            GlrtConfig(lambda1=lam1n, lambda2=1e-3), 10_000, 37, (500, 1000, 2000),
        )
        res2 = estimate_errors(spec2)
        alarms = [res2.row(n, "false_alarm").p_hat for n in (500, 1000, 2000)]
        assert alarms[0] > alarms[1] >= alarms[2]
        assert alarms[0] > 0.05


# -- 10 ----------------------------------------------------------------------

def test_criterion_10_simple_test_comparison():
    with _report(10, "repeated-test floor <= joint exponent; MC reject exponents ordered"):
        space = enumerate_space(4, 2, 2)
        l = space.index_of(TRUTH_2)
        lam_star = min_rival_score(NEAR_TIED_P, NEAR_TIED_Q, space, l, ALPHA)
        for lam in (0.0, lam_star / 4, lam_star / 2, 3 * lam_star / 4, 0.9 * lam_star, 1.5 * lam_star):
            floor = simple_test_floor(NEAR_TIED_P, NEAR_TIED_Q, space, l, lam, ALPHA)
            joint = false_reject_exponent(NEAR_TIED_P, NEAR_TIED_Q, TRUTH_2, space, lam, ALPHA).value
            assert floor <= joint + 1e-7

        n = 500
        cfg = ProblemConfig(4, 2, Alphabet(2), ALPHA, n)
        rows = {}
        for name, tc in (
            ("unnikrishnan", GlrtConfig(lam=1e-4, k=2)),
            ("simple", GlrtConfig(lam=1e-4)),
        ):
            spec = SimulationSpec(cfg, NEAR_TIED_P, NEAR_TIED_Q, TRUTH_2, name, tc,
                                  20_000, 45, (n,))
            rows[name] = estimate_errors(spec).row(n, "false_reject")
        band = 2 * (rows["simple"].exponent - rows["simple"].exp_lo if rows["simple"].count else 0.0)
        band += 2 * (rows["unnikrishnan"].exponent - rows["unnikrishnan"].exp_lo if rows["unnikrishnan"].count else 0.0)
        assert rows["simple"].exponent <= rows["unnikrishnan"].exponent + band + 1e-12

        # with type correction both tests reject every trial above, so the
        # ordering compares 0 with 0; at the raw threshold both reject some
        for name, tc in (
            ("unnikrishnan", GlrtConfig(lam=1e-4, k=2, type_correction=False)),
            ("simple", GlrtConfig(lam=1e-4, type_correction=False)),
        ):
            spec = SimulationSpec(cfg, NEAR_TIED_P, NEAR_TIED_Q, TRUTH_2, name, tc,
                                  20_000, 45, (n,))
            rows[name] = estimate_errors(spec).row(n, "false_reject")
            assert 0 < rows[name].count < rows[name].trials
        band = 2 * (rows["simple"].exponent - rows["simple"].exp_lo)
        band += 2 * (rows["unnikrishnan"].exponent - rows["unnikrishnan"].exp_lo)
        assert rows["simple"].exponent <= rows["unnikrishnan"].exponent + band + 1e-12


# -- 11 ----------------------------------------------------------------------

def test_criterion_11_orthant_probability():
    with _report(11, "bivariate orthant probability at rho=0.5 equals 1/3"):
        got = mvn_cdf([0.0, 0.0], [0.0, 0.0], [[1.0, 0.5], [0.5, 1.0]])
        assert abs(got - 1.0 / 3.0) <= 1e-6
