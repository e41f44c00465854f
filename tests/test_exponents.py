import math
from itertools import combinations

import numpy as np
import pytest
from scipy.optimize import brentq

from conftest import random_binary_instance
from seqmatch.core import Distribution, InputError, MatchHypothesis
from seqmatch.divergences import gjs, gjs_arr, i1_arr, i2_arr, kl, kl_arr, renyi
from seqmatch.exponents import (
    FEAS_TOL,
    _PFLOOR,
    _ConstrainedKl,
    _solve_pair,
    false_reject_curve,
    false_reject_exponent,
    max_false_reject_exponent,
    min_rival_score,
    min_unmatched_gjs,
    population_score,
    reference_psis,
    simple_test_floor,
    spurious_match_exponent,
    two_phase_exponents,
    type_exponent,
)
from seqmatch.hypotheses import enumerate_space

B = Distribution.bernoulli
ALPHA = 2.0


def klb(v, ref):
    return kl_arr(np.array([1 - v, v]), ref.probs)


def gjsb(v, w, a=ALPHA):
    return gjs_arr(np.array([1 - v, v]), np.array([1 - w, w]), a)


def projected_inner(p_param, w, lam, a=ALPHA):
    """min over omega of D(omega||Bern(p)) subject to GJS(omega, Bern(w)) <= lam;
    scalar convexity puts the optimum at p or at the constraint boundary
    between p and w."""
    if gjsb(p_param, w, a) <= lam:
        return p_param
    lo, hi = (p_param, w) if p_param < w else (w, p_param)
    return brentq(lambda v: gjsb(v, w, a) - lam, lo, hi, xtol=1e-14)


class TestTypeExponent:
    def test_zero_at_targets(self):
        P = [B(0.1), B(0.4), B(0.7)]
        Q = [B(0.4), B(0.9)]
        h = MatchHypothesis(((1, 0),))
        refs = [B(0.4), B(0.9)]
        assert type_exponent(P, Q, h, P, refs, ALPHA) == pytest.approx(0.0, abs=1e-14)

    def test_term_by_term_oracle(self):
        P = [B(0.1), B(0.4)]
        Q = [B(0.4)]
        h = MatchHypothesis(((1, 0),))
        om = [B(0.2), B(0.3)]
        ps = [B(0.6)]
        want = ALPHA * (kl(om[0], P[0]) + kl(om[1], P[1])) + kl(ps[0], P[1])
        assert type_exponent(P, Q, h, om, ps, ALPHA) == pytest.approx(want, rel=1e-13)

    def test_single_column_specialization(self):
        # with M2 = K = 1 the y-term references the matched x distribution
        P = [B(0.15), B(0.5), B(0.8)]
        Q = [B(0.5)]
        h = MatchHypothesis(((1, 0),))
        om = [B(0.2), B(0.45), B(0.7)]
        ps = [B(0.35)]
        want = sum(ALPHA * kl(o, p) for o, p in zip(om, P)) + kl(ps[0], P[1])
        assert type_exponent(P, Q, h, om, ps, ALPHA) == pytest.approx(want, rel=1e-13)

    def test_inconsistent_rejected(self):
        P = [B(0.1), B(0.4)]
        Q = [B(0.3)]
        with pytest.raises(InputError):
            type_exponent(P, Q, MatchHypothesis(((0, 0),)), P, Q, ALPHA)


class TestMinRivalScore:
    def test_recomputed_tie_example(self):
        # directly enumerable: min over the three rival single-pair scores
        P = [B(0.2), B(0.1), B(0.327), B(0.4)]
        Q = [B(0.2)]
        space = enumerate_space(4, 1, 1)
        direct = min(gjs(P[t], Q[0], ALPHA) for t in (1, 2, 3))
        got = min_rival_score(P, Q, space, 0, ALPHA)
        assert got == pytest.approx(direct, rel=1e-14)
        assert got == pytest.approx(0.0274511, abs=2e-6)

    def test_degenerate_zero(self):
        P = [B(0.2), B(0.2)]
        Q = [B(0.2)]
        space = enumerate_space(2, 1, 1)
        assert min_rival_score(P, Q, space, 0, ALPHA) == pytest.approx(0.0, abs=1e-14)

    def test_single_hypothesis_infinite(self):
        P = [B(0.3)]
        Q = [B(0.3)]
        space = enumerate_space(1, 1, 1)
        assert min_rival_score(P, Q, space, 0, ALPHA) == math.inf

    def test_k2_enumeration_oracle(self):
        P = [B(0.1), B(0.2), B(0.3), B(0.4)]
        Q = [B(0.1), B(0.2)]
        space = enumerate_space(4, 2, 2)
        l = space.index_of(MatchHypothesis(((0, 0), (1, 1))))
        direct = min(
            sum(gjs(P[i], Q[j], ALPHA) for i, j in space[t].pairs)
            for t in range(space.count)
            if t != l
        )
        assert min_rival_score(P, Q, space, l, ALPHA) == pytest.approx(direct, rel=1e-14)
        assert direct == pytest.approx(0.017614486606327355, rel=1e-10)


class TestFalseRejectExponent:
    def setup_method(self):
        self.P = [B(0.15), B(0.5), B(0.8)]
        self.Q = [B(0.15)]
        self.space = enumerate_space(3, 1, 1)
        self.h = self.space[0]
        self.lam_star = min_rival_score(self.P, self.Q, self.space, 0, ALPHA)

    def test_zero_condition_both_directions(self):
        above = false_reject_exponent(self.P, self.Q, self.h, self.space, self.lam_star + 1e-3, ALPHA)
        assert above.value == 0.0
        below = false_reject_exponent(self.P, self.Q, self.h, self.space, self.lam_star - 1e-2, ALPHA)
        assert below.value > 1e-6

    def test_zero_threshold_equals_ceiling(self):
        sol = false_reject_exponent(self.P, self.Q, self.h, self.space, 0.0, ALPHA)
        ups = max_false_reject_exponent(self.P, self.Q, self.h, self.space, ALPHA)
        assert sol.value == pytest.approx(ups, abs=1e-5)

    def test_monotone_curve(self):
        lams = np.linspace(0.0, self.lam_star * 1.2, 25)
        sols = false_reject_curve(self.P, self.Q, self.h, self.space, lams, ALPHA)
        vals = [s.value for s in sols]
        assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))
        assert vals[-1] == 0.0

    def test_grid_oracle(self):
        lam = 0.005
        sol = false_reject_exponent(self.P, self.Q, self.h, self.space, lam, ALPHA)
        params = [0.15, 0.5, 0.8]
        best = math.inf
        for t, s in ((0, 1), (0, 2), (1, 2)):
            for w in np.linspace(1e-4, 1 - 1e-4, 1500):
                et = projected_inner(params[t], w, lam)
                es = projected_inner(params[s], w, lam)
                val = klb(w, self.Q[0]) + ALPHA * klb(et, self.P[t]) + ALPHA * klb(es, self.P[s])
                best = min(best, val)
        assert sol.value <= best + 1e-9
        assert sol.value == pytest.approx(best, abs=5e-4)

    def test_certified_solution(self):
        lam = 0.004
        sol = false_reject_exponent(self.P, self.Q, self.h, self.space, lam, ALPHA)
        assert sol.converged
        # value re-derives from the argmin through the public objective
        direct = type_exponent(self.P, self.Q, self.h, sol.argmin_omegas, sol.argmin_psis, ALPHA)
        assert direct == pytest.approx(sol.value, abs=1e-9)
        t, s = sol.active_pair
        for idx in (t, s):
            g = population_score(sol.argmin_omegas, sol.argmin_psis, self.space[idx], ALPHA)
            assert g <= lam + 2e-7

    def test_single_hypothesis_flag(self):
        P = [B(0.3)]
        Q = [B(0.3)]
        space = enumerate_space(1, 1, 1)
        sol = false_reject_exponent(P, Q, space[0], space, 0.1, ALPHA)
        assert sol.value == math.inf
        assert sol.note == "single_hypothesis"

    def test_k2_zero_threshold_worked_example(self):
        # K = 2 ties both columns through the (l, swap) rival pair; the exact
        # tied-component value was cross-checked against a dense grid on the
        # equality set and against the solver at lambda = 1e-6. Here the
        # rival pairs map one x-sequence to both columns, so the ceiling
        # solves the two columns as one group, not column by column.
        P = [B(0.1), B(0.3), B(0.6), B(0.85)]
        Q = [B(0.1), B(0.3)]
        space = enumerate_space(4, 2, 2)
        h = MatchHypothesis(((0, 0), (1, 1)))
        sol = false_reject_exponent(P, Q, h, space, 0.0, ALPHA)
        assert sol.value == pytest.approx(0.20177210814262603, abs=1e-10)
        ups = max_false_reject_exponent(P, Q, h, space, ALPHA)
        assert sol.value <= ups + 1e-9
        near = false_reject_exponent(P, Q, h, space, 1e-6, ALPHA)
        assert near.value <= sol.value + 1e-9
        assert near.value == pytest.approx(sol.value, abs=2e-3)

    def test_random_instances_lemma_properties(self):
        rng = np.random.default_rng(42)
        for _ in range(6):
            P, Q, h = random_binary_instance(rng)
            space = enumerate_space(len(P), len(Q), h.k)
            if space.count < 2:
                continue
            lam_star = min_rival_score(P, Q, space, space.index_of(h), ALPHA)
            assert false_reject_exponent(P, Q, h, space, lam_star + 1e-3, ALPHA).value == 0.0
            v0 = false_reject_exponent(P, Q, h, space, 0.0, ALPHA).value
            ups = max_false_reject_exponent(P, Q, h, space, ALPHA)
            if len(Q) == 1:
                # single y-column: no rival pair can link columns, so the
                # ceiling is the per-column formula
                assert v0 == pytest.approx(ups, abs=1e-5)
            else:
                # cross-validate the tied closed form with the constrained
                # solver at a tiny positive threshold
                near = false_reject_exponent(P, Q, h, space, 1e-7, ALPHA).value
                assert near <= v0 + 1e-9
                assert v0 - near <= 5e-3


class TestUpsilon:
    def test_single_column_formula(self):
        # K = M2 = 1: min over rival pairs of a 1-D weighted-KL problem
        P = [B(0.15), B(0.5), B(0.8)]
        Q = [B(0.15)]
        space = enumerate_space(3, 1, 1)
        ups = max_false_reject_exponent(P, Q, space[0], space, ALPHA)
        best = math.inf
        for t, s in ((0, 1), (0, 2), (1, 2)):
            for w in np.linspace(1e-5, 1 - 1e-5, 20001):
                val = klb(w, Q[0]) + ALPHA * klb(w, P[t]) + ALPHA * klb(w, P[s])
                best = min(best, val)
        assert ups == pytest.approx(best, abs=1e-6)


class TestSpuriousMatchExponent:
    def test_zero_threshold_is_min_renyi(self):
        # three routes: the exponent, the Renyi closed form, and a dense
        # grid minimization of a*D(Psi||P) + D(Psi||Q) over a shared Psi
        rng = np.random.default_rng(7)
        psi = np.linspace(1e-7, 1 - 1e-7, 400_001)

        def grid_cost(p, q):
            def kl_to(r):
                return psi * np.log(psi / r) + (1 - psi) * np.log((1 - psi) / (1 - r))

            return float((ALPHA * kl_to(p.probs[1]) + kl_to(q.probs[1])).min())

        for _ in range(6):
            P, Q, h = random_binary_instance(rng, m1=3, m2=2, k=1)
            got = spurious_match_exponent(P, Q, h, 0.0, ALPHA)
            a_l, b_l = h.a_set, h.b_set
            eligible = [
                (i, j) for i in range(3) for j in range(2) if i not in a_l and j not in b_l
            ]
            want = min(renyi(P[i], Q[j], ALPHA / (1 + ALPHA)) for i, j in eligible)
            grid = min(grid_cost(P[i], Q[j]) for i, j in eligible)
            assert got == pytest.approx(want, abs=1e-6)
            assert grid == pytest.approx(want, abs=1e-6)

    def test_zero_condition(self):
        P, Q, h = random_binary_instance(np.random.default_rng(11), m1=3, m2=2, k=1)
        gmin = min_unmatched_gjs(P, Q, h, ALPHA)
        assert spurious_match_exponent(P, Q, h, gmin + 1e-6, ALPHA) == 0.0
        assert spurious_match_exponent(P, Q, h, gmin / 2, ALPHA) > 0.0

    def test_k_equals_m2_infinite(self):
        P = [B(0.1), B(0.5), B(0.9)]
        Q = [B(0.1), B(0.5)]
        h = MatchHypothesis(((0, 0), (1, 1)))
        assert spurious_match_exponent(P, Q, h, 0.05, ALPHA) == math.inf

    def test_positive_threshold_grid_oracle(self):
        # single eligible pair, lam1 > 0: dense 2-D lattice over both
        # Bernoulli parameters as the independent oracle
        p, q, lam1 = B(0.15), B(0.6), 0.01
        P = [p, B(0.4)]
        Q = [B(0.4), q]
        h = MatchHypothesis(((1, 0),))
        got = spurious_match_exponent(P, Q, h, lam1, ALPHA)
        om = np.linspace(1e-4, 1 - 1e-4, 1201)
        ps = np.linspace(1e-4, 1 - 1e-4, 1201)
        omg, psg = np.meshgrid(om, ps, indexing="ij")
        mix1 = (ALPHA * (1 - omg) + (1 - psg)) / (1 + ALPHA)
        mix2 = (ALPHA * omg + psg) / (1 + ALPHA)
        gjs_grid = (
            ALPHA * ((1 - omg) * np.log((1 - omg) / mix1) + omg * np.log(omg / mix2))
            + (1 - psg) * np.log((1 - psg) / mix1) + psg * np.log(psg / mix2)
        )
        obj = (
            ALPHA * ((1 - omg) * np.log((1 - omg) / p.probs[0]) + omg * np.log(omg / p.probs[1]))
            + (1 - psg) * np.log((1 - psg) / q.probs[0]) + psg * np.log(psg / q.probs[1])
        )
        feasible = gjs_grid <= lam1
        oracle = float(obj[feasible].min())
        assert got <= oracle + 1e-9
        assert got == pytest.approx(oracle, abs=5e-4)

    def test_monotone_in_threshold(self):
        P, Q, h = random_binary_instance(np.random.default_rng(23), m1=4, m2=2, k=1)
        gmin = min_unmatched_gjs(P, Q, h, ALPHA)
        lams = np.linspace(0.0, gmin * 1.1, 12)
        vals = [spurious_match_exponent(P, Q, h, lam, ALPHA) for lam in lams]
        assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))

    def test_null_variant_covers_all_pairs(self):
        P = [B(0.2), B(0.6)]
        Q = [B(0.4)]
        direct = min(
            renyi(P[i], Q[0], ALPHA / (1 + ALPHA)) for i in range(2)
        )
        assert spurious_match_exponent(P, Q, None, 0.0, ALPHA) == pytest.approx(direct, abs=1e-6)


class TestMinUnmatchedGjs:
    def test_matched_pair_excluded(self):
        P = [B(0.2), B(0.5), B(0.8)]
        Q = [B(0.2), B(0.6)]
        h = MatchHypothesis(((0, 0),))
        want = min(gjs(P[i], Q[1], ALPHA) for i in (1, 2))
        assert min_unmatched_gjs(P, Q, h, ALPHA) == pytest.approx(want, rel=1e-13)

    def test_equal_pair_gives_zero(self):
        P = [B(0.2), B(0.5)]
        Q = [B(0.5)]
        assert min_unmatched_gjs(P, Q, None, ALPHA) == pytest.approx(0.0, abs=1e-14)

    def test_k_equals_m2_infinite(self):
        P = [B(0.2), B(0.5)]
        Q = [B(0.2)]
        h = MatchHypothesis(((0, 0),))
        assert min_unmatched_gjs(P, Q, h, ALPHA) == math.inf


class TestTwoPhaseExponents:
    def test_zero_thresholds_zero_mismatch(self):
        P, Q, h = random_binary_instance(np.random.default_rng(3), m1=3, m2=2, k=1)
        out = two_phase_exponents(P, Q, h, 0.0, 0.0, ALPHA)
        assert out["mismatch_exp"] == 0.0

    def test_k_equals_m2_reduces_to_thresholds(self):
        P = [B(0.1), B(0.5), B(0.9)]
        Q = [B(0.1), B(0.5)]
        h = MatchHypothesis(((0, 0), (1, 1)))
        out = two_phase_exponents(P, Q, h, 0.03, 0.01, ALPHA)
        assert out["mismatch_exp"] == pytest.approx(min(0.03, 0.01))

    def test_composition_matches_constituents(self):
        P, Q, h = random_binary_instance(np.random.default_rng(19), m1=3, m2=2, k=1)
        lam1, lam2 = 0.01, 1e-3
        out = two_phase_exponents(P, Q, h, lam1, lam2, ALPHA)
        space = enumerate_space(3, 2, 1)
        f = spurious_match_exponent(P, Q, h, lam1, ALPHA)
        big_f = false_reject_exponent(P, Q, h, space, lam2, ALPHA).value
        assert out["mismatch_exp"] == pytest.approx(min(lam1, lam2, f), abs=1e-12)
        assert out["false_reject_exp"] == pytest.approx(min(lam1, f, big_f), abs=1e-12)
        assert out["false_alarm_exp"] == pytest.approx(
            spurious_match_exponent(P, Q, None, lam1, ALPHA), abs=1e-12
        )


class TestTernaryAlphabet:
    """The general-alphabet solver path (full coordinates with simplex
    equality constraints) on a small three-symbol instance."""

    def setup_method(self):
        def d(*v):
            return Distribution(np.array(v, dtype=float))

        self.P = [d(0.6, 0.3, 0.1), d(0.2, 0.3, 0.5), d(0.1, 0.7, 0.2)]
        self.Q = [d(0.6, 0.3, 0.1)]
        self.space = enumerate_space(3, 1, 1)
        self.h = self.space[0]

    def test_zero_condition_and_ceiling(self):
        lam_star = min_rival_score(self.P, self.Q, self.space, 0, ALPHA)
        assert false_reject_exponent(self.P, self.Q, self.h, self.space, lam_star + 1e-3, ALPHA).value == 0.0
        v0 = false_reject_exponent(self.P, self.Q, self.h, self.space, 0.0, ALPHA).value
        ups = max_false_reject_exponent(self.P, self.Q, self.h, self.space, ALPHA)
        assert v0 == pytest.approx(ups, abs=1e-5)

    def test_monotone_and_certified(self):
        lam_star = min_rival_score(self.P, self.Q, self.space, 0, ALPHA)
        vals = []
        for lam in (0.0, lam_star / 3, 2 * lam_star / 3):
            sol = false_reject_exponent(self.P, self.Q, self.h, self.space, lam, ALPHA)
            vals.append(sol.value)
            direct = type_exponent(self.P, self.Q, self.h, sol.argmin_omegas, sol.argmin_psis, ALPHA)
            assert direct == pytest.approx(sol.value, abs=1e-8)
            if lam > 0:
                t, s = sol.active_pair
                for idx in (t, s):
                    g = population_score(sol.argmin_omegas, sol.argmin_psis, self.space[idx], ALPHA)
                    assert g <= lam + 2e-7
        assert vals[0] >= vals[1] - 1e-9 >= vals[2] - 2e-9

    def test_spurious_zero_threshold_renyi(self):
        def d(*v):
            return Distribution(np.array(v, dtype=float))

        Q = [d(0.6, 0.3, 0.1), d(0.25, 0.25, 0.5)]
        h = MatchHypothesis(((0, 0),))
        got = spurious_match_exponent(self.P, Q, h, 0.0, ALPHA)
        want = min(renyi(self.P[i], Q[1], ALPHA / (1 + ALPHA)) for i in (1, 2))
        assert got == pytest.approx(want, abs=1e-6)


class TestFiniteNBounds:
    def test_xi_arithmetic(self):
        from seqmatch.exponents import xi_factor
        from seqmatch.hypotheses import t_count

        total = t_count(4, 2, 1) + t_count(4, 2, 2)
        want = total * 2 * 201.0 ** 4 * 101.0 ** 4
        assert xi_factor(2, 200, 100, 2, 4) == pytest.approx(want, rel=1e-12)

    def test_bounds_compose_and_shrink(self):
        from seqmatch.exponents import two_phase_finite_n_bounds

        P = [B(0.10), B(0.45), B(0.90)]
        Q = [B(0.10), B(0.70)]
        h = MatchHypothesis(((0, 0),))
        lam1, lam2 = 0.02, 0.01
        small = two_phase_finite_n_bounds(P, Q, h, lam1, lam2, ALPHA, 2000)
        big = two_phase_finite_n_bounds(P, Q, h, lam1, lam2, ALPHA, 20000)
        assert big["mismatch_bound"] < small["mismatch_bound"]
        # the exp(-n lam) terms are always part of the mismatch bound
        assert small["mismatch_bound"] >= math.exp(-2000 * lam2)


class TestSimpleTestFloor:
    def test_m2_one_equals_joint_exponent(self):
        P = [B(0.15), B(0.5), B(0.8)]
        Q = [B(0.15)]
        space = enumerate_space(3, 1, 1)
        lam = 0.004
        floor = simple_test_floor(P, Q, space, 0, lam, ALPHA)
        joint = false_reject_exponent(P, Q, space[0], space, lam, ALPHA).value
        assert floor == pytest.approx(joint, abs=1e-8)

    def test_floor_below_joint_k2(self):
        P = [B(0.1), B(0.3), B(0.6), B(0.85)]
        Q = [B(0.1), B(0.3)]
        space = enumerate_space(4, 2, 2)
        h = MatchHypothesis(((0, 0), (1, 1)))
        l = space.index_of(h)
        for lam in (0.0, 0.002, 0.01):
            floor = simple_test_floor(P, Q, space, l, lam, ALPHA)
            joint = false_reject_exponent(P, Q, h, space, lam, ALPHA).value
            assert floor <= joint + 1e-7

    def test_requires_k_equal_m2(self):
        space = enumerate_space(3, 2, 1)
        with pytest.raises(InputError):
            simple_test_floor([B(0.1), B(0.5), B(0.9)], [B(0.1), B(0.5)], space, 0, 0.01, ALPHA)


# -- rival-pair skipping and the fused solver kernels ------------------------

def _instance(rng, size, m1, m2, k, repeat=False):
    """Random (P, Q, truth) over `size` symbols with matched pairs equal.
    With `repeat`, the last P row copies another unmatched row, so two
    rivals score alike and their relaxation bounds tie."""
    p_rows = [rng.dirichlet(np.full(size, 2.0)) for _ in range(m1)]
    truth = MatchHypothesis(tuple(zip(range(k), rng.permutation(m2)[:k].tolist())))
    if repeat:
        p_rows[-1] = p_rows[k].copy()
    q_rows = [rng.dirichlet(np.full(size, 2.0)) for _ in range(m2)]
    for i, j in truth.pairs:
        q_rows[j] = p_rows[i]
    return [Distribution(r) for r in p_rows], [Distribution(r) for r in q_rows], truth


# (alphabet size, M1, M2, K, repeated P row): T runs from 2 to 12
PRUNING_SHAPES = (
    [(2, 2, 1, 1, False)] * 3 + [(2, 3, 1, 1, False)] * 3 + [(2, 3, 2, 1, False)] * 3
    + [(2, 3, 2, 2, False)] * 3 + [(2, 4, 2, 2, False)] * 2
    + [(2, 3, 1, 1, True)] * 2 + [(2, 4, 2, 1, True)] + [(2, 4, 2, 2, True)]
    + [(3, 2, 1, 1, False)] * 2 + [(3, 3, 1, 1, False)] * 3 + [(3, 3, 2, 1, False)] * 2
    + [(3, 3, 2, 2, False)] * 2 + [(3, 4, 2, 2, False)] + [(3, 3, 1, 1, True)] * 2
)


def _pruning_cases():
    rng = np.random.default_rng(20261018)
    for shape in PRUNING_SHAPES:
        size, m1, m2, k, repeat = shape
        P, Q, h = _instance(rng, size, m1, m2, k, repeat)
        space = enumerate_space(m1, m2, k)
        lam_star = min_rival_score(P, Q, space, space.index_of(h), ALPHA)
        for frac in (1e-3, 0.98):
            yield P, Q, h, space, frac * lam_star


def _pair_values(P, Q, h, space, lam):
    """The reference: every rival pair solved, none skipped, no warm start."""
    refs = reference_psis(P, Q, h)
    return [
        _solve_pair(P, refs, space[t], space[s], ALPHA, lam)
        for t, s in combinations(range(space.count), 2)
    ]


class TestRivalPairSkipping:
    def test_matches_every_pair_oracle(self):
        cases = list(_pruning_cases())
        assert len(cases) >= 60
        for P, Q, h, space, lam in cases:
            sol = false_reject_exponent(P, Q, h, space, lam, ALPHA)
            pairs = _pair_values(P, Q, h, space, lam)
            values = [r[0] for r in pairs]
            oracle = min(values)
            assert sol.pairs_solved + sol.pairs_skipped == len(values)
            if len(values) == 1:
                # a single pair runs no relaxation
                assert sol.iterations == pairs[0][4]
            if sol.value < oracle * (1 - 1e-9):
                direct = type_exponent(P, Q, h, sol.argmin_omegas, sol.argmin_psis, ALPHA)
                assert direct == pytest.approx(sol.value, rel=1e-9, abs=1e-12)
                for t in sol.active_pair:
                    score = population_score(sol.argmin_omegas, sol.argmin_psis, space[t], ALPHA)
                    assert score <= lam + FEAS_TOL
            else:
                assert sol.value == pytest.approx(oracle, rel=1e-9, abs=1e-15)
            # a pair whose value is inside the skip margin of the minimum has
            # a bound inside it too, so it is solved, never skipped
            near = sum(v <= sol.value * (1 + 1e-7) for v in values)
            assert sol.pairs_solved >= near

    def test_unconverged_relaxation_bounds_nothing(self, monkeypatch):
        real = _ConstrainedKl.solve

        def relaxations_fail(prob, starts, also=()):
            val, zs, nit, ok = real(prob, starts, also)
            if prob.lams.size == 1:
                # a relaxation: report a high value that did not converge
                return 10 * val + 1.0, zs, nit, False
            return val, zs, nit, ok

        monkeypatch.setattr(_ConstrainedKl, "solve", relaxations_fail)
        rng = np.random.default_rng(31)
        for size, m1, m2, k in ((2, 3, 1, 1), (2, 3, 2, 2), (3, 3, 1, 1)):
            P, Q, h = _instance(rng, size, m1, m2, k)
            space = enumerate_space(m1, m2, k)
            lam = 0.5 * min_rival_score(P, Q, space, space.index_of(h), ALPHA)
            sol = false_reject_exponent(P, Q, h, space, lam, ALPHA)
            assert sol.pairs_skipped == 0
            oracle = min(r[0] for r in _pair_values(P, Q, h, space, lam))
            assert sol.value == pytest.approx(oracle, rel=1e-9, abs=1e-15)

    def test_counts(self):
        P = [B(0.1), B(0.2), B(0.3), B(0.4)]
        Q = [B(0.1), B(0.2)]
        space = enumerate_space(4, 2, 2)
        h = MatchHypothesis(((0, 0), (1, 1)))
        lam_star = min_rival_score(P, Q, space, space.index_of(h), ALPHA)
        sol = false_reject_exponent(P, Q, h, space, lam_star / 2, ALPHA)
        assert sol.pairs_solved + sol.pairs_skipped == 66
        assert sol.pairs_skipped > 0
        zero = false_reject_exponent(P, Q, h, space, 0.0, ALPHA)
        assert zero.pairs_solved + zero.pairs_skipped == 66
        above = false_reject_exponent(P, Q, h, space, lam_star + 1e-3, ALPHA)
        assert (above.pairs_solved, above.pairs_skipped) == (0, 0)


def _reference_kernels(prob, x):
    """Objective, gradient, constraint sums and Jacobian of a pair problem
    from the per-call kernels, one distribution and one pair at a time."""
    n, s, a = prob.nvar, prob.size, prob.alpha
    if prob.binary:
        v = np.clip(x, _PFLOOR, 1 - _PFLOOR)
        zs = [np.array([1 - vk, vk]) for vk in v]
    else:
        zs = [z / z.sum() for z in np.clip(x, 0.0, None).reshape(n, s)]

    def by_x(g):
        return np.array([g[1] - g[0]]) if prob.binary else g

    val = sum(w * kl_arr(z, r) for z, r, w in zip(zs, prob.targets, prob.weights))
    grad = np.concatenate([
        by_x(w * (np.log(np.maximum(z, _PFLOOR) / np.maximum(r, _PFLOOR)) + 1.0))
        for z, r, w in zip(zs, prob.targets, prob.weights)
    ])
    width = 1 if prob.binary else s
    cons, jac = [], np.zeros((len(CONSTRAINTS), n * width))
    for c, (pairs, _) in enumerate(CONSTRAINTS):
        cons.append(sum(gjs_arr(zs[i], zs[j], a) for i, j in pairs))
        for i, j in pairs:
            jac[c, i * width:(i + 1) * width] += by_x(a * i1_arr(zs[i], zs[j], a))
            jac[c, j * width:(j + 1) * width] += by_x(i2_arr(zs[i], zs[j], a))
    return val, grad, np.array(cons), jac


# two rival hypotheses over x-rows 0-2 and y-rows 3-4
CONSTRAINTS = [([(0, 3), (1, 4)], 0.01), ([(2, 3), (0, 4)], 0.02)]


@pytest.mark.parametrize("size", [2, 3])
def test_fused_kernels_match_per_call_sums(size):
    rng = np.random.default_rng(size)
    targets = rng.dirichlet(np.ones(size), 5)
    prob = _ConstrainedKl(targets, [ALPHA] * 3 + [1.0] * 2, CONSTRAINTS, ALPHA)
    points = [prob.pack(rng.dirichlet(np.ones(size), 5)) for _ in range(20)]
    for x in points[:10]:
        # coordinates at the bounds SLSQP keeps them in
        y = x.copy()
        y[rng.choice(y.size, 3, replace=False)] = rng.choice([_PFLOOR, 1 - _PFLOOR], 3)
        points.append(y)
    for x in points:
        want = _reference_kernels(prob, x)
        val, grad = prob.objective(x)
        cons, jac = prob.scores(x)
        for got, ref in zip((val, grad, cons, jac), want):
            np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-12)
