import functools
import math
from itertools import combinations, islice

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.optimize import brentq

from conftest import random_binary_instance
from seqmatch import exponents, glrt
from seqmatch.core import Distribution, InputError, MatchHypothesis
from seqmatch.divergences import (
    WeightedKlProblem, gjs, gjs_arr, info_densities, info_density_1, info_density_2, kl, kl_arr,
    min_weighted_kl, renyi,
)
from seqmatch.exponents import (
    FEAS_TOL,
    SKIP_ABS,
    SKIP_REL,
    _PairProblem,
    _dual_table,
    _pairs_by_bound,
    _relaxation_bounds,
    _zero_table,
    false_reject_curve,
    false_reject_exponent,
    max_false_reject_exponent,
    min_rival_score,
    min_unmatched_gjs,
    population_score,
    reference_psis,
    rivals,
    simple_test_floor,
    spurious_match_exponent,
    two_phase_exponents,
    two_phase_finite_n_bounds,
    type_exponent,
)
from seqmatch.hypotheses import HypothesisSpace, batch_scores, enumerate_space
from seqmatch.smalldev import analyze, covariance_matrix, score_covariance, tie_set
import newton_oracle
from slsqp_oracle import slsqp_solve, violations

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
            for t in range(len(space))
            if t != l
        )
        assert min_rival_score(P, Q, space, l, ALPHA) == pytest.approx(direct, rel=1e-14)
        assert direct == pytest.approx(0.017614486606327355, rel=1e-10)


def _planted_instance(rng, size, where):
    """Random (P, Q, space, l) over an alphabet of `size` with the truth l at
    the first, a middle or the last index of its space, and exact ties
    planted. Either an x-row outside the least-scoring rival takes the
    distribution of one of its rows, so swapping the two rows gives the same
    sum (K <= 2, and two terms add to the same bits in either order); or
    every x-row outside l takes the distribution of one of l's rows, so each
    rival that swaps it in scores 0."""
    m1, m2 = int(rng.integers(3, 6)), int(rng.integers(1, 3))
    space = enumerate_space(m1, m2, int(rng.integers(1, m2 + 1)))
    l = {"first": 0, "middle": len(space) // 2, "last": len(space) - 1}[where]
    xs, ys = space.pairs(l).T
    p = rng.dirichlet(np.ones(size), m1)
    q = rng.dirichlet(np.ones(size), m2)
    if rng.random() < 0.3:
        p[[b for b in range(m1) if b not in xs]] = p[rng.choice(xs)]
    else:
        q[ys] = p[xs]
        table = np.array([[gjs_arr(a, b, ALPHA) for b in q] for a in p])
        score = [table[tuple(space.pairs(t).T)].tolist() for t in range(len(space))]
        t_min = min((t for t in range(len(space)) if t != l), key=lambda t: sum(score[t]))
        x_min = space.pairs(t_min)[:, 0]
        spare = [b for b in range(m1) if b not in x_min]
        p[rng.choice(spare)] = p[rng.choice(x_min)]
    q[ys] = p[xs]
    return [Distribution(r) for r in p], [Distribution(r) for r in q], space, l


class TestRivals:
    """`rivals` against a plain loop of population_score over the space."""

    @pytest.mark.parametrize("size", [2, 3])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_matches_population_score_loop(self, size, where):
        rng = np.random.default_rng([size, len(where)])
        for _ in range(6):
            P, Q, space, l = _planted_instance(rng, size, where)
            h = space[l]
            pop = [population_score(P, Q, space[t], ALPHA) for t in range(len(space))]
            rest = [t for t in range(len(space)) if t != l]
            big = min(pop[t] for t in rest)
            assert min_rival_score(P, Q, space, l, ALPHA) == big
            assert rivals(exponents.population_scores(P, Q, space, ALPHA), l)[0] == big
            for tol in (1e-9, 1e-2):
                level = big + tol * (big if big > 0 else 1.0)
                run = [t for t in rest if pop[t] <= level]
                assert tie_set(P, Q, space, l, ALPHA, tol) == run
            # below Lambda_l no rival qualifies; at and above it the zero
            # condition pairs l with the lowest-index rival at or below lam
            if big > 0:
                assert rivals(np.array(pop), l, np.nextafter(big, 0))[1] == []
            for lam in (big, 1.5 * big + 1e-3, max(pop), math.inf):
                below = [t for t in rest if pop[t] <= lam]
                assert rivals(np.array(pop), l, lam)[1] == below
                # a negative l indexes from the end, as a Python index does
                assert rivals(np.array(pop), l - len(space), lam) == (big, below)
                sol = false_reject_exponent(P, Q, h, space, lam, ALPHA)
                assert (sol.value, sol.note) == (0.0, "zero_condition")
                assert sol.active_pair == tuple(sorted((l, below[0])))

    def test_planted_ties_reach_lambda(self):
        # the planted instances do tie at Lambda_l, both above zero and at it
        rng, seen = np.random.default_rng(5), set()
        for _ in range(40):
            P, Q, space, l = _planted_instance(rng, 2, "middle")
            big = min_rival_score(P, Q, space, l, ALPHA)
            if len(tie_set(P, Q, space, l, ALPHA)) > 1:
                seen.add(big > 0)
        assert seen == {False, True}

    def test_single_hypothesis(self):
        P, Q = [B(0.3)], [B(0.3)]
        space = enumerate_space(1, 1, 1)
        assert min_rival_score(P, Q, space, 0, ALPHA) == math.inf
        with pytest.raises(InputError, match="at least two"):
            tie_set(P, Q, space, 0, ALPHA)


README_P = [B(0.1), B(0.2), B(0.3), B(0.4)]
README_Q = [B(0.1), B(0.2)]


def test_zero_condition_at_infinite_lambda_pairs_l_with_a_rival():
    h = MatchHypothesis(((0, 0),))
    space = enumerate_space(4, 2, 1)
    sol = false_reject_exponent(README_P, README_Q, h, space, math.inf, 2.0)
    t, s = sol.active_pair
    assert space.index_of(h) in (t, s) and t != s
    assert sol.active_pair == (0, 1)
    assert sol.value == 0.0
    assert sol.note == "zero_condition"


_H0 = MatchHypothesis(((0, 0),))
_SPACE1 = enumerate_space(4, 2, 1)
ALPHA_ENTRY_POINTS = {
    "population_score": lambda a: population_score(README_P, README_Q, _H0, a),
    "population_scores": lambda a: exponents.population_scores(README_P, README_Q, _SPACE1, a),
    "min_rival_score": lambda a: min_rival_score(README_P, README_Q, _SPACE1, 0, a),
    "tie_set": lambda a: tie_set(README_P, README_Q, _SPACE1, 0, a),
    "analyze": lambda a: analyze(README_P, README_Q, _SPACE1, 0, a, 1000, 0.1),
    "type_exponent": lambda a: type_exponent(README_P, README_Q, _H0, README_P, README_Q, a),
    "false_reject_exponent": lambda a: false_reject_exponent(README_P, README_Q, _H0, _SPACE1, 0.01, a),
    "false_reject_curve": lambda a: false_reject_curve(README_P, README_Q, _H0, _SPACE1, [0.01], a),
    "max_false_reject_exponent": lambda a: max_false_reject_exponent(README_P, README_Q, _H0, _SPACE1, a),
    "spurious_match_exponent": lambda a: spurious_match_exponent(README_P, README_Q, _H0, 0.1, a),
    "min_unmatched_gjs": lambda a: min_unmatched_gjs(README_P, README_Q, _H0, a),
    "two_phase_exponents": lambda a: two_phase_exponents(README_P, README_Q, _H0, 0.1, 0.1, a),
    "two_phase_finite_n_bounds": lambda a: two_phase_finite_n_bounds(README_P, README_Q, _H0, 0.1, 0.1, a, 100),
    "simple_test_floor": lambda a: simple_test_floor(
        README_P, README_Q, enumerate_space(4, 2, 2), 0, 0.01, a),
    "score_covariance": lambda a: score_covariance(README_P, README_Q, _H0, _H0, a),
    "covariance_matrix": lambda a: covariance_matrix(README_P, README_Q, _SPACE1, [0, 1], a),
    "effective_threshold": lambda a: glrt.effective_threshold(0.1, 1, 2, 100, a),
    "gjs": lambda a: gjs(README_P[0], README_Q[1], a),
    "info_density_1": lambda a: info_density_1(1, README_P[0], README_Q[1], a),
    "info_density_2": lambda a: info_density_2(1, README_P[0], README_Q[1], a),
}


@pytest.mark.parametrize("alpha", [math.nan, 0.0, -1.0, math.inf])
@pytest.mark.parametrize("name", sorted(ALPHA_ENTRY_POINTS))
def test_alpha_checked_at_every_entry_point(name, alpha):
    with pytest.raises(InputError, match="alpha must be finite and > 0"):
        ALPHA_ENTRY_POINTS[name](alpha)


# the consistent instance is P, Q, _H and the (4, 2, 2) space
_P = [B(0.1), B(0.2), B(0.9), B(0.21)]
_Q = [B(0.1), B(0.2)]
_H = MatchHypothesis(((0, 0), (1, 1)))
_OUTSIDE = MatchHypothesis(((9, 0),))
_SHORT_SPACE = enumerate_space(3, 2, 2)
SHAPE_ENTRY_POINTS = {
    "population_score": lambda: population_score(_P, _Q, _OUTSIDE, ALPHA),
    "population_score_alphabet": lambda: population_score(
        _P, [B(0.1), Distribution([0.2, 0.3, 0.5])], _H, ALPHA),
    "population_scores": lambda: exponents.population_scores(_P, _Q, _SHORT_SPACE, ALPHA),
    "min_rival_score": lambda: min_rival_score(_P, _Q, _SHORT_SPACE, 0, ALPHA),
    "check_consistent": lambda: exponents.check_consistent(_P, _Q, _OUTSIDE),
    "type_exponent_omegas": lambda: type_exponent(_P, _Q, _H, [B(0.5)], _Q, ALPHA),
    "type_exponent_psis": lambda: type_exponent(_P, _Q, _H, _P, _Q[:1], ALPHA),
    "false_reject_exponent": lambda: false_reject_exponent(_P, _Q, _H, _SHORT_SPACE, 1e-4, ALPHA),
    "false_reject_exponent_k": lambda: false_reject_exponent(
        _P, _Q, _H, enumerate_space(4, 2, 1), 1e-4, ALPHA),
    "false_reject_exponent_outside": lambda: false_reject_exponent(
        _P, _Q, _OUTSIDE, enumerate_space(4, 2, 1), 1e-4, ALPHA),
    "false_reject_curve": lambda: false_reject_curve(_P, _Q, _H, _SHORT_SPACE, [1e-4], ALPHA),
    "max_false_reject_exponent": lambda: max_false_reject_exponent(_P, _Q, _H, _SHORT_SPACE, ALPHA),
    "spurious_match_exponent": lambda: spurious_match_exponent(_P, _Q, _OUTSIDE, 0.1, ALPHA),
    "min_unmatched_gjs": lambda: min_unmatched_gjs(_P, _Q, _OUTSIDE, ALPHA),
    "two_phase_exponents": lambda: two_phase_exponents(_P, _Q, _OUTSIDE, 0.1, 0.1, ALPHA),
    "two_phase_finite_n_bounds": lambda: two_phase_finite_n_bounds(
        _P, _Q, _OUTSIDE, 0.1, 0.1, ALPHA, 100),
    "simple_test_floor": lambda: simple_test_floor(_P, _Q, enumerate_space(4, 1, 1), 0, 0.01, ALPHA),
    "tie_set": lambda: tie_set(_P, _Q, _SHORT_SPACE, 0, ALPHA),
    "analyze": lambda: analyze(_P, _Q, _SHORT_SPACE, 0, ALPHA, 1000, 0.1),
    "covariance_matrix": lambda: covariance_matrix(_P, _Q, _SHORT_SPACE, [0, 1], ALPHA),
    "score_covariance": lambda: score_covariance(_P, _Q, _H, _OUTSIDE, ALPHA),
}


@pytest.mark.parametrize("name", sorted(SHAPE_ENTRY_POINTS))
def test_mismatched_shape_rejected_at_every_entry_point(name):
    # a (3, 2, 2) space for 4 x 2 dists, a pair outside them, a K other
    # than the space's, a ternary Q or too few omegas or psis gave wrong
    # numbers or IndexErrors
    with pytest.raises(InputError, match="space is over|outside|has K|disagree|omegas"):
        SHAPE_ENTRY_POINTS[name]()


def test_consistent_shapes_accepted():
    space = enumerate_space(4, 2, 2)
    l = space.index_of(_H)
    assert false_reject_exponent(_P, _Q, _H, space, 1e-4, ALPHA).value == pytest.approx(1.85e-5, rel=1e-2)
    assert min_rival_score(_P, _Q, space, l, ALPHA) == pytest.approx(2.04e-4, rel=1e-2)


def _sum_form_gjs(p, q, a):
    """GJS as sums of x log(x/m), m = (a p + q)/(1 + a), over the last axis,
    and the summed size of those terms, which nears the value only away
    from p = q."""
    m = (a * p + q) / (1.0 + a)
    with np.errstate(divide="ignore", invalid="ignore"):
        tp = np.where(p > 0.0, p * np.log(p / m), 0.0)
        tq = np.where(q > 0.0, q * np.log(q / m), 0.0)
    return np.maximum(a * tp.sum(axis=-1) + tq.sum(axis=-1), 0.0), (a * np.abs(tp) + np.abs(tq)).sum(axis=-1)


class TestPopulationTable:
    def test_matches_per_pair_gjs_oracle(self):
        # the one-pass (M1, M2) table against the sum form, with zero
        # symbols: within a few ulps of the weights' total 1 + alpha
        # everywhere (a log of a ratio near 1 is off by about eps), and of
        # the value itself away from p = q, where the sum form keeps its
        # digits
        rng = np.random.default_rng(5)
        eps = np.finfo(np.float64).eps
        for _ in range(300):
            size = int(rng.integers(2, 21))

            def rows(m):
                r = rng.dirichlet(np.full(size, rng.choice([0.3, 1.0, 5.0])), m)
                r[rng.random(r.shape) < 0.2] = 0.0
                r[:, 0] += r.sum(axis=1) == 0.0
                return [Distribution(v / v.sum()) for v in r]

            P, Q = rows(int(rng.integers(1, 6))), rows(int(rng.integers(1, 6)))
            got = exponents._population_table(P, Q, ALPHA)
            want, scale = _sum_form_gjs(
                np.array([p.probs for p in P])[:, None], np.array([q.probs for q in Q])[None], ALPHA
            )
            gap = np.abs(got - want)
            assert np.all(gap <= 4 * eps * (1.0 + ALPHA))
            far = want >= 0.5 * scale
            assert np.all(gap[far] <= 8 * np.spacing(want[far]))
            assert np.array_equal(got, [[gjs_arr(p.probs, q.probs, ALPHA) for q in Q] for p in P])

    @pytest.mark.parametrize("gap", [1e-6, 1e-7])
    def test_near_equal_rows_keep_their_digits(self, gap):
        # Bern(.3) against Bern(.3 + gap): the value is of order gap^2, and
        # the sum form loses a relative 4.9e-5 of it at gap 1e-6
        from decimal import Decimal, localcontext

        p, q = B(0.3).probs, B(0.3 + gap).probs
        with localcontext() as ctx:
            ctx.prec = 60
            a, ref = Decimal(ALPHA), Decimal(0)
            for x, y in zip(map(Decimal, p.tolist()), map(Decimal, q.tolist())):
                m = (a * x + y) / (1 + a)
                ref += a * x * (x / m).ln() + y * (y / m).ln()
        assert gjs_arr(p, q, ALPHA) == pytest.approx(float(ref), rel=1e-9, abs=0.0)


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

    @pytest.mark.parametrize("lam,alpha,what", [
        (math.nan, ALPHA, "lambda"), (0.01, math.nan, "alpha"), (0.01, math.inf, "alpha"),
        (0.01, 0.0, "alpha"), (0.01, -1.0, "alpha"),
    ])
    def test_nan_threshold_and_bad_alpha_rejected(self, lam, alpha, what):
        with pytest.raises(InputError, match=f"{what} must be"):
            false_reject_exponent(self.P, self.Q, self.h, self.space, lam, alpha)

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

    def grid_oracle(self, lam):
        """F(lam) over a dense grid of the shared Psi, each Omega projected
        exactly; the grid's value is at least F and within 5e-4 of it."""
        params = [0.15, 0.5, 0.8]
        best = math.inf
        for t, s in ((0, 1), (0, 2), (1, 2)):
            for w in np.linspace(1e-4, 1 - 1e-4, 1500):
                et = projected_inner(params[t], w, lam)
                es = projected_inner(params[s], w, lam)
                val = klb(w, self.Q[0]) + ALPHA * klb(et, self.P[t]) + ALPHA * klb(es, self.P[s])
                best = min(best, val)
        return best

    def test_grid_oracle(self):
        lam = 0.005
        sol = false_reject_exponent(self.P, self.Q, self.h, self.space, lam, ALPHA)
        best = self.grid_oracle(lam)
        assert sol.value <= best + 1e-9
        assert sol.value == pytest.approx(best, abs=5e-4)

    def test_lower_bound_below_grid_oracle(self):
        # lower <= F <= the grid's value, and value is F to the solver's
        # tolerance; a wrong sign on mu*lam in the dual bound breaks the
        # first inequality
        lam = 0.005
        sol = false_reject_exponent(self.P, self.Q, self.h, self.space, lam, ALPHA)
        best = self.grid_oracle(lam)
        assert 0.0 < sol.lower <= best
        assert sol.lower <= sol.value <= best + 1e-9

    def test_lower_is_value_at_the_ends(self):
        for lam in (0.0, self.lam_star + 1e-3):
            sol = false_reject_exponent(self.P, self.Q, self.h, self.space, lam, ALPHA)
            assert sol.lower == sol.value

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

    def test_pair_without_tied_point_is_infinite(self):
        # P_1 shares no symbol with Q_0 = P_0: the rival's score is the
        # largest GJS at every point, so no point brings both scores below
        # Lambda and the tied sequences have no common support
        P = [Distribution([0.6, 0.4, 0.0]), Distribution([0.0, 0.0, 1.0])]
        Q = [Distribution([0.6, 0.4, 0.0])]
        space = enumerate_space(2, 1, 1)
        h = MatchHypothesis(((0, 0),))
        lam_star = min_rival_score(P, Q, space, 0, ALPHA)
        assert lam_star == pytest.approx(ALPHA * math.log(1.5) + math.log(3.0), rel=1e-12)
        for lam in (0.5 * lam_star, 0.99 * lam_star):
            sol = false_reject_exponent(P, Q, h, space, lam, ALPHA)
            assert sol.value == math.inf
            assert sol.lower <= sol.value

    @pytest.mark.parametrize("lam", [0.0, 0.45])
    def test_infinite_value_keeps_targets_as_argmin(self, lam):
        # the tied sequences of the only rival pair share no support, so at
        # lambda = 0 as above it the argmin stays at the targets
        P = [Distribution([0.6, 0.4, 0.0]), Distribution([0.0, 0.0, 1.0])]
        Q = [Distribution([0.6, 0.4, 0.0])]
        space = enumerate_space(2, 1, 1)
        sol = false_reject_exponent(P, Q, MatchHypothesis(((0, 0),)), space, lam, ALPHA)
        assert sol.value == math.inf
        assert all(isinstance(z, Distribution) for z in sol.argmin_omegas + sol.argmin_psis)
        assert sol.argmin_omegas == tuple(P)
        assert sol.argmin_psis == tuple(Q)

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
            if len(space) < 2:
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
    def test_nan_threshold_rejected(self):
        P, Q = [B(0.1), B(0.5), B(0.9)], [B(0.1), B(0.7)]
        with pytest.raises(InputError, match="lambda1 must be >= 0"):
            spurious_match_exponent(P, Q, MatchHypothesis(((0, 0),)), math.nan, ALPHA)

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


    @pytest.mark.parametrize("order", [(0, 1, 2), (1, 2, 0)])
    def test_each_spurious_pair_solved_once(self, monkeypatch, order):
        # criterion 09's instance, and the same with the matched pair last in
        # pair order, so that the null hypothesis's scan meets unmatched pairs
        # before it stops at the matched one: f_0 is min(f_lk, the pairs that
        # touch a matched sequence), bit for bit, and no pair problem is built twice
        p = [(B(0.10), B(0.45), B(0.90))[i] for i in order]
        q = [B(0.10), B(0.70)] if order[0] == 0 else [B(0.70), B(0.10)]
        h = MatchHypothesis(((order.index(0), q.index(B(0.10))),))
        lam1 = 0.3 * min_unmatched_gjs(p, q, h, ALPHA)
        want_f0 = spurious_match_exponent(p, q, None, lam1, ALPHA)
        want_f0_n = spurious_match_exponent(p, q, None, exponents.effective_threshold(lam1, 1, 2, 2000, ALPHA), ALPHA)
        built, real = [], _PairProblem.__init__

        def counted(prob, dists, weights, edge_lists, alpha):
            if len(edge_lists) == 1:
                built.append(tuple(edge_lists[0]))
            real(prob, dists, weights, edge_lists, alpha)

        monkeypatch.setattr(_PairProblem, "__init__", counted)
        out = two_phase_exponents(p, q, h, lam1, 1e-3, ALPHA)
        assert len(built) == len(set(built)) >= 2
        built.clear()
        bounds = two_phase_finite_n_bounds(p, q, h, lam1, 1e-3, ALPHA, 2000)
        assert len(built) == len(set(built)) >= 2
        assert repr(out["false_alarm_exp"]) == repr(want_f0)
        log_xi = math.log(bounds["xi"])
        assert bounds["false_alarm_bound"] == pytest.approx(math.exp(log_xi - 2000 * want_f0_n), rel=1e-12)


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


class TestZeroProbabilitySymbols:
    """A target row with a zero symbol: each variable row stays on its
    target's support, with 0 log 0 = 0."""

    def setup_method(self):
        def d(*v):
            return Distribution(np.array(v, dtype=float))

        self.P = [d(0.6, 0.4, 0.0), d(0.3, 0.3, 0.4)]
        self.Q = [d(0.6, 0.4, 0.0)]
        self.space = enumerate_space(2, 1, 1)
        self.h = self.space[0]

    def test_false_reject_finite_and_monotone(self):
        lam_star = min_rival_score(self.P, self.Q, self.space, 0, ALPHA)
        lams = np.linspace(0.0, lam_star, 9)[:-1]
        sols = false_reject_curve(self.P, self.Q, self.h, self.space, lams, ALPHA)
        vals = [s.value for s in sols]
        assert vals[0] == pytest.approx(1.046, abs=5e-4)
        assert all(math.isfinite(v) for v in vals)
        assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))
        for lam, sol in zip(lams[1:], sols[1:]):
            assert sol.converged
            assert sol.lower <= sol.value
            direct = type_exponent(self.P, self.Q, self.h, sol.argmin_omegas, sol.argmin_psis, ALPHA)
            assert direct == pytest.approx(sol.value, abs=1e-9)
            for t in sol.active_pair:
                score = population_score(sol.argmin_omegas, sol.argmin_psis, self.space[t], ALPHA)
                assert score <= lam + 1e-7

    def test_spurious_match_finite_and_monotone(self):
        def d(*v):
            return Distribution(np.array(v, dtype=float))

        Q = [d(0.6, 0.4, 0.0), d(0.5, 0.0, 0.5)]
        h = MatchHypothesis(((0, 0),))
        gmin = min_unmatched_gjs(self.P, Q, h, ALPHA)
        vals = [spurious_match_exponent(self.P, Q, h, lam, ALPHA) for lam in np.linspace(0.0, gmin, 6)[:-1]]
        assert all(math.isfinite(v) for v in vals)
        assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))


class TestFiniteNBounds:
    def test_xi_arithmetic(self):
        from seqmatch.exponents import xi_factor
        from seqmatch.hypotheses import t_count

        total = t_count(4, 2, 1) + t_count(4, 2, 2)
        want = total * 2 * 201.0 ** 4 * 101.0 ** 4
        assert xi_factor(2, 200, 100, 2, 4) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("big_n,n", [
        (-5, 10), (0, 10), (200, 0), (math.nan, 10), (200, math.nan), (200.5, 10), (200, 2.5),
        (True, 10), (200, True),
    ])
    def test_bad_lengths_rejected(self, big_n, n):
        from seqmatch.exponents import xi_factor

        with pytest.raises(InputError, match="n and N must be >= 1"):
            xi_factor(1, big_n, n, 2, 2)

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

    @pytest.mark.parametrize("alpha", [1e308, 1e20])
    def test_x_length_past_a_long_rejected(self, alpha):
        # N = round(n*alpha) is inf at 1e308 and past 2**63 at 1e20
        from seqmatch.exponents import two_phase_finite_n_bounds

        P, Q, h = [B(0.10), B(0.45), B(0.90)], [B(0.10), B(0.70)], MatchHypothesis(((0, 0),))
        with pytest.raises(InputError, match="at n = 2000 is not below 2\\*\\*63"):
            two_phase_finite_n_bounds(P, Q, h, 0.02, 0.01, alpha, 2000)

    def test_prefactor_past_float_range(self):
        from seqmatch.exponents import two_phase_finite_n_bounds, xi_factor

        # log xi is about 1933 at 10x10, |X| = 10, n = 10^4
        assert xi_factor(10, 20000, 10000, 10, 10) == math.inf

        def peaked(k):
            v = np.full(10, 0.01)
            v[k] = 0.91
            return Distribution(v)

        # the unmatched P_i peak on symbols 3-9 and the unmatched Q_j on 0-2,
        # so xi exp(-n f) underflows for the truth; for the null a matched
        # pair scores 0, and its bound is xi, vacuous and reported as-is
        P = [peaked(i) for i in range(10)]
        Q = P[:3] + [peaked(j % 3) for j in range(3, 10)]
        h = MatchHypothesis(((0, 0), (1, 1), (2, 2)))
        lam1 = lam2 = 0.01
        out = two_phase_finite_n_bounds(P, Q, h, lam1, lam2, ALPHA, 10_000)
        assert out["xi"] == math.inf and out["false_alarm_bound"] == math.inf
        assert out["mismatch_bound"] == math.exp(-1e4 * lam1) + math.exp(-1e4 * lam2)
        # K = M2 leaves no unmatched pair: f = inf, and inf * 0 gives no nan
        full = MatchHypothesis(tuple((i, i) for i in range(10)))
        out = two_phase_finite_n_bounds(P, P, full, lam1, lam2, ALPHA, 10_000)
        assert out["mismatch_bound"] == math.exp(-1e4 * lam1) + math.exp(-1e4 * lam2)


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

def _instance(rng, size, m1, m2, k, repeat=False, zeros=False):
    """Random (P, Q, truth) over `size` symbols with matched pairs equal.
    With `repeat`, the last P row copies another unmatched row, so two
    rivals score alike and their relaxation bounds tie. With `zeros`, every
    row lacks one random symbol."""
    p_rows = [rng.dirichlet(np.full(size, 2.0)) for _ in range(m1)]
    truth = MatchHypothesis(tuple(zip(range(k), rng.permutation(m2)[:k].tolist())))
    if repeat:
        p_rows[-1] = p_rows[k].copy()
    q_rows = [rng.dirichlet(np.full(size, 2.0)) for _ in range(m2)]
    if zeros:
        for row in p_rows + q_rows:
            row[rng.integers(size)] = 0.0
            row /= row.sum()
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


def _sequences(P, Q, h):
    """The targets and weights of the exponent problems, indexed by sequence
    id: x_i is i and y_j is M1 + j."""
    return list(P) + reference_psis(P, Q, h), [ALPHA] * len(P) + [1.0] * len(Q)


def _edges(P, pairs):
    return [(i, len(P) + j) for i, j in pairs]


def _pair_edges(P, space, t, s):
    return [_edges(P, space[t].pairs), _edges(P, space[s].pairs)]


def _solve(dists, weights, edge_lists, alpha, lam):
    """One cold solve of a pair problem: (value, {id: argmin}, Newton steps,
    converged, warm state)."""
    prob = _PairProblem(dists, weights, edge_lists, alpha)
    return (*prob.solve(lam), prob.warm)


def _pair_values(P, Q, h, space, lam):
    """The reference: every rival pair solved by the SLSQP oracle, none
    skipped, no warm start."""
    dists, weights = _sequences(P, Q, h)
    return [
        slsqp_solve(dists, weights, _pair_edges(P, space, t, s), ALPHA, lam)
        for t, s in combinations(range(len(space)), 2)
    ]


@functools.lru_cache(maxsize=1)
def _oracle_cases():
    """Every `_pruning_cases` instance with its `_pair_values`."""
    return [(*case, _pair_values(*case)) for case in _pruning_cases()]


def _allowance(edges, lam, ref, mu):
    """How far an exact solve may come out above the oracle's certified
    value ref[0]. The oracle's point ref[1] may break a constraint by up to
    FEAS_TOL; it is then feasible at a larger threshold, where the minimum
    is lower by at most the multipliers mu times the breach, since the
    minimum is convex in the thresholds. Add 1e-9 relative and 1e-15
    absolute for rounding."""
    breach = violations(edges, ALPHA, lam, ref[1])
    return float(mu @ breach) + 1e-9 * ref[0] + 1e-15


def _assert_pair_certified(dists, weights, edges, lam, val, zs):
    """A pair solve's value is the cost of its argmin {id: Z}, and both of
    its constraints hold there, to FEAS_TOL."""
    cost = sum(w * kl_arr(zs[u].probs, dists[u].probs) for u, w in enumerate(weights) if u in zs)
    assert cost == pytest.approx(val, rel=1e-9, abs=1e-12)
    assert violations(edges, ALPHA, lam, zs).max() <= FEAS_TOL


def _assert_certified(P, Q, h, space, lam, sol):
    """The value is the cost of the argmin, and both hypotheses of the
    active pair score at most lam there, to FEAS_TOL."""
    direct = type_exponent(P, Q, h, sol.argmin_omegas, sol.argmin_psis, ALPHA)
    assert direct == pytest.approx(sol.value, rel=1e-9, abs=1e-12)
    for t in sol.active_pair:
        score = population_score(sol.argmin_omegas, sol.argmin_psis, space[t], ALPHA)
        assert score <= lam + FEAS_TOL


class TestRivalPairSkipping:
    def test_matches_every_pair_oracle(self):
        cases = _oracle_cases()
        assert len(cases) >= 60
        for P, Q, h, space, lam, pairs in cases:
            sol = false_reject_exponent(P, Q, h, space, lam, ALPHA)
            values = [r[0] for r in pairs]
            oracle = min(values)
            assert sol.pairs_solved + sol.pairs_skipped == len(values)
            dists, weights = _sequences(P, Q, h)
            if len(values) == 1:
                # a single pair runs no relaxation
                assert sol.iterations == _solve(dists, weights, _pair_edges(P, space, 0, 1), ALPHA, lam)[2]
            if sol.value < oracle * (1 - 1e-9):
                _assert_certified(P, Q, h, space, lam, sol)
            else:
                # above the oracle only by what its constraint breach buys
                t, s = list(combinations(range(len(space)), 2))[values.index(oracle)]
                edges = _pair_edges(P, space, t, s)
                mu = _solve(dists, weights, edges, ALPHA, lam)[4][2]
                ref = pairs[values.index(oracle)]
                assert sol.value <= oracle + _allowance(edges, lam, ref, mu)
            # a pair whose value is inside the skip margin of the minimum has
            # a bound inside it too, so it is solved, never skipped
            near = sum(v <= sol.value * (1 + 1e-7) for v in values)
            assert sol.pairs_solved >= near
            assert sol.lower <= oracle * (1 + 1e-6) + 1e-12

    def test_newton_matches_slsqp_on_every_pair(self):
        # each pair problem of every case, solved cold: Newton verifies the
        # KKT conditions; below the oracle its point is certified, above it
        # the gap is within what the oracle's constraint breach buys
        solved = 0
        for P, Q, h, space, lam, pairs in _oracle_cases():
            dists, weights = _sequences(P, Q, h)
            for (t, s), ref in zip(combinations(range(len(space)), 2), pairs):
                edges = _pair_edges(P, space, t, s)
                val, zs, _, ok, state = _solve(dists, weights, edges, ALPHA, lam)
                solved += 1
                assert math.isfinite(ref[0]) and ok
                if val < ref[0] * (1 - 1e-9):
                    _assert_pair_certified(dists, weights, edges, lam, val, zs)
                else:
                    assert val <= ref[0] + _allowance(edges, lam, ref, state[2])
        assert solved == 954

    def test_dual_bounds_below_slsqp_relaxations(self):
        # oracle: each hypothesis's relaxation G_h solved by SLSQP under its
        # constraint alone; the grid bound stays below it
        for P, Q, h, space, lam in _pruning_cases():
            l = space.index_of(h)
            dists, weights = _sequences(P, Q, h)
            table = _dual_table(P, dists[len(P):], h, ALPHA)
            grid = _relaxation_bounds(batch_scores(table, space).T, lam)
            assert grid[l] == 0.0
            for t in range(len(space)):
                pairs = [ij for ij in space[t].pairs if ij not in space[l].pairs]
                if not pairs:
                    continue
                val = slsqp_solve(dists, weights, [_edges(P, pairs)], ALPHA, lam)[0]
                assert grid[t] <= val * (1 + 1e-6) + 1e-12

    @staticmethod
    def _check_bounds_nothing(monkeypatch, spoil):
        # spoil(f, gap) stands in for what the dual inner solve reports
        real = exponents._pair_duals

        def broken(p, r, alpha, mu):
            f, gap, err = real(p, r, alpha, mu)
            return (*spoil(f, gap), err)

        monkeypatch.setattr(exponents, "_pair_duals", broken)
        rng = np.random.default_rng(31)
        for size, m1, m2, k in ((2, 3, 1, 1), (2, 3, 2, 2), (3, 3, 1, 1)):
            P, Q, h = _instance(rng, size, m1, m2, k)
            space = enumerate_space(m1, m2, k)
            lam = 0.5 * min_rival_score(P, Q, space, space.index_of(h), ALPHA)
            sol = false_reject_exponent(P, Q, h, space, lam, ALPHA)
            assert sol.pairs_skipped == 0
            assert sol.lower == 0.0
            oracle = min(r[0] for r in _pair_values(P, Q, h, space, lam))
            assert sol.value == pytest.approx(oracle, rel=1e-9, abs=1e-15)

    def test_unconverged_relaxation_bounds_nothing(self, monkeypatch):
        # a relaxation whose inner solve stopped far from its optimum: a
        # high value with a Frank-Wolfe gap that swamps it bounds nothing
        self._check_bounds_nothing(monkeypatch, lambda f, gap: (10 * f + 1.0, gap + 1e300))

    def test_failed_inner_solve_bounds_nothing(self, monkeypatch):
        self._check_bounds_nothing(monkeypatch, lambda f, gap: (np.full_like(f, np.nan), gap))

    def test_no_scipy_minimize(self, monkeypatch):
        # the pair problems are solved by Newton-KKT steps and the
        # relaxations by the dual table: nothing calls scipy's minimize
        import scipy.optimize

        def refuse(*args, **kwargs):
            raise AssertionError("scipy.optimize.minimize was called")

        monkeypatch.setattr(scipy.optimize, "minimize", refuse)
        assert "minimize" not in vars(exponents)
        P = [B(0.1), B(0.2), B(0.3), B(0.4)]
        Q = [B(0.1), B(0.2)]
        space = enumerate_space(4, 2, 2)
        h = MatchHypothesis(((0, 0), (1, 1)))
        lam_star = min_rival_score(P, Q, space, space.index_of(h), ALPHA)
        sols = false_reject_curve(P, Q, h, space, [0.25 * lam_star, 0.5 * lam_star, 0.75 * lam_star], ALPHA)
        assert [s.pairs_solved for s in sols] == [1, 1, 1]
        assert all(s.converged and 0.0 < s.value < math.inf for s in sols)
        P, Q, h = random_binary_instance(np.random.default_rng(19), m1=3, m2=2, k=1)
        lam1 = 0.5 * min_unmatched_gjs(P, Q, h, ALPHA)
        assert 0.0 < spurious_match_exponent(P, Q, h, lam1, ALPHA) < math.inf
        out = two_phase_exponents(P, Q, h, lam1, 1e-3, ALPHA)
        assert all(math.isfinite(v) for v in out.values())

    def test_counts(self):
        P = [B(0.1), B(0.2), B(0.3), B(0.4)]
        Q = [B(0.1), B(0.2)]
        space = enumerate_space(4, 2, 2)
        h = MatchHypothesis(((0, 0), (1, 1)))
        lam_star = min_rival_score(P, Q, space, space.index_of(h), ALPHA)
        sol = false_reject_exponent(P, Q, h, space, lam_star / 2, ALPHA)
        assert sol.pairs_solved + sol.pairs_skipped == 66
        assert sol.pairs_skipped > 0
        # at lambda = 0 the bounds are exact, so the first pair settles it
        zero = false_reject_exponent(P, Q, h, space, 0.0, ALPHA)
        assert (zero.pairs_solved, zero.pairs_skipped) == (1, 65)
        above = false_reject_exponent(P, Q, h, space, lam_star + 1e-3, ALPHA)
        assert (above.pairs_solved, above.pairs_skipped) == (0, 0)


    def test_large_space_solves_a_handful(self, monkeypatch):
        # 7x4, K = 3: T = 840 hypotheses and 352,380 rival pairs, of which
        # F(0), F(Lambda/2) and the ceiling each draw a handful from the
        # lazy order
        rng = np.random.default_rng(1)
        P = [Distribution(r) for r in rng.dirichlet(np.ones(3), 7)]
        Q = [Distribution(r) for r in rng.dirichlet(np.ones(3), 4)]
        Q[:3] = P[:3]
        h = MatchHypothesis(((0, 0), (1, 1), (2, 2)))
        space = enumerate_space(7, 4, 3)
        real, drawn = exponents._pairs_by_bound, []

        def counted(bound):
            drawn.append(0)
            for item in real(bound):
                drawn[-1] += 1
                yield item

        monkeypatch.setattr(exponents, "_pairs_by_bound", counted)
        lam_star = min_rival_score(P, Q, space, space.index_of(h), ALPHA)
        sols = [false_reject_exponent(P, Q, h, space, lam, ALPHA) for lam in (0.0, lam_star / 2)]
        ups = max_false_reject_exponent(P, Q, h, space, ALPHA)
        for sol in sols:
            assert sol.pairs_solved + sol.pairs_skipped == 352_380
            assert sol.pairs_solved <= 4 and sol.converged
        assert len(drawn) == 3 and max(drawn) <= 5
        assert 0.0 < sols[1].value < sols[0].value
        assert ups == pytest.approx(sols[0].value, rel=1e-9, abs=0.0)


def _pairs_by_bound_reference(bound):
    """The generator the windowed one replaced: every hypothesis sorted once,
    stably by bound, and block b pairs order[b] with each one before it."""
    order = np.argsort(bound, kind="stable").tolist()
    for b, s in enumerate(order):
        for t in order[:b]:
            yield min(t, s), max(t, s), bound[s]


@given(st.lists(st.sampled_from([0.0, 0.5, 2.0, math.inf]) | st.floats(0.0, 3.0), max_size=14),
       st.sampled_from([1, 2, 3, 64]))
@settings(max_examples=200, deadline=None)
def test_pairs_by_bound_yields_every_pair_once_in_order(bound, window):
    bound = np.array(bound, dtype=np.float64)
    out = list(_pairs_by_bound(bound, window))
    assert out == list(_pairs_by_bound_reference(bound))
    assert sorted((t, s) for t, s, _ in out) == list(combinations(range(bound.size), 2))
    assert all(b == max(bound[t], bound[s]) for t, s, b in out)
    assert all(a[2] <= b[2] for a, b in zip(out, out[1:]))


@pytest.mark.parametrize("size,tied", [(65, 0.9), (130, 0.6), (300, 0.3), (700, 0.6), (1000, 0.2),
                                       (1000, 0.9)])
def test_pairs_by_bound_matches_full_sort_across_windows(monkeypatch, size, tied):
    # tie classes {0, 0.5, 2, inf} among uniform floats straddle the first
    # window of 64 hypotheses and the doubled ones after it
    rng = np.random.default_rng(size + int(10 * tied))
    bound = np.where(rng.random(size) < tied, rng.choice([0.0, 0.5, 2.0, math.inf], size),
                     rng.uniform(0.0, 3.0, size))
    windows = []
    partition = np.partition
    monkeypatch.setattr(np, "partition", lambda a, kth: windows.append(kth) or partition(a, kth))
    pairs = size * (size - 1) // 2
    for r in (1, 63, 2016, 2017, 10_000, 100_000, pairs if size <= 700 else 200_000):
        got = list(islice(_pairs_by_bound(bound), r))
        assert got == list(islice(_pairs_by_bound_reference(bound), r))
        assert len(got) == min(r, pairs)
    assert set(windows) == {w - 1 for w in (64, 128, 256, 512) if w < size}


def _zero_cases():
    """Each `_pruning_cases` instance once, then a 5x3 and a 6x4 instance
    with zero symbols, a 5x1 and a 6x4 one with a repeated P row."""
    cases = [case[:4] for case in _pruning_cases()][::2]
    rng = np.random.default_rng(20261019)
    for size, m1, m2, k, repeat, zeros in (
        (3, 5, 3, 2, False, True), (3, 5, 1, 1, True, False),
        (3, 6, 4, 2, True, False), (4, 6, 4, 1, False, True),
    ):
        P, Q, h = _instance(rng, size, m1, m2, k, repeat, zeros)
        cases.append((P, Q, h, enumerate_space(m1, m2, k)))
    return cases


@functools.lru_cache(maxsize=1)
def _zero_oracle_cases():
    """Every `_zero_cases` instance with its zero-bound vector and the exact
    tied value of every rival pair."""
    out = []
    for P, Q, h, space in _zero_cases():
        dists, weights = _sequences(P, Q, h)
        values = {
            (t, s): exponents._zero_solution(dists, weights, _pair_edges(P, space, t, s))[0]
            for t, s in combinations(range(len(space)), 2)
        }
        out.append((P, Q, h, space, batch_scores(_zero_table(P, dists[len(P):], h, ALPHA), space), values))
    return out


class TestZeroThresholdBounds:
    def test_bound_below_every_pair(self):
        cases = _zero_oracle_cases()
        assert len(cases) == 34
        for P, Q, h, space, bound, values in cases:
            assert bound[space.index_of(h)] == 0.0
            for (t, s), val in values.items():
                assert val >= max(bound[t], bound[s]) * (1 - 1e-12) - 1e-15

    def test_both_routes_are_the_every_pair_minimum(self):
        for P, Q, h, space, bound, values in _zero_oracle_cases():
            oracle = min(values.values())
            sol = false_reject_exponent(P, Q, h, space, 0.0, ALPHA)
            ups = max_false_reject_exponent(P, Q, h, space, ALPHA)
            assert sol.pairs_solved + sol.pairs_skipped == len(values)
            assert oracle <= sol.value <= oracle * (1 + SKIP_REL) + SKIP_ABS
            assert oracle * (1 - 1e-9) <= ups <= oracle * (1 + SKIP_REL) + SKIP_ABS

    def test_table_is_the_pair_closed_form(self):
        # c_ij = -(1 + alpha) log sum P_i^w R_j^(1 - w), w = alpha/(1 + alpha):
        # +inf on disjoint supports, and 0 on the truth's pairs
        w = ALPHA / (1.0 + ALPHA)
        no_tied = [Distribution([0.6, 0.4, 0.0]), Distribution([0.0, 0.0, 1.0])]
        cases = [case[:3] for case in _zero_cases()] + [(no_tied, no_tied[:1], MatchHypothesis(((0, 0),)))]
        for P, Q, h in cases:
            refs = reference_psis(P, Q, h)
            c = _zero_table(P, refs, h, ALPHA)
            for i, j in np.ndindex(c.shape):
                if (i, j) in h.pairs:
                    assert c[i, j] == 0.0
                    continue
                assert c[i, j] == min_weighted_kl(WeightedKlProblem((P[i], refs[j]), (ALPHA, 1.0)))[0]
                z = float(np.sum(P[i].probs ** w * refs[j].probs ** (1.0 - w)))
                want = -(1.0 + ALPHA) * math.log(z) if z else math.inf
                assert c[i, j] == pytest.approx(want, rel=1e-12, abs=0.0)
        assert c[1, 0] == math.inf


class TestNewtonEdgeCases:
    def test_cold_solves_near_zero_threshold(self):
        # criterion 03's instances, each point solved cold: near lambda = 0
        # the value sits just below the tied closed form F(0). The true
        # drop grows like sqrt(lambda): on one instance F(0) - F is 5.5e-3
        # at 1e-5 Lambda_l (the SLSQP oracle agrees), so the 5e-3 band is
        # asserted at the two smaller points
        from test_acceptance import _lemma1_instances

        for P, Q, h, space in _lemma1_instances():
            lam_star = min_rival_score(P, Q, space, space.index_of(h), ALPHA)
            v0 = false_reject_exponent(P, Q, h, space, 0.0, ALPHA).value
            sols = [false_reject_exponent(P, Q, h, space, f * lam_star, ALPHA) for f in (1e-9, 1e-7, 1e-5)]
            vals = [sol.value for sol in sols]
            assert all(sol.converged for sol in sols)
            assert all(v0 - 5e-3 <= v <= v0 + 1e-9 for v in vals[:2])
            assert v0 - 1e-2 <= vals[2]
            assert vals[0] >= vals[1] >= vals[2]

    def test_pair_without_tied_point_feasible_at_large_threshold(self):
        # x_1 and x_2 each share one symbol with y_0 but the three share
        # none: no tied point, yet both scores fall below lambda once it
        # is large enough
        P = [Distribution([0.5, 0.5, 0.0]), Distribution([0.1, 0.0, 0.9]), Distribution([0.0, 0.1, 0.9])]
        dists, weights = P + [P[0]], [ALPHA] * 3 + [1.0]
        edges = [[(1, 3)], [(2, 3)]]
        assert exponents._zero_solution(dists, weights, edges)[0] == math.inf
        top = gjs(P[1], P[0], ALPHA)
        for frac in (0.5, 0.8, 0.95):
            lam = frac * top
            val, zs, _, ok, state = _solve(dists, weights, edges, ALPHA, lam)
            ref = slsqp_solve(dists, weights, edges, ALPHA, lam)
            assert ok and 0.0 < val < math.inf
            _assert_pair_certified(dists, weights, edges, lam, val, zs)
            assert ref[0] * (1 - 1e-9) <= val <= ref[0] + _allowance(edges, lam, ref, state[2])
        # far below, no point meets both constraints
        val, _, _, ok, state = _solve(dists, weights, edges, ALPHA, 0.2 * top)
        assert val == math.inf and not ok and state is None

    def test_symbol_missing_from_tied_row(self):
        # x_1 lacks the third symbol, which y_0 and y_1 carry: near lambda = 0
        # their third coordinates head for optima near exp(-mu log 3), far
        # below the rest, which the solve reaches in a few steps
        P = [Distribution([0.2, 0.4, 0.4]), Distribution([0.33, 0.67, 0.0]), Distribution([0.24, 0.76, 0.0])]
        Q = [P[0], Distribution([0.58, 0.14, 0.28])]
        h = MatchHypothesis(((0, 0),))
        space = enumerate_space(3, 2, 1)
        lam_star = min_rival_score(P, Q, space, space.index_of(h), ALPHA)
        dists, weights = _sequences(P, Q, h)
        edges = [_edges(P, [(1, 0)]), _edges(P, [(1, 1)])]
        for frac in (1e-7, 1e-6, 1e-5):
            lam = frac * lam_star
            val, zs, nit, ok, state = _solve(dists, weights, edges, ALPHA, lam)
            ref = slsqp_solve(dists, weights, edges, ALPHA, lam)
            assert ok and nit < 30
            _assert_pair_certified(dists, weights, edges, lam, val, zs)
            assert val <= ref[0] + _allowance(edges, lam, ref, state[2])

    def test_disjoint_supports_stay_infinite_unconverged(self):
        # the golden no_tied_point instance: the rival's score is the
        # largest GJS at every point
        P = [Distribution([0.6, 0.4, 0.0]), Distribution([0.0, 0.0, 1.0])]
        Q = [Distribution([0.6, 0.4, 0.0])]
        space = enumerate_space(2, 1, 1)
        h = MatchHypothesis(((0, 0),))
        lam_star = min_rival_score(P, Q, space, 0, ALPHA)
        for sol in false_reject_curve(P, Q, h, space, [0.02 * lam_star, 0.3 * lam_star, 0.98 * lam_star], ALPHA):
            assert sol.value == math.inf
            assert not sol.converged


def _fields(sol):
    """An ExponentSolution as plain values, the argmins as tuples of floats."""
    return {
        name: tuple(tuple(d.probs.tolist()) for d in v) if name.startswith("argmin") and v else v
        for name, v in vars(sol).items()
    }


class TestCurveSharesWork:
    # Bern(.1,.2,.3,.4) vs Bern(.1,.2), K = 2: the bench instance
    P = [B(0.1), B(0.2), B(0.3), B(0.4)]
    Q = [B(0.1), B(0.2)]
    H = MatchHypothesis(((0, 0), (1, 1)))

    def test_lam_free_work_once_per_curve(self, monkeypatch):
        space = enumerate_space(4, 2, 2)
        lam_star = min_rival_score(self.P, self.Q, space, space.index_of(self.H), ALPHA)
        calls = {}

        def count(owner, name):
            real = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        count(HypothesisSpace, "index_of")
        # per solve: its problem, whether its warm start converged, and the
        # _zero_solution calls it made
        real_solve, real_newton, solves, newtons = _PairProblem.solve, exponents._newton, [], []

        def newton(*args):
            out = real_newton(*args)
            newtons.append(out[4])
            return out

        def solve(prob, lam):
            before, first, warm = calls.get("_zero_solution", 0), len(newtons), prob.warm
            out = real_solve(prob, lam)
            solves.append((prob, warm is not None and newtons[first], calls.get("_zero_solution", 0) - before))
            return out

        monkeypatch.setattr(exponents, "_newton", newton)
        monkeypatch.setattr(_PairProblem, "solve", solve)
        for name in ("check_consistent", "reference_psis", "population_scores", "batch_scores",
                     "_dual_table", "_PairProblem", "_zero_solution"):
            count(exponents, name)
        lams = [0.25 * lam_star, 0.5 * lam_star, 0.75 * lam_star]
        sols = false_reject_curve(self.P, self.Q, self.H, space, lams, ALPHA)
        assert all(s.converged and 0.0 < s.value < math.inf for s in sols)
        for name in ("index_of", "check_consistent", "reference_psis", "population_scores", "_dual_table"):
            assert calls[name] == 1, name
        # the population scores and the dual bounds, each gathered once
        assert calls["batch_scores"] == 2
        # one problem per solved pair, each with one tied point, computed
        # when it is built and never inside a solve
        problems = {id(prob) for prob, _, _ in solves}
        assert calls["_PairProblem"] == calls["_zero_solution"] == len(problems) >= 1
        assert all(zeros == 0 for _, _, zeros in solves)
        assert any(warm_ok for _, warm_ok, _ in solves) and not all(warm_ok for _, warm_ok, _ in solves)

    def _instances(self):
        rng = np.random.default_rng(5)
        yield (self.P, self.Q, self.H, enumerate_space(4, 2, 2))
        P, Q, h = _instance(rng, 3, 4, 2, 1, zeros=True)
        yield P, Q, h, enumerate_space(4, 2, 1)

    def test_curve_point_equals_standalone_call(self):
        for P, Q, h, space in self._instances():
            lam_star = min_rival_score(P, Q, space, space.index_of(h), ALPHA)
            for lam in (0.0, 0.1 * lam_star, 0.6 * lam_star, 0.98 * lam_star, 1.5 * lam_star):
                alone = false_reject_exponent(P, Q, h, space, lam, ALPHA)
                assert _fields(false_reject_curve(P, Q, h, space, [lam], ALPHA)[0]) == _fields(alone)

    def test_no_state_carries_between_curves(self):
        (pa, qa, ha, sa), (pb, qb, hb, sb) = self._instances()
        lams_a = [f * min_rival_score(pa, qa, sa, sa.index_of(ha), ALPHA) for f in (0.2, 0.5, 0.8)]
        lams_b = [f * min_rival_score(pb, qb, sb, sb.index_of(hb), ALPHA) for f in (0.2, 0.5, 0.8)]
        first_b = [_fields(s) for s in false_reject_curve(pb, qb, hb, sb, lams_b, ALPHA)]
        false_reject_curve(pa, qa, ha, sa, lams_a, ALPHA)
        after_a = false_reject_curve(pb, qb, hb, sb, lams_b, ALPHA)
        assert [_fields(s) for s in after_a] == first_b
        # warm starts change the Newton steps, not the exponent
        for got, lam in zip(after_a, lams_b):
            want = false_reject_exponent(pb, qb, hb, sb, lam, ALPHA)
            assert got.value == pytest.approx(want.value, rel=1e-9, abs=1e-15)
            assert got.active_pair == want.active_pair


def _reference_kernels(targets, weights, zs, mu):
    """Objective, gradient, constraint sums, Jacobian and the gradient of
    the Lagrangian of a pair problem from the per-call kernels, one
    distribution and one pair at a time, on the targets' supports."""
    free = targets > 0
    val = sum(w * kl_arr(z, r) for z, r, w in zip(zs, targets, weights))
    with np.errstate(divide="ignore", invalid="ignore"):
        grad = np.array([w * (np.log(z / r) + 1.0) for z, r, w in zip(zs, targets, weights)])
    cons, jac = [], np.zeros((len(CONSTRAINTS),) + targets.shape)
    for c, (pairs, _) in enumerate(CONSTRAINTS):
        cons.append(sum(gjs_arr(zs[i], zs[j], ALPHA) for i, j in pairs))
        for i, j in pairs:
            d1, d2 = info_densities(zs[i], zs[j], ALPHA)
            jac[c, i], jac[c, j] = ALPHA * d1, d2
    grad, jac = grad[free], jac[:, free]
    return val, grad, np.array(cons), jac, grad + mu @ jac


# two rival hypotheses over x-rows 0-2 and y-rows 3-4
CONSTRAINTS = [([(0, 3), (1, 4)], 0.01), ([(2, 3), (0, 4)], 0.02)]


def test_pair_log_ratios_are_the_density_kernels():
    # rows off part of the alphabet, so some gathered p and q are 0
    rng = np.random.default_rng(8)
    targets = rng.dirichlet(np.ones(4), 5)
    targets[1, :2] = targets[3, 1:3] = 0.0
    targets /= targets.sum(axis=1, keepdims=True)
    prob = _PairProblem([Distribution(t) for t in targets], [1.0] * 5, [pairs for pairs, _ in CONSTRAINTS], ALPHA)
    for _ in range(10):
        zs = rng.dirichlet(np.ones(4), 5) * (targets > 0)
        zs /= zs.sum(axis=1, keepdims=True)
        _, s, lp, lq = prob.values(zs[targets > 0])
        for c, (pairs, _) in enumerate(CONSTRAINTS):
            i, j = np.array(pairs).T
            d1, d2 = info_densities(zs[i], zs[j], ALPHA)
            assert np.array_equal(lp[prob.pc[:, 0] == c], d1)
            assert np.array_equal(lq[prob.pc[:, 0] == c], d2)


@pytest.mark.parametrize("size", [2, 3])
def test_fused_kernels_match_per_call_sums(size):
    rng = np.random.default_rng(size)
    targets = rng.dirichlet(np.ones(size), 5)
    if size == 3:
        # rows off part of the alphabet: x-row 1 and y-row 3 share two symbols
        targets[1] = [0.0, 0.4, 0.6]
        targets[3] = [0.7, 0.0, 0.3]
    weights = [ALPHA] * 3 + [1.0] * 2
    prob = _PairProblem([Distribution(t) for t in targets], weights, [pairs for pairs, _ in CONSTRAINTS], ALPHA)
    mu = np.array([0.7, 1.3])
    for _ in range(20):
        zs = rng.dirichlet(np.full(size, 3.0), 5) * (targets > 0)
        zs /= zs.sum(axis=1, keepdims=True)
        x = zs[targets > 0]
        want = _reference_kernels(targets, weights, zs, mu)
        f, grad, cons, jac, hess = prob.newton_system(x, mu)
        f_only, cons_only = prob.values(x)[:2]
        assert f_only == f and np.array_equal(cons_only, cons)
        for got, ref in zip((f, grad, cons, jac), want):
            np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-12)
        # the Hessian of the Lagrangian against central differences of its
        # gradient, one coordinate at a time
        step = 1e-6
        fd = np.empty_like(hess)
        for k in range(x.size):
            e = np.zeros(x.size)
            e[k] = step
            up, down = (prob.newton_system(x + v, mu) for v in (e, -e))
            fd[:, k] = (up[1] + mu @ up[3] - down[1] - mu @ down[3]) / (2 * step)
        np.testing.assert_allclose(hess, fd, rtol=1e-6, atol=1e-6)
        np.testing.assert_allclose(want[4], grad + mu @ jac, rtol=1e-9, atol=1e-12)


# -- one evaluation per Newton step, against the pre-change trajectory -------

def _same(a, b):
    """Bitwise equality of nested solver outputs: arrays by dtype, shape and
    bytes, floats by repr, distributions by their probabilities."""
    if isinstance(a, Distribution) or isinstance(b, Distribution):
        return isinstance(a, Distribution) and isinstance(b, Distribution) and _same(a.probs, b.probs)
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a), np.asarray(b)
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, dict):
        return isinstance(b, dict) and list(a) == list(b) and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, float):
        return isinstance(b, float) and repr(a) == repr(b)
    return type(a) is type(b) and a == b


def _traced(monkeypatch, reference, run):
    """run() with every Newton step recorded as ((x, active set, mu, lam,
    drop), step output), on the package's solver or, with `reference`, on
    the pre-change one of `newton_oracle`. Returns (run(), steps)."""
    steps = []
    with monkeypatch.context() as m:
        if reference:
            m.setattr(_PairProblem, "values", newton_oracle.values)
            # the pre-change _newton evaluates its start afresh: it drops the
            # values that the solve hands along
            m.setattr(exponents, "_newton", lambda *args: newton_oracle.newton(*args[:5], trace=steps))
        else:
            real = exponents._step

            def step(prob, x, vals, active, mu, lam, drop):
                out = real(prob, x, vals, active, mu, lam, drop)
                steps.append(((x, active, mu, lam, drop), out))
                return out

            m.setattr(exponents, "_step", step)
        return run(), steps


def _assert_same_trajectory(monkeypatch, run):
    """run() gives the same result on both solvers, through the same Newton
    steps; returns the number of steps."""
    got, got_steps = _traced(monkeypatch, False, run)
    want, want_steps = _traced(monkeypatch, True, run)
    assert len(got_steps) == len(want_steps)
    for k, (a, b) in enumerate(zip(got_steps, want_steps)):
        assert _same(a, b), k
    assert _same(got, want)
    return len(got_steps)


def _solves(prob, lams):
    """Each solve of a fresh copy of prob along lams, with the warm point,
    active set and multipliers it leaves: the first solve is cold, the rest
    warm-start. The warm state's fourth part, the values at its point, is
    left out: the pre-change kernel may give a zero log ratio the other sign,
    and the Newton steps that read it are compared in full."""
    def run():
        fresh = _PairProblem(*prob)
        return [(fresh.solve(lam), fresh.warm and fresh.warm[:3]) for lam in lams]
    return run


def _top_score(prob):
    """The largest score of the pair problem's constraints at its targets."""
    built = _PairProblem(*prob)
    return newton_oracle.values(built, built.r)[1].max()


def test_golden_instances_keep_their_newton_trajectories(monkeypatch):
    # the golden curves, spurious-match exponents and ceilings: every Newton
    # step's point, active set, multipliers and output, bit for bit
    from test_golden import exponent_records

    assert _assert_same_trajectory(monkeypatch, exponent_records) > 0


# a pair problem: targets over 2 or 3 symbols for x-rows 0-2 and y-rows 3-4,
# some symbols off a row's support, under the two rivals of CONSTRAINTS or
# one unmatched pair, along ascending then descending thresholds
@st.composite
def _pair_problems(draw):
    size = draw(st.sampled_from([2, 3]))
    rows = []
    for _ in range(5):
        row = draw(st.lists(st.sampled_from([0.0, 0.05, 0.3, 1.0]) | st.floats(0.01, 1.0),
                            min_size=size, max_size=size).filter(lambda r: sum(r) > 0))
        rows.append(np.array(row) / sum(row))
    edges = draw(st.sampled_from([[pairs for pairs, _ in CONSTRAINTS], [[(1, 3)]], [[(0, 4)]]]))
    fracs = draw(st.lists(st.floats(1e-4, 1.5), min_size=1, max_size=4))
    return [Distribution(r) for r in rows], [ALPHA] * 3 + [1.0] * 2, edges, fracs


@given(_pair_problems())
@settings(max_examples=60, deadline=None)
def test_drawn_pair_problems_keep_their_newton_trajectories(problem):
    dists, weights, edges, fracs = problem
    prob = (dists, weights, edges, ALPHA)
    top = _top_score(prob)
    assume(top > 0.0)
    lams = [f * top for f in sorted(fracs)] + [f * top for f in sorted(fracs, reverse=True)]
    with pytest.MonkeyPatch.context() as monkeypatch:
        _assert_same_trajectory(monkeypatch, _solves(prob, lams))


def test_ladder_start_keeps_its_newton_trajectory(monkeypatch):
    # at 1e-3 of the targets' largest score the cold Newton runs from the
    # blend fail at lam, 4 lam and 16 lam; the solve converges at 64 lam and
    # carries the solution back down the ladder
    rng = np.random.default_rng(12)
    targets = rng.dirichlet(np.full(2, 0.5), 5)
    targets[rng.integers(5), rng.integers(2)] = 0.0
    targets /= targets.sum(axis=1, keepdims=True)
    prob = ([Distribution(t) for t in targets], [ALPHA] * 3 + [1.0] * 2, [pairs for pairs, _ in CONSTRAINTS], ALPHA)
    rungs = []
    real = exponents._blend
    monkeypatch.setattr(exponents, "_blend", lambda p, xi, lam, top: rungs.append(lam) or real(p, xi, lam, top))
    top = _top_score(prob)
    assert _assert_same_trajectory(monkeypatch, _solves(prob, [1e-3 * top, 0.5 * top, 1e-3 * top])) > 0
    assert len(set(rungs)) >= 3


def test_pair_values_match_the_reference_bitwise():
    rng = np.random.default_rng(12)
    targets = rng.dirichlet(np.ones(3), 5)
    targets[1, :2] = targets[3, 1:3] = 0.0
    targets /= targets.sum(axis=1, keepdims=True)
    prob = _PairProblem([Distribution(t) for t in targets], [ALPHA] * 3 + [1.0] * 2,
                        [pairs for pairs, _ in CONSTRAINTS], ALPHA)
    for _ in range(20):
        zs = rng.dirichlet(np.ones(3), 5) * (targets > 0)
        x = (zs / zs.sum(axis=1, keepdims=True))[targets > 0]
        mu = rng.uniform(-0.5, 2.0, 2)
        assert _same(prob.values(x), newton_oracle.values(prob, x))
        assert _same(prob.newton_system(x, mu), newton_oracle.newton_system(prob, x, mu))
        assert _same(prob.newton_system(x, mu, prob.values(x)), newton_oracle.newton_system(prob, x, mu))


def test_newton_evaluates_each_point_once(monkeypatch):
    # within one _newton run the objective and scores are evaluated at its
    # start, unless the solve hands their values along, and at each
    # line-search trial, never twice at one point; along a whole curve no
    # evaluation repeats the point of the one before it (the targets then the
    # blend's first point, the blend's point then a Newton start, or a
    # certification then the next warm start); and no step allocates a KKT
    # matrix: each problem holds one per set size
    points, runs, problems, in_step = [], [], {}, []
    real_values, real_newton, real_step, zeros = _PairProblem.values, exponents._newton, exponents._step, np.zeros

    def values(prob, x):
        points.append(x.tobytes())
        return real_values(prob, x)

    def newton(prob, x, *args):
        problems[id(prob)] = prob
        first = len(points)
        out = real_newton(prob, x, *args)
        runs.append(points[first:])
        handed = args[3] if len(args) > 3 else None
        if handed is None:
            assert runs[-1][0] == x.tobytes()
        else:
            assert _same(handed, real_values(prob, x))
        return out

    def step(*args):
        in_step.append(True)
        try:
            return real_step(*args)
        finally:
            in_step.pop()

    allocated = []

    def counted_zeros(shape, *args, **kwargs):
        if in_step:
            allocated.append(shape if isinstance(shape, tuple) else (shape,))
        return zeros(shape, *args, **kwargs)

    monkeypatch.setattr(_PairProblem, "values", values)
    monkeypatch.setattr(exponents, "_newton", newton)
    monkeypatch.setattr(exponents, "_step", step)
    monkeypatch.setattr(np, "zeros", counted_zeros)
    P, Q, h = [B(0.1), B(0.2), B(0.3), B(0.4)], [B(0.1), B(0.2)], MatchHypothesis(((0, 0), (1, 1)))
    space = enumerate_space(4, 2, 2)
    lam_star = min_rival_score(P, Q, space, space.index_of(h), ALPHA)
    sols = false_reject_curve(P, Q, h, space, [f * lam_star for f in (0.02, 0.25, 0.5, 0.75)], ALPHA)
    assert sum(s.iterations for s in sols) > len(runs) >= 4
    # points evaluated a second time, per run, and twice in a row
    assert [len(run) - len(set(run)) for run in runs] == [0] * len(runs)
    assert not [k for k in range(1, len(points)) if points[k] == points[k - 1]]
    kkt_shapes = {(p.size + k + p.nrow,) * 2 for p in problems.values() for k in range(p.ncon + 1)}
    assert not [shape for shape in allocated if shape in kkt_shapes]
    for p in problems.values():
        assert [m.shape for m in p.kkt] == [(p.size + k + p.nrow,) * 2 for k in range(p.ncon + 1)]
    # the bench's 3-point curve: 16 evaluations, 20 when each helper
    # evaluated its own start, and none twice in a row
    points.clear()
    false_reject_curve(P, Q, h, space, [0.01, 0.012, 0.014], ALPHA)
    assert len(points) == 16
    assert not [k for k in range(1, len(points)) if points[k] == points[k - 1]]


@pytest.mark.parametrize("rows,zero_rows", [(1, 0), (40, 3), (1000, 100)])
def test_relaxation_bounds_fold_matches_the_row_max(rows, zero_rows):
    rng = np.random.default_rng(rows)
    scores = rng.exponential(rng.uniform(0.01, 5.0, (rows, 1)), (rows, exponents._MU_GRID.size))
    scores[rng.choice(rows, zero_rows, replace=False)] = 0.0
    for lam in (1e-9, 1e-3, 0.05, 1.0, 7.0):
        want = (scores - exponents._MU_GRID * lam).max(axis=1, initial=0.0)
        assert _same(_relaxation_bounds(np.ascontiguousarray(scores.T), lam), want)
        assert _same(_relaxation_bounds(scores.T, lam), want)
