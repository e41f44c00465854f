import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import gjs_table_oracle
from newton_oracle import per_side_densities
from seqmatch.core import Distribution, InputError, NumericError
from seqmatch.divergences import (
    WeightedKlProblem,
    gjs,
    gjs_table,
    info_densities,
    info_density_1,
    info_density_2,
    kl,
    min_weighted_kl,
    renyi,
    stacked_densities,
)

B = Distribution.bernoulli


def probs(*vals):
    return Distribution(np.array(vals, dtype=float))


@st.composite
def distributions(draw, size=None):
    k = size or draw(st.integers(2, 5))
    raw = draw(
        st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k)
    )
    arr = np.array(raw)
    return Distribution(arr / arr.sum())


class TestKl:
    def test_identity_zero(self):
        assert kl(probs(0.3, 0.7), probs(0.3, 0.7)) == 0.0

    def test_point_mass_analytic(self):
        assert kl(probs(1.0, 0.0), probs(0.5, 0.5)) == pytest.approx(math.log(2), rel=1e-14)

    def test_two_term_oracle(self):
        # direct summation: 0.1 log(0.1/0.3) + 0.9 log(0.9/0.7)
        want = 0.1 * math.log(0.1 / 0.3) + 0.9 * math.log(0.9 / 0.7)
        assert kl(probs(0.1, 0.9), probs(0.3, 0.7)) == pytest.approx(want, rel=1e-14)

    def test_infinite_when_support_escapes(self):
        assert kl(probs(0.5, 0.5), probs(1.0, 0.0)) == math.inf

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            kl(probs(0.5, 0.5), probs(0.2, 0.3, 0.5))


class TestGjs:
    def test_zero_at_equality(self):
        for a in (0.5, 1.0, 2.0, 7.3):
            assert gjs(probs(0.2, 0.8), probs(0.2, 0.8), a) == pytest.approx(0.0, abs=1e-14)

    def test_frozen_value(self):
        # direct formula evaluation, computed independently
        assert gjs(B(0.1), B(0.3), 2.0) == pytest.approx(0.0906533777611242, rel=1e-12)

    def test_alpha_one_is_twice_js(self):
        p, q = B(0.15), B(0.6)
        m = Distribution((p.probs + q.probs) / 2)
        assert gjs(p, q, 1.0) == pytest.approx(kl(p, m) + kl(q, m), rel=1e-12)

    def test_large_alpha_limit(self):
        p, q = B(0.1), B(0.3)
        target = kl(q, p)
        vals = [gjs(p, q, a) for a in (10.0, 100.0, 1e4)]
        assert vals[0] < vals[1] < vals[2] < target
        assert target - vals[2] < 1e-4

    @given(distributions(size=3), distributions(size=3), st.floats(0.1, 10.0))
    def test_nonnegative(self, p, q, a):
        assert gjs(p, q, a) >= 0.0

    @given(
        distributions(size=2), distributions(size=2),
        distributions(size=2), distributions(size=2),
        st.floats(0.2, 5.0), st.floats(0.01, 0.99),
    )
    @settings(max_examples=60)
    def test_joint_convexity(self, p1, q1, p2, q2, a, t):
        pm = Distribution(t * p1.probs + (1 - t) * p2.probs)
        qm = Distribution(t * q1.probs + (1 - t) * q2.probs)
        lhs = gjs(pm, qm, a)
        rhs = t * gjs(p1, q1, a) + (1 - t) * gjs(p2, q2, a)
        assert lhs <= rhs + 1e-12

    def test_table_matches_scalar(self):
        # x counts of length 20, y counts of length 10, symbol axis first
        cx = np.array([[18, 12], [2, 8]])
        cy = np.array([[8, 3, 1], [2, 7, 9]])
        t = gjs_table(cx, cy)
        assert t.shape == (2, 3)
        for i, p in enumerate((B(0.1), B(0.4))):
            for j, q in enumerate((B(0.2), B(0.7), B(0.9))):
                assert t[i, j] == pytest.approx(gjs(p, q, 2.0), abs=1e-14)

    def test_table_broadcasts_trailing_trial_axes(self):
        rng = np.random.default_rng(4)
        cx = rng.multinomial(30, [0.2, 0.3, 0.5], size=(5, 4)).transpose(2, 1, 0)
        cy = rng.multinomial(15, [0.5, 0.4, 0.1], size=(5, 3)).transpose(2, 1, 0)
        t = gjs_table(cx, cy)
        assert t.shape == (4, 3, 5)
        for b in range(5):
            np.testing.assert_array_equal(t[..., b], gjs_table(cx[..., b], cy[..., b]))


class TestCountKernelOracle:
    """The count kernel against the float table it replaced."""

    @given(
        st.integers(2, 12), st.sampled_from([0.5, 1.0, 2.0, 10.0]),
        st.integers(1, 10**6), st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_within_1e12_of_float_table(self, size, alpha, n, seed):
        rng = np.random.default_rng(seed)
        big_n = max(1, round(alpha * n))

        def dist():
            # symbols off a random support draw zero counts
            p = rng.dirichlet(np.ones(size)) * (rng.random(size) < 0.7)
            p[rng.integers(size)] += 1e-3
            return p / p.sum()

        cx = rng.multinomial(big_n, dist(), size=3)
        cy = rng.multinomial(n, dist(), size=3)
        # near-zero values too: y row 2 is drawn from x row 0's type
        cy[2] = rng.multinomial(n, cx[0] / big_n)
        want = gjs_table_oracle(cx / big_n, cy / n, big_n / n)
        np.testing.assert_allclose(gjs_table(cx.T, cy.T), want, rtol=0, atol=1e-12)

    @given(st.integers(2, 12), st.sampled_from([1, 2, 3, 10]), st.integers(1, 10**5),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_equal_types_score_exactly_zero(self, size, ratio, n, seed):
        # x rows at `ratio` times y's length with y's type, and the converse
        rng = np.random.default_rng(seed)
        d = rng.multinomial(n, rng.dirichlet(np.ones(size)), size=2)
        assert not gjs_table(ratio * d.T, d.T)[[0, 1], [0, 1]].any()
        assert not gjs_table(d.T, ratio * d.T)[[0, 1], [0, 1]].any()


class TestRenyi:
    def test_zero_at_equality(self):
        assert renyi(B(0.37), B(0.37), 0.5) == pytest.approx(0.0, abs=1e-14)

    def test_disjoint_supports(self):
        assert renyi(probs(1.0, 0.0), probs(0.0, 1.0), 0.5) == math.inf

    def test_frozen_value(self):
        want = math.log(0.9 ** (2 / 3) * 0.6 ** (1 / 3) + 0.1 ** (2 / 3) * 0.4 ** (1 / 3)) / (2 / 3 - 1)
        assert renyi(B(0.1), B(0.4), 2 / 3) == pytest.approx(want, rel=1e-13)

    def test_order_one_rejected(self):
        with pytest.raises(InputError):
            renyi(B(0.1), B(0.2), 1.0)

    def test_order_above_one(self):
        # log(sum p^2 / q) = log(.81/.7 + .01/.3)
        assert renyi(B(0.1), B(0.3), 2.0) == pytest.approx(0.174353387, rel=1e-9)
        assert renyi(B(0.1), B(0.3), 2.0) == pytest.approx(math.log(0.81 / 0.7 + 0.01 / 0.3), rel=1e-14)
        # q misses mass that p carries
        assert renyi(probs(0.5, 0.5), probs(1.0, 0.0), 2.0) == math.inf


class TestInfoDensities:
    def test_zero_at_equality(self):
        p = probs(0.2, 0.3, 0.5)
        for x in range(3):
            assert info_density_1(x, p, p, 2.0) == pytest.approx(0.0, abs=1e-15)
            assert info_density_2(x, p, p, 2.0) == pytest.approx(0.0, abs=1e-15)

    def test_frozen_value(self):
        # i1 at symbol 0: log(3*0.9 / (2*0.9 + 0.7))
        want = math.log(2.7 / 2.5)
        assert info_density_1(0, B(0.1), B(0.3), 2.0) == pytest.approx(want, rel=1e-13)

    def test_undefined_point_mass(self):
        with pytest.raises(NumericError):
            info_density_1(1, probs(1.0, 0.0), probs(0.5, 0.5), 2.0)

    @given(distributions(size=4), distributions(size=4), st.floats(0.2, 5.0))
    @settings(max_examples=60)
    def test_expectation_identity(self, p, q, a):
        # a*E_P[i1] + E_Q[i2] recovers the GJS divergence
        e1 = sum(p.probs[x] * info_density_1(x, p, q, a) for x in range(4))
        e2 = sum(q.probs[x] * info_density_2(x, p, q, a) for x in range(4))
        assert a * e1 + e2 == pytest.approx(gjs(p, q, a), abs=1e-12)

    @pytest.mark.parametrize("x", [-1, 2, True, 1.0])
    def test_symbol_outside_alphabet_rejected(self, x):
        for density in (info_density_1, info_density_2):
            with pytest.raises(InputError, match="not in the alphabet"):
                density(x, B(0.1), B(0.3), 2.0)

    def test_public_densities_index_the_kernel(self):
        p, q = probs(0.2, 0.3, 0.5), probs(0.5, 0.25, 0.25)
        i1, i2 = info_densities(p.probs, q.probs, 0.7)
        for x in range(3):
            assert info_density_1(x, p, q, 0.7) == i1[x]
            assert info_density_2(x, p, q, 0.7) == i2[x]


def _density_oracle(p, q, alpha):
    """(i1, i2) of the float entries taken exactly, at 50 digits."""
    p, q = np.broadcast_arrays(p, q)
    out = np.empty((2,) + p.shape)
    with localcontext() as ctx:
        ctx.prec = 50
        a = Decimal(alpha)
        for at in np.ndindex(p.shape):
            x, y = Decimal(float(p[at])), Decimal(float(q[at]))
            den = a * x + y
            out[(0,) + at] = float(((1 + a) * x / den).ln()) if x else 0.0
            out[(1,) + at] = float(((1 + a) * y / den).ln()) if y else 0.0
    return out


def _density_cases(kind, rng):
    """(p, q) arrays of one kind of input to the density kernel."""
    if kind == "near_equal":
        for gap in 10.0 ** -np.arange(1, 14):
            p = rng.dirichlet(np.ones(4), 3)
            yield p, p * (1.0 + gap * rng.uniform(-1.0, 1.0, p.shape))
    elif kind == "tiny_ratio":
        for e in range(1, 201, 7):
            t = 10.0 ** -e
            p, q = np.array([t, 0.5, 0.5 - t]), np.array([0.3, 0.4, 0.3])
            yield p, q
            yield q, p
    elif kind == "zero_symbols":
        for _ in range(10):
            p, q = rng.dirichlet(np.ones(3), (2, 4))
            yield np.where(p < 0.2, 0.0, p), np.where(q < 0.2, 0.0, q)
    else:  # broadcast shapes: every x row against every y row
        yield rng.dirichlet(np.ones(3), 5)[:, None], rng.dirichlet(np.ones(3), 4)[None]
        yield rng.dirichlet(np.ones(2)), rng.dirichlet(np.ones(2), (2, 3))


class TestInfoDensityKernel:
    @pytest.mark.parametrize("kind", ["near_equal", "tiny_ratio", "zero_symbols", "broadcast"])
    @pytest.mark.parametrize("alpha", [0.3, 2.0, 7.5])
    def test_matches_decimal_oracle(self, kind, alpha):
        rng = np.random.default_rng(3)
        for p, q in _density_cases(kind, rng):
            got = np.array(info_densities(p, q, alpha))
            want = _density_oracle(p, q, alpha)
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want)), (p, q)

    def test_zero_where_the_side_has_no_mass(self):
        p, q = np.array([0.0, 0.0, 0.6, 0.4]), np.array([0.0, 0.7, 0.0, 0.3])
        i1, i2 = info_densities(p, q, 2.0)
        assert np.array_equal(i1 == 0.0, p == 0.0) and np.array_equal(i2 == 0.0, q == 0.0)
        assert i2[1] == pytest.approx(math.log(3.0)) and i1[2] == pytest.approx(math.log(1.5))

    def test_broadcast_matches_row_by_row(self):
        rng = np.random.default_rng(4)
        p, q = rng.dirichlet(np.ones(3), 4), rng.dirichlet(np.ones(3), 3)
        i1, i2 = info_densities(p[:, None], q[None], 0.7)
        for a in range(4):
            for b in range(3):
                r1, r2 = info_densities(p[a], q[b], 0.7)
                assert np.array_equal(i1[a, b], r1) and np.array_equal(i2[a, b], r2)


def _stacked_cases(rng):
    """(p, q, alpha) inputs for the stacked kernel against the per-side one."""
    # zeros on either side, and on both
    yield np.array([0.0, 0.3, 0.7, 0.0]), np.array([0.5, 0.0, 0.5, 0.0]), 2.0
    # |r| exactly 0.5 (alpha 1 with p = 3q or q = 3p, alpha 2 with q = 2p),
    # and one ulp to either side of it
    for alpha, p, q in ((1.0, 0.75, 0.25), (1.0, 0.25, 0.75), (2.0, 0.25, 0.5)):
        for toward in (-1.0, 0.0, 1.0):
            pp = np.nextafter(p, p + toward) if toward else p
            yield np.array([pp, 1.0 - pp]), np.array([q, 1.0 - q]), alpha
    # tiny ratios on either side
    for e in range(1, 320, 11):
        t = 10.0 ** -e
        yield np.array([t, 0.5, 0.5 - t]), np.array([0.3, 0.4, 0.3]), 0.7
        yield np.array([0.3, 0.4, 0.3]), np.array([t, 0.5, 0.5 - t]), 7.5
    # near-equal rows with zero symbols, and broadcast shapes
    for _ in range(20):
        p, q = rng.dirichlet(np.ones(4), (2, 3))
        p[p < 0.1] = 0.0
        yield p, q * (1.0 + 1e-9 * rng.uniform(-1.0, 1.0, q.shape)), rng.uniform(0.1, 8.0)
    yield rng.dirichlet(np.ones(3), 5)[:, None], rng.dirichlet(np.ones(3), 4)[None], 2.0
    yield rng.dirichlet(np.ones(2)), rng.dirichlet(np.ones(2), (2, 3)), 0.3


def test_stacked_kernel_matches_per_side_kernel_bitwise():
    # the (2, ...) kernel against the two passes it replaced, kept in
    # tests/newton_oracle.py: the side-1 numerator (p - q)(-a) is a(q - p)
    # to the bit, so every density and every branch comes out the same
    rng = np.random.default_rng(29)
    for p, q, alpha in _stacked_cases(rng):
        want = np.array(per_side_densities(p, q, alpha))
        for got in (info_densities(p, q, alpha), stacked_densities(np.stack(np.broadcast_arrays(p, q)), alpha)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (p, q, alpha)


@given(
    distributions(size=3), distributions(size=3), distributions(size=3),
    st.floats(0.1, 8.0),
)
@settings(max_examples=200)
def test_decomposition_identity(omega, psi, p, a):
    # a*D(Om||P) + D(Psi||P) = GJS(Om, Psi, a) + (1+a)*D((a*Om+Psi)/(1+a) || P)
    mix = Distribution((a * omega.probs + psi.probs) / (1 + a))
    lhs = a * kl(omega, p) + kl(psi, p)
    rhs = gjs(omega, psi, a) + (1 + a) * kl(mix, p)
    assert lhs == pytest.approx(rhs, abs=1e-10)


class TestMinWeightedKl:
    def test_single_target(self):
        val, arg = min_weighted_kl(WeightedKlProblem((B(0.3),), (1.0,)))
        assert val == pytest.approx(0.0, abs=1e-14)
        assert arg.probs[1] == pytest.approx(0.3)

    def test_two_targets_is_renyi(self):
        # weights (a, 1) against (P, Q) give the Renyi divergence of order a/(1+a)
        p, q, a = B(0.15), B(0.55), 2.0
        val, _ = min_weighted_kl(WeightedKlProblem((p, q), (a, 1.0)))
        assert val == pytest.approx(renyi(p, q, a / (1 + a)), rel=1e-12)

    def test_three_targets_grid_oracle(self):
        targets = (B(0.1), B(0.35), B(0.65))
        weights = (2.0, 2.0, 1.0)
        val, arg = min_weighted_kl(WeightedKlProblem(targets, weights))
        ts = np.linspace(1e-4, 1 - 1e-4, 9999)
        grid = min(
            sum(w * kl(B(t), r) for w, r in zip(weights, targets)) for t in ts
        )
        assert val <= grid + 1e-12
        assert val == pytest.approx(grid, abs=1e-6)
        # certified: re-evaluating the objective at the argmin gives the value
        direct = sum(w * kl(arg, r) for w, r in zip(weights, targets))
        assert direct == pytest.approx(val, abs=1e-12)

    def test_empty_support_intersection(self):
        t1 = probs(1.0, 0.0)
        t2 = probs(0.0, 1.0)
        val, arg = min_weighted_kl(WeightedKlProblem((t1, t2), (1.0, 1.0)))
        assert val == math.inf
        assert arg is None

    def test_weights_must_be_positive(self):
        with pytest.raises(InputError):
            WeightedKlProblem((B(0.5),), (0.0,))

    @pytest.mark.parametrize("targets,weights,what", [
        ((B(0.5), B(0.2)), (1.0,), "equally long and non-empty"),
        ((), (), "equally long and non-empty"),
        ((B(0.5), Distribution(np.array([0.2, 0.3, 0.5]))), (1.0, 1.0), "share one alphabet"),
    ], ids=["lengths_differ", "empty", "alphabets_differ"])
    def test_malformed_problem_rejected(self, targets, weights, what):
        with pytest.raises(InputError, match=what):
            WeightedKlProblem(targets, weights)
