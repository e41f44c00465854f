import math
import time
from functools import lru_cache

import numpy as np
import pytest

from conftest import gjs_table_oracle
from seqmatch import glrt, hypotheses
from seqmatch.core import Alphabet, Database, Distribution, InputError, MatchHypothesis
from seqmatch.divergences import gjs, gjs_table
from seqmatch.glrt import (
    TestConfig as GlrtConfig,
    Verdict,
    effective_threshold,
    score,
    simple_test,
    two_phase_test,
    unnikrishnan_test,
)
from seqmatch.hypotheses import batch_known_k, batch_scores, enumerate_space

B = Distribution.bernoulli


def db(rows, size=2):
    return Database.from_rows(rows, Alphabet(size))


def seq_of(counts):
    """A sequence realizing the given symbol counts."""
    out = []
    for sym, c in enumerate(counts):
        out.extend([sym] * c)
    return out


class TestEffectiveThreshold:
    def test_frozen_arithmetic(self):
        want = 0.1 + 4 * math.log(301) / 100
        assert effective_threshold(0.1, 2, 2, 100, 2.0) == pytest.approx(want, rel=1e-14)

    def test_exceeds_lambda_and_vanishes(self):
        assert effective_threshold(0.0, 1, 2, 10**9, 1.0) == pytest.approx(0.0, abs=1e-6)
        assert effective_threshold(0.2, 1, 2, 50, 1.0) > 0.2

    def test_monotone_decreasing_in_n(self):
        vals = [effective_threshold(0.05, 2, 3, n, 2.0) for n in range(10, 5000, 37)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("n", [0, -5, math.nan, 2.5, 100.0, True])
    def test_n_below_one_rejected(self, n):
        with pytest.raises(InputError, match="n must be >= 1"):
            effective_threshold(0.1, 1, 2, n, 2.0)


class TestScore:
    def test_identical_pairs_score_zero(self):
        x = db([[0, 1, 0, 1], [1, 1, 1, 1]])
        y = db([[0, 1, 0, 1]])
        assert score(x, y, MatchHypothesis(((0, 0),))) == pytest.approx(0.0, abs=1e-15)

    def test_single_pair_equals_gjs(self):
        x = db([seq_of([6, 2]), seq_of([1, 7])])
        y = db([seq_of([2, 2])])
        h = MatchHypothesis(((1, 0),))
        want = gjs(B(7 / 8), B(0.5), 2.0)
        assert score(x, y, h) == pytest.approx(want, rel=1e-12)

    def test_two_pair_sum(self):
        x = db([seq_of([6, 2]), seq_of([4, 4]), seq_of([1, 7]), seq_of([8, 0])])
        y = db([seq_of([3, 1]), seq_of([1, 3])])
        h = MatchHypothesis(((0, 0), (2, 1)))
        want = gjs(B(0.25), B(0.25), 2.0) + gjs(B(7 / 8), B(0.75), 2.0)
        assert score(x, y, h) == pytest.approx(want, rel=1e-12)

    def test_out_of_range_hypothesis(self):
        x = db([[0, 1]])
        y = db([[0, 1]])
        with pytest.raises(InputError):
            score(x, y, MatchHypothesis(((3, 0),)))

    @pytest.mark.parametrize("k", [8, 9])
    def test_equals_the_verdicts_min_score(self, k):
        # from K = 8 on numpy's own sum of a gather is pairwise; the score,
        # the decision and a Python loop all add the pairs left to right
        rng = np.random.default_rng(5)
        accepted = 0
        for _ in range(40):
            x = Database(rng.multinomial(80, rng.dirichlet(np.ones(3)), k + 1), 80, Alphabet(3))
            y = Database(rng.multinomial(40, rng.dirichlet(np.ones(3)), k), 40, Alphabet(3))
            v = unnikrishnan_test(x, y, k, 0.0, type_correction=False)
            if v.is_match:
                accepted += 1
                table = gjs_table(x.counts.T, y.counts.T)
                assert score(x, y, v.matched) == v.diagnostics["min_score"]
                assert score(x, y, v.matched) == sum(table[i, j] for i, j in v.matched.pairs)
        assert accepted >= 30

    def test_alphabets_must_agree(self):
        x, y = db([[0, 1]]), db([[0, 2]], size=3)
        with pytest.raises(InputError, match="databases must share an alphabet"):
            score(x, y, MatchHypothesis(((0, 0),)))
        with pytest.raises(InputError, match="databases must share an alphabet"):
            unnikrishnan_test(x, y, 1, 0.1)


def clean_databases(n=60, alpha=1.0):
    """x_0 == y_0 exactly; the other x rows have extreme opposite types."""
    big_n = int(n * alpha)
    x = db([seq_of([big_n // 2, big_n - big_n // 2]), seq_of([big_n, 0]), seq_of([0, big_n])])
    y = db([seq_of([n // 2, n - n // 2])])
    return x, y


class TestUnnikrishnan:
    def test_clean_match(self):
        x, y = clean_databases()
        v = unnikrishnan_test(x, y, 1, 1e-4)
        assert v.is_match
        assert v.matched.pairs == ((0, 0),)
        assert v.k == 1
        assert v.diagnostics["second_min_score"] > v.diagnostics["threshold"]

    def test_all_types_identical_rejects(self):
        row = seq_of([5, 5])
        x = db([row, row, row])
        y = db([row])
        v = unnikrishnan_test(x, y, 1, 0.01)
        assert not v.is_match
        assert v.diagnostics["second_min_score"] == pytest.approx(0.0, abs=1e-15)

    def test_argmin_tie_breaks_to_lowest_index(self):
        row = seq_of([7, 3])
        x = db([row, row])
        y = db([seq_of([6, 4])])
        v = unnikrishnan_test(x, y, 1, 0.0, type_correction=False)
        assert v.is_match
        assert v.matched.pairs == ((0, 0),)
        s = [glrt.score(x, y, MatchHypothesis(((i, 0),))) for i in range(2)]
        assert s[0] == pytest.approx(s[1], abs=1e-15)

    def test_never_match_with_second_min_below_threshold(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(10, 40))
            x = db([rng.integers(0, 2, n).tolist() for _ in range(3)])
            y = db([rng.integers(0, 2, n).tolist() for _ in range(2)])
            lam = float(rng.uniform(0, 0.2))
            v = unnikrishnan_test(x, y, 1, lam)
            if v.is_match:
                assert v.diagnostics["second_min_score"] > v.diagnostics["threshold"]

    def test_single_hypothesis_always_accepts(self):
        x = db([seq_of([3, 7])])
        y = db([seq_of([9, 1])])
        v = unnikrishnan_test(x, y, 1, 5.0)
        assert v.is_match
        assert v.diagnostics["single_hypothesis"]
        assert v.diagnostics["second_min_score"] == math.inf

    def test_reduces_to_multiway_classifier(self):
        # direct reimplementation of the K=1, M2=1 classifier as the oracle
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(12, 50))
            rows = [rng.integers(0, 2, 2 * n).tolist() for _ in range(4)]
            yrow = rng.integers(0, 2, n).tolist()
            x, y = db(rows), db([yrow])
            lam = float(rng.uniform(0, 0.3))
            a = 2.0
            scores = [
                gjs(Distribution(x.type_matrix()[i]), Distribution(y.type_matrix()[0]), a)
                for i in range(4)
            ]
            l_star = int(np.argmin(scores))
            h = sorted(scores[t] for t in range(4) if t != l_star)[0]
            lam_n = effective_threshold(lam, 1, 2, n, a)
            v = unnikrishnan_test(x, y, 1, lam)
            assert v.is_match == (h > lam_n)
            if v.is_match:
                assert v.matched.pairs == ((l_star, 0),)

    def test_k_out_of_range(self):
        x, y = clean_databases()
        with pytest.raises(InputError):
            unnikrishnan_test(x, y, 2, 0.1)


def test_enumeration_order_does_not_change_selected_pairs():
    # run the decision over a permuted copy of the space; the selected pair
    # set must be identical whenever the argmin is unique
    rng = np.random.default_rng(8)
    space = enumerate_space(4, 2, 2)
    for _ in range(20):
        cx = np.stack([rng.multinomial(200, p) for p in rng.dirichlet((2, 2), size=4)])
        cy = np.stack([rng.multinomial(100, p) for p in rng.dirichlet((2, 2), size=2)])
        table = gjs_table(cx.T[..., None], cy.T[..., None])
        scores = batch_scores(table, space)
        perm = rng.permutation(len(space))
        shuffled = scores[perm]
        l1, h1 = batch_known_k(scores)
        l2, h2 = batch_known_k(shuffled)
        assert h1[0] == pytest.approx(h2[0], abs=1e-14)
        assert (h1[0] > 0.01) == (h2[0] > 0.01)
        srt = np.sort(scores[:, 0])
        if srt[1] - srt[0] > 1e-12:  # unique argmin
            assert space[int(l1[0])].pairs == space[int(perm[l2[0]])].pairs


@pytest.mark.parametrize("test", ["unnikrishnan", "simple", "two_phase"])
def test_decisions_agree_on_count_and_float_tables(test):
    # one batch decided on the count kernel's table and on the float table
    # of the empirical types that it replaced: same k, assign and match
    rng = np.random.default_rng(31)
    tc = {
        "unnikrishnan": GlrtConfig(lam=0.01, k=2, type_correction=False),
        "simple": GlrtConfig(lam=0.01, type_correction=False),
        "two_phase": GlrtConfig(lambda1=0.03, lambda2=0.005, type_correction=False),
    }[test]
    seen = set()
    for size, n, alpha in ((2, 60, 2.0), (3, 200, 0.5), (4, 1000, 1.0)):
        b, big_n = 2000, round(alpha * n)
        p = rng.dirichlet(np.ones(size), size=4)
        cx = np.stack([rng.multinomial(big_n, p[i], size=b) for i in (0, 1, 2, 3)], axis=1)
        cy = np.stack([rng.multinomial(n, p[i], size=b) for i in (0, 2)], axis=1)
        oracle = np.moveaxis(gjs_table_oracle(cx / big_n, cy / n, big_n / n), 0, -1)
        table = gjs_table(cx.T, cy.T)
        want = glrt.decide(oracle, test, tc, n, big_n / n, size)
        got = glrt.decide(table, test, tc, n, big_n / n, size)
        for field in ("k", "assign", "match"):
            np.testing.assert_array_equal(getattr(got, field), getattr(want, field))
        seen.update(want.match.tolist())
    assert seen == {True, False}


@pytest.mark.parametrize("y_counts", [[0, 16, 1], [14, 57, 49], [42, 48, 11]])
def test_equal_types_tie_exactly_at_zero_threshold(y_counts):
    # both x rows hold y's type at twice its length: two K=1 hypotheses of
    # score exactly 0, a tie that a zero threshold rejects; a score of
    # rounding noise above 0 would accept
    d = np.array(y_counts)
    x = Database(np.stack([2 * d, 2 * d]), 2 * d.sum(), Alphabet(3))
    y = Database(d[None], d.sum(), Alphabet(3))
    v = unnikrishnan_test(x, y, 1, 0.0, type_correction=False)
    assert v.diagnostics["min_score"] == v.diagnostics["second_min_score"] == 0.0
    assert not v.is_match


def test_tied_run_picks_one_minimiser_on_both_paths():
    # all rows equal: each of the C(8,4)*4! = 1,680 4-matches sums the same
    # four values in some order, so every one is tied within TIE_REL, and
    # the sums differ in rounding; a batch of one runs the solver, a batch
    # of 256 enumerates, and both take the smallest sum
    row = np.random.default_rng(1).uniform(0.01, 0.05, 4)
    table = np.tile(row, (8, 1))[..., None]
    tc = GlrtConfig(lam=0.0, k=4)
    one = glrt.decide(table, "unnikrishnan", tc, 100, 1.0, 2)
    batch = glrt.decide(np.repeat(table, 256, axis=2), "unnikrishnan", tc, 100, 1.0, 2)
    assert hypotheses.t_count(8, 4, 4) <= hypotheses.ENUM_PER_TRIAL * 256
    assert (batch.assign == one.assign).all()
    assert (batch.min_score == one.min_score[0]).all()
    assert (batch.second_min_score == one.second_min_score[0]).all()


def test_tie_run_past_group_max_resolved_by_pair_fixing(monkeypatch):
    # all rows equal: each of the C(9,4)*4! = 3,024 4-matches sums the same
    # four values in some order, so every one is tied within TIE_REL
    row = np.random.default_rng(1).uniform(0.01, 0.05, 4)
    table = np.tile(row, (9, 1))[..., None]
    assert hypotheses.t_count(9, 4, 4) == 3024 > hypotheses.ENUM_MAX_T
    real = hypotheses._KMatches.lex_smallest
    calls = []

    def counted(self, bound):
        calls.append(bound)
        return real(self, bound)

    monkeypatch.setattr(hypotheses._KMatches, "lex_smallest", counted)
    d = glrt.decide(table, "unnikrishnan", GlrtConfig(lam=0.0, k=4), 100, 1.0, 2)
    assert len(calls) == 1
    assert glrt._hypothesis(d.assign[:, 0]).pairs == ((0, 0), (1, 1), (2, 2), (3, 3))
    assert d.min_score[0] == d.second_min_score[0]


class TestSimpleTest:
    def test_k1_matches_unnikrishnan_exactly(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(10, 40))
            x = db([rng.integers(0, 2, n).tolist() for _ in range(3)])
            y = db([rng.integers(0, 2, n).tolist()])
            lam = float(rng.uniform(0, 0.25))
            a = simple_test(x, y, lam)
            b = unnikrishnan_test(x, y, 1, lam)
            assert a.is_match == b.is_match
            if a.is_match:
                assert a.matched.pairs == b.matched.pairs

    def test_clean_separated_match(self):
        n = 80
        x = db([seq_of([n, 0]), seq_of([0, n]), seq_of([n // 2, n // 2])])
        y = db([seq_of([0, n]), seq_of([n, 0])])
        v = simple_test(x, y, 1e-3)
        assert v.is_match
        assert v.matched.pairs == ((0, 1), (1, 0))

    def test_inconsistent_assignment_flagged(self):
        n = 80
        x = db([seq_of([n, 0]), seq_of([0, n])])
        y = db([seq_of([n, 0]), seq_of([n - 1, 1])])  # both nearest to x_0
        v = simple_test(x, y, 1e-3)
        assert not v.is_match
        assert v.diagnostics.get("inconsistent_assignment")


class TestTwoPhase:
    def test_null_separated_rejects(self):
        n = 400
        x = db([seq_of([n, 0]), seq_of([0, n])])
        y = db([seq_of([n // 2, n // 2]), seq_of([3 * n // 4, n // 4])])
        v = two_phase_test(x, y, 0.01, 1e-3)
        assert not v.is_match
        assert v.diagnostics["estimated_k"] == 0

    def test_full_match_triggers_at_m2(self):
        n = 200
        rows = [seq_of([n // 4, 3 * n // 4]), seq_of([3 * n // 4, n // 4])]
        x = db(rows + [seq_of([n, 0])])
        y = db(rows)
        v = two_phase_test(x, y, 0.05, 1e-4)
        assert v.diagnostics["estimated_k"] == 2
        assert v.is_match
        assert v.matched.pairs == ((0, 0), (1, 1))

    def test_partial_match_estimates_k1(self):
        n = 2000
        x = db([seq_of([n // 10, n - n // 10]), seq_of([n, 0])])
        y = db([seq_of([n // 10, n - n // 10]), seq_of([n // 2, n // 2])])
        v = two_phase_test(x, y, 0.02, 1e-3)
        assert v.diagnostics["estimated_k"] == 1
        assert v.is_match
        assert v.matched.pairs == ((0, 0),)

    def test_threshold_k_switch_validated(self):
        with pytest.raises(InputError):
            GlrtConfig(lambda1=0.1, lambda2=0.1, threshold_k="bogus")

    def test_negative_threshold_rejected(self):
        x, y = clean_databases()
        with pytest.raises(InputError):
            two_phase_test(x, y, -0.1, 0.1)

    @pytest.mark.parametrize("name", ["lam", "lambda1", "lambda2"])
    def test_nan_threshold_rejected(self, name):
        with pytest.raises(InputError, match=f"threshold {name} must be >= 0"):
            GlrtConfig(**{name: math.nan})

    @pytest.mark.parametrize("value", ["0.013", True, 0.1 + 0j, [0.1]])
    @pytest.mark.parametrize("name", ["lam", "lambda1", "lambda2"])
    def test_threshold_must_be_a_real_number(self, name, value):
        with pytest.raises(InputError, match=f"threshold {name} must be >= 0 and a real number"):
            GlrtConfig(**{name: value})

    @pytest.mark.parametrize("k", ["1", 1.0, True, np.float64(2.0), np.bool_(True)])
    def test_k_must_be_an_integer(self, k):
        with pytest.raises(InputError, match="k must be an integer"):
            GlrtConfig(lam=0.1, k=k)

    def test_numpy_numbers_accepted(self):
        tc = GlrtConfig(lam=np.float64(0.1), lambda1=0, lambda2=np.int64(1), k=np.int64(2))
        tc.check("unnikrishnan", 2)


@lru_cache(maxsize=None)
def _space(m1, m2, k):
    return enumerate_space(m1, m2, k)


def oracle_step(table, steps, thresholds):
    """The first step khat whose minimal K-match score is at most its first
    threshold, by plain loops over every K-match of the (M1, M2) table:
    (khat, minimiser, minimal score, runner-up score, second threshold), or
    None when the scan exhausts. thresholds(khat) gives both thresholds."""
    for khat in steps:
        lam1_n, lam2_n = thresholds(khat)
        space = _space(*table.shape, khat)
        scores = [sum(table[i, j] for i, j in h.pairs) for h in space]
        best = min(scores)
        if best > lam1_n:
            continue
        l = scores.index(best)  # lowest index on ties
        return khat, space[l], best, min(scores[:l] + scores[l + 1:], default=math.inf), lam2_n
    return None


def oracle_verdict(x, y, test, lam1, lam2, k, type_correction, threshold_k):
    """The known-K (test "unnikrishnan", lam2 its threshold) or two-phase
    verdict by plain loops over every K-match, as a Verdict JSON dict."""
    m1, m2, n = len(x), len(y), y.seq_len
    a = x.seq_len / n

    def corrected(lam, kt):
        return effective_threshold(lam, kt, x.alphabet.size, n, a) if type_correction else lam

    def thresholds(khat):
        kt = m2 if test == "two_phase" and threshold_k == "m2" else khat
        return math.inf if test == "unnikrishnan" else corrected(lam1, kt), corrected(lam2, kt)

    steps = [k] if test == "unnikrishnan" else range(m2, 0, -1)
    found = oracle_step(gjs_table(x.counts.T, y.counts.T), steps, thresholds)
    if found is None:
        return Verdict(None, None, {"estimated_k": 0, "alpha_used": a}).to_json()
    khat, h, best, runner_up, lam2_n = found
    if test == "unnikrishnan":
        diag = {"min_score": best, "second_min_score": runner_up, "threshold": lam2_n,
                "alpha_used": a}
        if hypotheses.t_count(m1, m2, khat) == 1:
            diag["single_hypothesis"] = True
    else:
        diag = {"estimated_k": khat, "alpha_used": a, "min_score": best,
                "second_min_score": runner_up}
    if runner_up > lam2_n:
        return Verdict(h, khat, diag).to_json()
    return Verdict(None, None, diag).to_json()


def test_two_phase_matches_brute_force_oracle():
    # random small databases, a third with a repeated x row (argmin ties)
    # and, at alpha = 1, some with a y row copied from an x row (zero score)
    rng = np.random.default_rng(31)
    seen = set()
    for trial in range(90):
        s = int(rng.integers(2, 4))
        m1 = int(rng.integers(2, 5))
        m2 = int(rng.integers(1, min(m1, 3) + 1))
        n = int(rng.choice([60, 400, 3000]))
        alpha = 1.0 if trial % 2 else 2.0
        big_n = int(alpha * n)
        probs = rng.dirichlet(np.ones(s), size=m1 + m2)
        xs = [seq_of(rng.multinomial(big_n, probs[i])) for i in range(m1)]
        ys = [seq_of(rng.multinomial(n, probs[m1 + j])) for j in range(m2)]
        if trial % 3 == 0:
            xs[1] = list(xs[0])
        if trial % 4 == 1:
            ys[0] = list(xs[-1])
        x, y = db(xs, s), db(ys, s)
        lambda1 = float(rng.choice([0.0, 0.005, 0.02, 0.1]))
        lambda2 = float(rng.choice([0.0, 0.001, 0.01, 0.05]))
        for type_correction in (True, False):
            for threshold_k in ("khat", "m2"):
                got = two_phase_test(x, y, lambda1, lambda2, type_correction=type_correction,
                                     threshold_k=threshold_k).to_json()
                want = oracle_verdict(x, y, "two_phase", lambda1, lambda2, None,
                                      type_correction, threshold_k)
                assert got == want, (trial, type_correction, threshold_k)
                seen.add((type_correction, threshold_k, want["decision"],
                          want["diagnostics"]["estimated_k"] > 0))
    # every switch setting decided matches, rejects after an estimate, and
    # exhausted scans
    for type_correction in (True, False):
        for threshold_k in ("khat", "m2"):
            for outcome in (("match", True), ("reject", True), ("reject", False)):
                assert (type_correction, threshold_k) + outcome in seen


def test_solver_path_matches_brute_force_oracle(monkeypatch):
    # every decision takes the assignment-solver path; shapes cycle through
    # M2 = 1, M1 = M2 and general ones up to 7 x 5, with duplicate x rows
    # (ties), a y row copied from an x row (a zero score), both, or neither
    monkeypatch.setattr(hypotheses, "ENUM_PER_TRIAL", 0)
    rng = np.random.default_rng(47)
    seen = set()
    for trial in range(48):
        s = int(rng.integers(2, 4))
        if trial % 4 == 0:
            m1, m2 = int(rng.integers(1, 8)), 1
        elif trial % 4 == 1:
            m1 = m2 = int(rng.integers(2, 6))
        else:
            m1 = int(rng.integers(2, 8))
            m2 = int(rng.integers(1, min(m1, 5) + 1))
        n = int(rng.choice([40, 400, 3000]))
        alpha = 1.0 if trial % 2 else 2.0
        big_n = int(alpha * n)
        probs = rng.dirichlet(np.ones(s), size=m1 + m2)
        xs = [seq_of(rng.multinomial(big_n, probs[i])) for i in range(m1)]
        ys = [seq_of(rng.multinomial(n, probs[m1 + j])) for j in range(m2)]
        ties = (trial // 4) % 3
        if ties and m1 > 2:
            xs[1] = list(xs[0])
            if ties == 2:
                xs[-1] = list(xs[0])
        if trial % 3 == 1 and alpha == 1.0:
            ys[0] = list(xs[-1])
        x, y = db(xs, s), db(ys, s)
        lam1 = float(rng.choice([0.0, 0.005, 0.02, 0.1]))
        lam2 = float(rng.choice([0.0, 0.001, 0.01, 0.05]))
        for type_correction in (True, False):
            for k in sorted({1, m2, int(rng.integers(1, m2 + 1))}):
                got = unnikrishnan_test(x, y, k, lam2, type_correction=type_correction).to_json()
                want = oracle_verdict(x, y, "unnikrishnan", None, lam2, k, type_correction, None)
                assert got == want, (trial, "unnikrishnan", k, type_correction)
                seen.add(("unnikrishnan", k == m2, got["decision"]))
            for threshold_k in ("khat", "m2"):
                got = two_phase_test(x, y, lam1, lam2, type_correction=type_correction,
                                     threshold_k=threshold_k).to_json()
                want = oracle_verdict(x, y, "two_phase", lam1, lam2, None, type_correction,
                                      threshold_k)
                assert got == want, (trial, "two_phase", type_correction, threshold_k)
                seen.add(("two_phase", got["diagnostics"]["estimated_k"] > 0, got["decision"]))
    for outcome in ("match", "reject"):
        for full in (True, False):
            assert ("unnikrishnan", full, outcome) in seen
    assert {("two_phase", True, "match"), ("two_phase", True, "reject"),
            ("two_phase", False, "reject")} <= seen


@pytest.mark.parametrize("seed", [0, 2, 5])
def test_k8_solver_arm_matches_brute_force_oracle(seed):
    # 8 x 8 at K = 8: T = 40,320 > ENUM_MAX_T, so the solver decides, and
    # two pairs of equal x rows make tied runs whose sums differ in rounding.
    # The solver adds each run's scores left to right, as the plain loop does,
    # so both pick the same minimiser with the same minimum and runner-up
    assert hypotheses.t_count(8, 8, 8) > hypotheses.ENUM_MAX_T
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(3), size=16)
    xs = [seq_of(rng.multinomial(800, probs[i])) for i in range(8)]
    ys = [seq_of(rng.multinomial(400, probs[i])) for i in range(8)]
    xs[1], xs[5] = list(xs[0]), list(xs[4])
    x, y = db(xs, 3), db(ys, 3)
    for lam in (0.0, 0.01):
        got = unnikrishnan_test(x, y, 8, lam, type_correction=False).to_json()
        assert got == oracle_verdict(x, y, "unnikrishnan", None, lam, 8, False, None), lam


def _arm_calls(monkeypatch):
    """Count the enumerated steps and the ranked (trial, step)s of the K-match step."""
    calls = {"_enumerated_minima": 0, "_solve_step": 0}
    for name in calls:
        real = getattr(hypotheses, name)

        def counted(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(hypotheses, name, counted)
    return calls


def test_bench_shaped_chunk_enumerates(monkeypatch):
    # the README two-phase spec, 3 x 2: a chunk of 8,192 trials scans
    # 6 + 6 hypotheses per trial, so each of its steps enumerates
    from seqmatch.simulate import ProblemConfig, SimulationSpec, estimate_errors

    calls = _arm_calls(monkeypatch)
    p, q = (B(0.1), B(0.5), B(0.9)), (B(0.1), B(0.7))
    spec = SimulationSpec(
        ProblemConfig(3, 2, Alphabet(2), 2.0, 500), p, q, MatchHypothesis(((0, 0),)), "two_phase",
        GlrtConfig(lambda1=0.013, lambda2=0.001), 8192, 5, (500,),
    )
    estimate_errors(spec)
    assert calls == {"_enumerated_minima": 2, "_solve_step": 0}


def test_single_large_table_ranks(monkeypatch):
    # one 10 x 5 table (the `test` workload's shape) scans 63,590 hypotheses:
    # every step ranks, none enumerates; a zero threshold clears no step
    calls = _arm_calls(monkeypatch)
    table = np.random.default_rng(4).uniform(0.01, 0.1, (10, 5, 1))
    d = glrt.decide(table, "two_phase", GlrtConfig(lambda1=0.0, lambda2=0.0, type_correction=False), 1000, 2.0, 4)
    assert calls == {"_enumerated_minima": 0, "_solve_step": 5} and d.k[0] == 0


@pytest.mark.parametrize("head,equal,ties", [([[1.0] * 4], 9, 3024), ([], 6, 360)])
def test_ranked_minimum_tied_to_first_threshold_but_above_it(head, equal, ties):
    # dyadic entries, so every sum is exact. At K = 4 the least assignment
    # cost, 1.25, is tied within TIE_REL to lambda1 = 1.25 (1 - 1e-11) just
    # below it, so the solver scores the tied run of 4-matches over the
    # equal rows: 3,024 past ENUM_MAX_T by pair fixing, or 360 by the
    # gather. Both score 1.25 > lambda1, so K = 4 decides nothing, and the
    # scan decides at K = 3 as a plain loop does
    table = np.array(head + [[0.25, 0.5, 0.125, 0.375]] * equal)
    assert hypotheses.t_count(equal, 4, 4) == ties
    lam1, lam2 = 1.25 * (1 - 1e-11), 0.5
    tc = GlrtConfig(lambda1=lam1, lambda2=lam2, type_correction=False)
    d = glrt.decide(table[..., None], "two_phase", tc, 100, 1.0, 2)
    khat, h, best, runner_up, _ = oracle_step(table, range(4, 0, -1), lambda khat: (lam1, lam2))
    assert d.k[0] == khat == 3
    assert glrt._hypothesis(d.assign[:, 0]) == h
    assert (d.min_score[0], d.second_min_score[0]) == (best, runner_up)
    assert d.match[0] == (runner_up > lam2)


@pytest.mark.parametrize(
    "test,tc,what",
    [
        ("known_k", GlrtConfig(lam=0.1, k=1), "unknown test 'known_k'"),
        ("two_phase", GlrtConfig(lambda1=0.1), "two_phase test needs lambda2"),
        ("unnikrishnan", GlrtConfig(lam=0.1), "unnikrishnan test needs k"),
        ("simple", GlrtConfig(lambda1=0.1, lambda2=0.1), "simple test needs lam"),
        ("unnikrishnan", GlrtConfig(lam=0.1, k=3), "need 1 <= K <= M2"),
        (["two_phase"], GlrtConfig(lambda1=0.1, lambda2=0.1), r"unknown test \['two_phase'\]"),
    ],
)
def test_decide_checks_the_test_config(test, tc, what):
    with pytest.raises(InputError, match=what):
        glrt.decide(np.zeros((3, 2, 4)), test, tc, 100, 1.0, 2)


def test_identical_sequences_tie_resolved_without_enumeration():
    # T_15 = C(30, 15) * 15! K-matches all score 0: the tie rule picks the
    # lexicographically smallest pair list, in polynomial time, and a
    # runner-up equal to the threshold 0 rejects
    row = [0, 1, 1, 0, 1, 0]
    x, y = db([row] * 30), db([row] * 15)
    table = gjs_table(x.counts.T[..., None], y.counts.T[..., None])
    start = time.perf_counter()
    tc = GlrtConfig(lam=0.0, k=15, type_correction=False)
    d = glrt.decide(table, "unnikrishnan", tc, 6, 1.0, 2)
    elapsed = time.perf_counter() - start
    assert d.k[0] == 15
    assert d.assign[:, 0].tolist() == list(range(15))
    assert d.second_min_score[0] == d.min_score[0]
    assert not d.match[0]
    assert elapsed < 2.0


def test_full_chunk_of_large_spaces_takes_solver_path(monkeypatch):
    # a Monte Carlo chunk of 8,192 two-phase 10 x 5 trials scans a summed
    # T = 63,590 <= ENUM_PER_TRIAL * B hypotheses per trial; enumerating them
    # would gather 8,192 * 30,240 * 5 floats (9.9 GB), so the per-trial
    # ceiling must send every trial to the solver
    def no_enumeration(*args, **kwargs):
        raise AssertionError("the batch took the enumeration path")

    steps = []
    monkeypatch.setattr(hypotheses, "enumerate_space", no_enumeration)
    monkeypatch.setattr(hypotheses, "_solve_step", lambda table, k, level: steps.append(k))
    b = 8192
    tc = GlrtConfig(lambda1=0.01, lambda2=0.001)
    d = glrt.decide(np.zeros((10, 5, b)), "two_phase", tc, 1000, 2.0, 4)
    assert len(steps) == b * 5
    assert not d.k.any() and not d.match.any()


def test_verdict_json_round_trip():
    x, y = clean_databases()
    v = unnikrishnan_test(x, y, 1, 1e-4)
    j = v.to_json()
    assert j["decision"] == "match"
    assert j["pairs"] == [[0, 0]]
    assert j["k"] == 1
