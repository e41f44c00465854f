import math
import tracemalloc
from itertools import combinations, permutations

import numpy as np
import pytest

from seqmatch.core import CapacityError, InputError, MatchHypothesis
from seqmatch.hypotheses import HypothesisSpace, batch_scores, enumerate_space, pair_sums, t_count


def brute_force_pairsets(m1, m2, k):
    out = set()
    for a_sub in combinations(range(m1), k):
        for b_sub in combinations(range(m2), k):
            for perm in permutations(b_sub):
                out.add(tuple(sorted(zip(a_sub, perm))))
    return out


class TestCounts:
    def test_known_4_2_2(self):
        assert t_count(4, 2, 2) == 12
        assert len(enumerate_space(4, 2, 2)) == 12

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
    def test_single_column(self, m):
        space = enumerate_space(m, 1, 1)
        assert len(space) == m
        assert [h.pairs for h in space] == [((i, 0),) for i in range(m)]

    def test_3_2_1(self):
        assert len(enumerate_space(3, 2, 1)) == 6  # C(3,1)*C(2,1)*1!

    @pytest.mark.parametrize("m1,m2,k", [(4, 3, 2), (5, 4, 3), (6, 2, 1)])
    def test_matches_brute_force(self, m1, m2, k):
        space = enumerate_space(m1, m2, k)
        assert {h.pairs for h in space} == brute_force_pairsets(m1, m2, k)
        assert len(space) == t_count(m1, m2, k)

    def test_k_above_m2_rejected(self):
        with pytest.raises(InputError):
            enumerate_space(3, 2, 3)

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            enumerate_space(12, 12, 12)


class TestOrdering:
    def test_deterministic_and_sorted(self):
        space = enumerate_space(4, 3, 2)
        pair_lists = [h.pairs for h in space]
        assert pair_lists == sorted(pair_lists)
        again = enumerate_space(4, 3, 2)
        assert [h.pairs for h in again] == pair_lists

    def test_index_round_trip(self):
        space = enumerate_space(4, 2, 2)
        for l in range(len(space)):
            assert space.index_of(space[l]) == l

    def test_all_distinct(self):
        space = enumerate_space(5, 3, 2)
        assert len({h.pairs for h in space}) == len(space)

    def test_foreign_hypothesis_rejected(self):
        space = enumerate_space(3, 2, 1)
        with pytest.raises(InputError):
            space.index_of(MatchHypothesis(((0, 0), (1, 1))))

    def test_same_k_outside_space_rejected(self):
        space = enumerate_space(3, 2, 1)
        for pairs in (((3, 0),), ((0, 2),)):
            with pytest.raises(InputError):
                space.index_of(MatchHypothesis(pairs))
        for l in (-1, len(space)):
            with pytest.raises(InputError):
                space[l]


# every shape with M1 <= 6: 56 spaces, the largest (6x6, K = 4) of 5,400
SHAPES = [(m1, m2, k) for m1 in range(1, 7) for m2 in range(1, m1 + 1) for k in range(1, m2 + 1)]


@pytest.mark.parametrize("m1,m2,k", SHAPES)
def test_arrays_match_itertools_oracle(m1, m2, k):
    # the reference order: every sorted pair list, sorted lexicographically
    want = np.array(sorted(brute_force_pairsets(m1, m2, k))).reshape(-1, k, 2)
    space = enumerate_space(m1, m2, k)
    assert np.array_equal(space._xy, want)
    assert np.array_equal(space.pairs(np.arange(len(space))), want)
    for l in range(len(space)):
        assert space.index_of(space[l]) == l


class TestSpaceIsItsShape:
    def test_takes_no_index_arrays(self):
        rows = cols = np.zeros((12, 2), dtype=np.intp)
        with pytest.raises(TypeError):
            HypothesisSpace(4, 2, 2, rows, cols)
        with pytest.raises(InputError):
            HypothesisSpace(3, 2, 3)

    def test_equal_shapes_are_equal_spaces(self):
        built, enumerated = HypothesisSpace(4, 2, 2), enumerate_space(4, 2, 2)
        assert built == enumerated and hash(built) == hash(enumerated)
        assert built != HypothesisSpace(4, 2, 1)
        for t in range(len(enumerated)):
            assert np.array_equal(built.pairs(t), enumerated.pairs(t))
            assert built[t] == enumerated[t]

    def test_length_without_enumerating(self):
        tracemalloc.start()
        try:
            space = HypothesisSpace(20, 10, 10)
            assert len(space) == 670_442_572_800
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10_000
        with pytest.raises(CapacityError, match="T_K = 670442572800 exceeds ENUMERATE_MAX"):
            space[0]
        with pytest.raises(CapacityError):
            space.pairs(0)

    def test_past_an_index_sized_length_raises_capacity_error(self):
        # T_K ~ 5e21 > 2**63 - 1, where len() itself would overflow
        space = HypothesisSpace(30, 20, 12)
        assert t_count(30, 20, 12) >= 2**63
        for reach in (lambda: space[0], lambda: iter(space), lambda: space.pairs(0),
                      lambda: enumerate_space(30, 20, 12)):
            with pytest.raises(CapacityError, match=f"T_K = {t_count(30, 20, 12)} exceeds"):
                reach()


def test_enumeration_peak_memory():
    # T = 25,200 at 10x5, K = 4: each (T, K) index array takes 0.8 MB
    tracemalloc.start()
    try:
        enumerate_space(10, 5, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_full_b_set_when_k_equals_m2():
    space = enumerate_space(4, 2, 2)
    for h in space:
        assert h.b_set == {0, 1}



def _left_to_right(table, pairs):
    """Plain-Python oracle: each hypothesis's pair entries added left to
    right, one trial at a time, as Python floats."""
    out = np.empty(pairs.shape[:-2] + table.shape[2:])
    for t in np.ndindex(pairs.shape[:-2]):
        for b in np.ndindex(table.shape[2:]):
            (i, j), *rest = pairs[t].tolist()
            acc = float(table[(i, j) + b])
            for i, j in rest:
                acc = acc + float(table[(i, j) + b])
            out[t + b] = acc
    return out


@pytest.mark.parametrize("trials", [None, 1, 7, 9])
@pytest.mark.parametrize("k", range(1, 13))
def test_pair_sums_add_left_to_right_bitwise(k, trials):
    # entries over nine orders of magnitude, so that summation orders differ
    # in the last bits: every table shape sums as the plain loop does, also
    # at K >= 8, where numpy's own sum of a (T, K) gather is pairwise
    rng = np.random.default_rng(k)
    shape = (12, 12) if trials is None else (12, 12, trials)
    table = rng.exponential(1.0, shape) * 10.0 ** rng.integers(-6, 3, shape)
    pairs = np.stack([[rng.choice(12, k, replace=False) for _ in range(40)] for _ in "xy"], axis=-1)
    got = pair_sums(table, pairs)
    want = _left_to_right(table, pairs)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    # a single hypothesis, as a (K, 2) array and as a pair list
    for one in (pairs[0], [tuple(p) for p in pairs[0].tolist()]):
        assert np.asarray(pair_sums(table, one)).tobytes() == want[0].tobytes()
    if k <= 8 and trials in (None, 9):
        space = enumerate_space(8, 8, k) if k > 4 else enumerate_space(12, 6, k)
        pick = rng.choice(len(space), 30, replace=False)
        sub = table[: space.m1, : space.m2]
        assert batch_scores(sub, space)[pick].tobytes() == _left_to_right(sub, space.pairs(pick)).tobytes()


def test_batch_scores_hold_no_pair_axis():
    # a (T, K, B) gather would take K times the result; summing one pair place
    # at a time holds the result and one pair place's gather
    table = np.random.default_rng(3).uniform(size=(7, 5, 512))
    space = enumerate_space(7, 5, 5)
    batch_scores(table[..., :2], space)  # warm: the index arrays and numpy's caches
    tracemalloc.start()
    try:
        scores = batch_scores(table, space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert scores.shape == (2520, 512)
    assert peak <= 2.5 * scores.nbytes
