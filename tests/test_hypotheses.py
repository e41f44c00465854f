import math
import tracemalloc
from itertools import combinations, permutations

import numpy as np
import pytest

from seqmatch.core import CapacityError, InputError, MatchHypothesis
from seqmatch.hypotheses import enumerate_space, t_count


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
        assert enumerate_space(4, 2, 2).count == 12

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
    def test_single_column(self, m):
        space = enumerate_space(m, 1, 1)
        assert space.count == m
        assert [h.pairs for h in space] == [((i, 0),) for i in range(m)]

    def test_3_2_1(self):
        assert enumerate_space(3, 2, 1).count == 6  # C(3,1)*C(2,1)*1!

    @pytest.mark.parametrize("m1,m2,k", [(4, 3, 2), (5, 4, 3), (6, 2, 1)])
    def test_matches_brute_force(self, m1, m2, k):
        space = enumerate_space(m1, m2, k)
        assert {h.pairs for h in space} == brute_force_pairsets(m1, m2, k)
        assert space.count == t_count(m1, m2, k)

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
        for l in range(space.count):
            assert space.index_of(space[l]) == l

    def test_all_distinct(self):
        space = enumerate_space(5, 3, 2)
        assert len({h.pairs for h in space}) == space.count

    def test_foreign_hypothesis_rejected(self):
        space = enumerate_space(3, 2, 1)
        with pytest.raises(InputError):
            space.index_of(MatchHypothesis(((0, 0), (1, 1))))

    def test_same_k_outside_space_rejected(self):
        space = enumerate_space(3, 2, 1)
        for pairs in (((3, 0),), ((0, 2),)):
            with pytest.raises(InputError):
                space.index_of(MatchHypothesis(pairs))
        for l in (-1, space.count):
            with pytest.raises(InputError):
                space[l]


# every shape with M1 <= 6: 56 spaces, the largest (6x6, K = 4) of 5,400
SHAPES = [(m1, m2, k) for m1 in range(1, 7) for m2 in range(1, m1 + 1) for k in range(1, m2 + 1)]


@pytest.mark.parametrize("m1,m2,k", SHAPES)
def test_arrays_match_itertools_oracle(m1, m2, k):
    # the reference order: every sorted pair list, sorted lexicographically
    want = np.array(sorted(brute_force_pairsets(m1, m2, k))).reshape(-1, k, 2)
    space = enumerate_space(m1, m2, k)
    assert np.array_equal(space.rows, want[..., 0])
    assert np.array_equal(space.cols, want[..., 1])
    for l in range(space.count):
        assert space.index_of(space[l]) == l


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

