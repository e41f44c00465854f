import math
from itertools import combinations, permutations

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
        assert [h.pairs for h in space.hypotheses] == [((i, 0),) for i in range(m)]

    def test_3_2_1(self):
        assert enumerate_space(3, 2, 1).count == 6  # C(3,1)*C(2,1)*1!

    @pytest.mark.parametrize("m1,m2,k", [(4, 3, 2), (5, 4, 3), (6, 2, 1)])
    def test_matches_brute_force(self, m1, m2, k):
        space = enumerate_space(m1, m2, k)
        assert {h.pairs for h in space.hypotheses} == brute_force_pairsets(m1, m2, k)
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
        pair_lists = [h.pairs for h in space.hypotheses]
        assert pair_lists == sorted(pair_lists)
        again = enumerate_space(4, 3, 2)
        assert [h.pairs for h in again.hypotheses] == pair_lists

    def test_index_round_trip(self):
        space = enumerate_space(4, 2, 2)
        for l in range(space.count):
            assert space.index_of(space[l]) == l

    def test_all_distinct(self):
        space = enumerate_space(5, 3, 2)
        assert len({h.pairs for h in space.hypotheses}) == space.count

    def test_foreign_hypothesis_rejected(self):
        space = enumerate_space(3, 2, 1)
        with pytest.raises(InputError):
            space.index_of(MatchHypothesis(((0, 0), (1, 1))))


def test_full_b_set_when_k_equals_m2():
    space = enumerate_space(4, 2, 2)
    for h in space.hypotheses:
        assert h.b_set == {0, 1}


class TestSetOps:
    def test_identical(self):
        h = MatchHypothesis(((0, 0), (1, 1)))
        inter, diff = h.intersection(h), h.difference(h)
        assert inter == {(0, 0), (1, 1)}
        assert diff == frozenset()

    def test_worked_example(self):
        a = MatchHypothesis(((0, 0), (1, 1)))
        b = MatchHypothesis(((0, 0), (2, 1)))
        inter, diff = a.intersection(b), a.difference(b)
        assert inter == {(0, 0)}
        assert diff == {(1, 1)}

    def test_against_naive_sets(self):
        space = enumerate_space(4, 2, 2)
        for a in space.hypotheses[::3]:
            for b in space.hypotheses[::4]:
                inter, diff = a.intersection(b), a.difference(b)
                assert inter == set(a.pairs) & set(b.pairs)
                assert diff == set(a.pairs) - set(b.pairs)
