import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from seqmatch.core import (
    Alphabet,
    Database,
    Distribution,
    InputError,
    MatchHypothesis,
    ProblemConfig,
    load_dists,
)


def test_alphabet_rejects_size_one():
    with pytest.raises(InputError):
        Alphabet(1)


class TestDistribution:
    def test_valid(self):
        d = Distribution(np.array([0.3, 0.7]))
        assert d.size == 2
        assert not d.probs.flags.writeable

    def test_negative_rejected(self):
        with pytest.raises(InputError):
            Distribution(np.array([-0.1, 1.1]))

    def test_renormalize_within_tolerance(self):
        d = Distribution(np.array([0.5, 0.5 + 5e-10]))
        assert d.probs.sum() == pytest.approx(1.0, abs=1e-15)

    def test_badly_scaled_rejected(self):
        with pytest.raises(InputError):
            Distribution(np.array([0.5, 0.6]))

    @pytest.mark.parametrize("probs", [[math.nan, 1.0], [0.5, math.nan], [math.nan, math.nan], [math.inf, 0.0]])
    def test_non_finite_rejected(self, probs):
        with pytest.raises(InputError, match="sum to"):
            Distribution(np.array(probs))

    @pytest.mark.parametrize("probs", [[1.0], [[0.5, 0.5]]], ids=["one_entry", "not_1d"])
    def test_shape_rejected(self, probs):
        with pytest.raises(InputError, match="1-D vector of length >= 2"):
            Distribution(np.array(probs))

    def test_bernoulli(self):
        d = Distribution.bernoulli(0.2)
        assert d.probs[0] == pytest.approx(0.8)
        assert d.probs[1] == pytest.approx(0.2)

    @pytest.mark.parametrize("p", [-0.1, 1.5, math.nan])
    def test_bernoulli_outside_unit_interval_rejected(self, p):
        with pytest.raises(InputError, match=r"Bernoulli parameter must be in \[0, 1\]"):
            Distribution.bernoulli(p)


class TestEmpiricalType:
    """Rows of a database's type matrix are the empirical types of its
    sequences: counts over the sequence length."""

    def test_basic_count(self):
        db = Database.from_rows([[0, 1, 1, 0]], Alphabet(2))
        assert db.counts.tolist() == [[2, 2]]
        assert db.type_matrix().tolist() == [[0.5, 0.5]]

    def test_degenerate(self):
        db = Database.from_rows([[0, 0, 0]], Alphabet(2))
        assert db.counts.tolist() == [[3, 0]]
        assert db.type_matrix().tolist() == [[1.0, 0.0]]

    def test_hand_count(self):
        seq = [0, 0, 1, 0, 1, 1, 1, 0, 1, 1]
        db = Database.from_rows([seq], Alphabet(2))
        assert db.type_matrix()[0].tolist() == pytest.approx([0.4, 0.6])

    def test_symbol_out_of_range(self):
        with pytest.raises(InputError):
            Database.from_rows([[0, 2]], Alphabet(2))

    def test_counts_must_sum(self):
        with pytest.raises(InputError):
            Database(np.array([[1, 1]]), 3, Alphabet(2))

    @given(
        st.lists(st.integers(0, 3), min_size=1, max_size=50),
        st.lists(st.integers(0, 3), min_size=1, max_size=50),
    )
    def test_concatenation_property(self, s1, s2):
        a = Alphabet(4)
        c1 = Database.from_rows([s1], a).counts[0]
        c2 = Database.from_rows([s2], a).counts[0]
        cc = Database.from_rows([s1 + s2], a).counts[0]
        assert list(cc) == list(c1 + c2)

    @given(st.lists(st.integers(0, 4), min_size=1, max_size=80))
    def test_type_is_valid_distribution(self, seq):
        row = Database.from_rows([seq], Alphabet(5)).type_matrix()[0]
        d = Distribution(row)
        assert d.probs.min() >= 0
        assert d.probs.sum() == pytest.approx(1.0, abs=1e-12)


class TestDatabase:
    def test_ragged_rejected(self):
        with pytest.raises(InputError):
            Database.from_rows([[0, 1], [0, 1, 1]], Alphabet(2))

    def test_from_rows_infers_alphabet(self):
        db = Database.from_rows([[0, 2, 1], [1, 1, 0]])
        assert db.alphabet.size == 3
        assert db.seq_len == 3
        assert len(db) == 2

    def test_type_matrix(self):
        db = Database.from_rows([[0, 1, 1, 1], [0, 0, 0, 1]], Alphabet(2))
        m = db.type_matrix()
        assert m.tolist() == [[0.25, 0.75], [0.75, 0.25]]

    def test_holds_counts_only(self):
        db = Database.from_rows(iter([[0, 1, 1], [2, 2, 0]]), Alphabet(3))
        assert [f.name for f in dataclasses.fields(Database)] == ["counts", "seq_len", "alphabet"]
        assert db.counts.tolist() == [[1, 2, 0], [1, 0, 2]]
        assert not db.counts.flags.writeable

    @pytest.mark.parametrize(
        "rows",
        [[], [[]], [[[0, 1]]], [[0, -1]]],
        ids=["no_rows", "empty_row", "row_not_1d", "negative_symbol"],
    )
    def test_from_rows_rejects(self, rows):
        with pytest.raises(InputError):
            Database.from_rows(rows, Alphabet(2))

    @pytest.mark.parametrize(
        "counts,seq_len",
        [
            (np.array([2, 1]), 3),
            (np.zeros((0, 2), dtype=np.int64), 3),
            (np.array([[2, 1, 0]]), 3),
            (np.array([[4, -1]]), 3),
            (np.array([[0, 0]]), 0),
            (np.array([[1.5, 1.5]]), 3),
        ],
        ids=["not_2d", "no_rows", "extra_column", "negative", "zero_length", "not_integer"],
    )
    def test_counts_rejected(self, counts, seq_len):
        with pytest.raises(InputError):
            Database(counts, seq_len, Alphabet(2))


class TestMatchHypothesis:
    def test_views(self):
        h = MatchHypothesis(((2, 0), (0, 1)))
        assert h.pairs == ((0, 1), (2, 0))
        assert h.k == 2
        assert h.a_set == {0, 2}
        assert h.b_set == {0, 1}
        assert h.sigma == {0: 1, 2: 0}
        assert h.sigma_inv == {1: 0, 0: 2}

    def test_rejects_repeated_index(self):
        with pytest.raises(InputError):
            MatchHypothesis(((0, 0), (0, 1)))
        with pytest.raises(InputError):
            MatchHypothesis(((0, 0), (1, 0)))

    @pytest.mark.parametrize("pairs,what", [((), "at least one pair"), (((-1, 0),), "negative")])
    def test_rejects_empty_and_negative(self, pairs, what):
        with pytest.raises(InputError, match=what):
            MatchHypothesis(pairs)


class TestProblemConfig:
    @pytest.mark.parametrize("alpha", [math.nan, math.inf, 0.0, -1.0])
    def test_alpha_must_be_finite_and_positive(self, alpha):
        with pytest.raises(InputError, match="alpha must be finite and > 0"):
            ProblemConfig(3, 2, Alphabet(2), alpha, 10)

    def test_m1_ge_m2(self):
        with pytest.raises(InputError):
            ProblemConfig(2, 3, Alphabet(2), 1.0, 10)

    @pytest.mark.parametrize("n,alpha,what", [
        (0, 1.0, "n must be >= 1"), (math.nan, 1.0, "n must be >= 1"),
        (2.5, 1.0, "n must be >= 1"), (True, 1.0, "n must be >= 1"), (1, 0.4, "N = round"),
        (10, 1e308, "N = round.* = inf at n = 10 is not below 2\\*\\*63"),
        (10, 1e18, "is not below 2\\*\\*63"),
    ])
    def test_n_and_big_n_rejected(self, n, alpha, what):
        with pytest.raises(InputError, match=what):
            ProblemConfig(3, 2, Alphabet(2), alpha, n)


class TestLoadDists:
    def test_bern_shorthand_and_vectors(self):
        alphabet, p, q = load_dists(
            {"alphabet_size": 2, "P": [{"bern": 0.3}, [0.5, 0.5]], "Q": [{"bern": 0.9}]}
        )
        assert alphabet.size == 2
        assert p[0].probs[1] == pytest.approx(0.3)
        assert q[0].probs[0] == pytest.approx(0.1)

    def test_mixed_sizes_rejected(self):
        with pytest.raises(InputError):
            load_dists({"P": [[0.5, 0.5]], "Q": [[0.2, 0.3, 0.5]]})

    def test_bern_requires_binary(self):
        with pytest.raises(InputError):
            load_dists({"alphabet_size": 3, "P": [{"bern": 0.5}], "Q": [[0.2, 0.3, 0.5]]})

    @pytest.mark.parametrize(
        "obj,what",
        [
            ("no-such-file.json", "cannot parse dists config"),
            ({"P": [[0.5, 0.5]]}, 'with "P" and "Q" lists'),
            ([[0.5, 0.5]], 'with "P" and "Q" lists'),
            ({"P": [], "Q": [[0.5, 0.5]]}, "must be non-empty"),
            ({"P": [[0.5, 0.5]], "Q": [[0.2, 0.3, 0.5]]}, "disagree on alphabet size"),
            ({"P": [{"p": 0.5}], "Q": [[0.5, 0.5]]}, "unrecognized distribution entry"),
            ({"alphabet_size": 3, "P": [[0.5, 0.5]], "Q": [[0.5, 0.5]]}, "!= alphabet_size 3"),
            ({"alphabet_size": "2", "P": [{"bern": 0.5}], "Q": [[0.5, 0.5]]}, "alphabet_size must be an integer, got '2'"),
            ({"alphabet_size": True, "P": [[0.5, 0.5]], "Q": [[0.5, 0.5]]}, "alphabet_size must be an integer, got True"),
            ({"P": "ab", "Q": [[0.5, 0.5]]}, "P and Q must be lists, got str and list"),
            ({"P": [[0.5, 0.5]], "Q": {"bern": 0.5}}, "P and Q must be lists, got list and dict"),
            ({"P": [{"bern": "x"}], "Q": [[0.5, 0.5]]}, "bern must be a real number, got 'x'"),
            ({"P": [{"bern": True}], "Q": [[0.5, 0.5]]}, "bern must be a real number, got True"),
            ({"P": [["0.8", "0.2"]], "Q": [[0.5, 0.5]]}, "entry must be a list of numbers"),
            ({"P": [[False, True]], "Q": [[0.5, 0.5]]}, "entry must be a list of numbers"),
            ({"P": [[0.5, None]], "Q": [[0.5, 0.5]]}, "entry must be a list of numbers"),
            ({"P": [[[0.5], 0.5]], "Q": [[0.5, 0.5]]}, "entry must be a list of numbers"),
        ],
        ids=["unparsable", "no_q", "not_an_object", "empty_p", "sizes_disagree",
             "unknown_entry", "length_not_alphabet_size", "size_string", "size_bool",
             "p_string", "q_object", "bern_string", "bern_bool", "vector_strings",
             "vector_bools", "vector_null", "vector_ragged"],
    )
    def test_rejected(self, obj, what):
        with pytest.raises(InputError, match=what):
            load_dists(obj)

    def test_json_string(self):
        alphabet, p, q = load_dists('{"P": [[0.25, 0.75]], "Q": [[0.75, 0.25]]}')
        assert alphabet.size == 2
