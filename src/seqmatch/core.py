"""Domain types shared across the library.

Alphabets are dense integer index sets 0..size-1; external symbol names are
mapped to indices by whoever produces the input files. A database is held
as its symbol counts only, since every test reads sequences through their
empirical types. All types here are immutable after construction and safe to
share across threads.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from numbers import Integral, Real
from typing import Iterable, Sequence

import numpy as np

SUM_TOL = 1e-12          # accepted deviation of a probability vector from sum 1
RENORM_TOL = 1e-9        # beyond SUM_TOL but within this: renormalize; else reject


class InputError(ValueError):
    """Invalid user-supplied configuration or data (CLI exit code 2)."""


class CapacityError(RuntimeError):
    """Requested enumeration exceeds the enumeration bound (CLI exit code 3)."""


class NumericError(ArithmeticError):
    """A numeric routine failed beyond its recovery budget (CLI exit code 3)."""


@dataclass(frozen=True)
class Alphabet:
    size: int

    def __post_init__(self):
        if not isinstance(self.size, (int, np.integer)) or self.size < 2:
            raise InputError(f"alphabet size must be an integer >= 2, got {self.size!r}")
        object.__setattr__(self, "size", int(self.size))


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Distribution:
    """Probability vector over a finite alphabet.

    Entries must be non-negative and sum to one within SUM_TOL; sums off by
    at most RENORM_TOL are renormalized, anything worse is rejected so badly
    scaled input does not get silently fixed.
    """

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64).copy()
        if p.ndim != 1 or p.size < 2:
            raise InputError("a distribution needs a 1-D vector of length >= 2")
        if np.any(p < 0):
            raise InputError(f"negative probability entry in {p!r}")
        s = float(p.sum())
        # written so that a NaN sum fails both checks
        if not abs(s - 1.0) <= SUM_TOL:
            if abs(s - 1.0) <= RENORM_TOL:
                p = p / s
            else:
                raise InputError(f"probabilities sum to {s!r}, not 1")
        object.__setattr__(self, "probs", _freeze(p))

    @property
    def size(self) -> int:
        return int(self.probs.size)

    @classmethod
    def bernoulli(cls, p: float) -> "Distribution":
        if not 0.0 <= p <= 1.0:
            raise InputError(f"Bernoulli parameter must be in [0, 1], got {p}")
        return cls(np.array([1.0 - p, p]))

    def __eq__(self, other) -> bool:
        return isinstance(other, Distribution) and np.array_equal(self.probs, other.probs)

    def __hash__(self):
        return hash(self.probs.tobytes())


def dists_equal(a: Distribution, b: Distribution, atol: float = 1e-12) -> bool:
    return a.size == b.size and bool(np.max(np.abs(a.probs - b.probs)) <= atol)


@dataclass(frozen=True)
class Database:
    """M same-length symbol sequences, held as their (M, |X|) symbol counts.

    Every test depends on a sequence only through its empirical type, so no
    sequence is kept: `counts[i, a]` is how often symbol a occurs in
    sequence i, and every row sums to `seq_len`.
    """

    counts: np.ndarray
    seq_len: int
    alphabet: Alphabet

    def __post_init__(self):
        c = np.asarray(self.counts)
        if c.dtype.kind not in "iu":
            raise InputError(f"counts must be integers, got dtype {c.dtype}")
        c = c.astype(np.int64)
        if c.ndim != 2 or c.shape[0] == 0:
            raise InputError("database needs a 2-D count matrix with at least one sequence")
        if c.shape[1] != self.alphabet.size:
            raise InputError(
                f"{c.shape[1]} count columns for an alphabet of size {self.alphabet.size}"
            )
        if np.any(c < 0):
            raise InputError("negative symbol count")
        if self.seq_len < 1 or np.any(c.sum(axis=1) != self.seq_len):
            raise InputError(f"every row of counts must sum to seq_len {self.seq_len} >= 1")
        object.__setattr__(self, "counts", _freeze(c))
        object.__setattr__(self, "seq_len", int(self.seq_len))

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]], alphabet: Alphabet | None = None) -> "Database":
        """Count the symbols of each row, one row at a time; no row is kept.
        Without `alphabet`, its size is the largest symbol + 1 (at least 2)."""
        counts = []
        for r in rows:
            a = np.asarray(r, dtype=np.int64)
            if a.ndim != 1 or a.size == 0:
                raise InputError("sequence must be a non-empty 1-D array of symbols")
            if counts and a.size != seq_len:
                raise InputError("all sequences in a database must share seq_len")
            seq_len = a.size
            if a.min() < 0 or (alphabet is not None and a.max() >= alphabet.size):
                raise InputError("symbol out of alphabet range")
            counts.append(np.bincount(a))
        if not counts:
            raise InputError("database needs at least one sequence")
        if alphabet is None:
            alphabet = Alphabet(max(2, max(c.size for c in counts)))
        m = np.zeros((len(counts), alphabet.size), dtype=np.int64)
        for i, c in enumerate(counts):
            m[i, :c.size] = c
        return cls(m, seq_len, alphabet)

    def __len__(self) -> int:
        return self.counts.shape[0]

    def type_matrix(self) -> np.ndarray:
        """Empirical distributions stacked as a (M, |X|) float matrix."""
        return self.counts / self.seq_len


@dataclass(frozen=True)
class MatchHypothesis:
    """A K-match: a bijection between K x-indices and K y-indices.

    Stored as the sorted tuple of (i, j) pairs; the (A, B, sigma) view is
    derived. Pair indices are 0-based.
    """

    pairs: tuple

    def __post_init__(self):
        ps = tuple(sorted((int(i), int(j)) for i, j in self.pairs))
        if not ps:
            raise InputError("a match hypothesis needs at least one pair")
        xs = [i for i, _ in ps]
        ys = [j for _, j in ps]
        if len(set(xs)) != len(xs) or len(set(ys)) != len(ys):
            raise InputError(f"pairs {ps} are not a bijection (repeated index)")
        if min(xs) < 0 or min(ys) < 0:
            raise InputError("negative index in match pairs")
        object.__setattr__(self, "pairs", ps)

    @property
    def k(self) -> int:
        return len(self.pairs)

    @property
    def a_set(self) -> frozenset:
        return frozenset(i for i, _ in self.pairs)

    @property
    def b_set(self) -> frozenset:
        return frozenset(j for _, j in self.pairs)

    @property
    def sigma(self) -> dict:
        return {i: j for i, j in self.pairs}

    @property
    def sigma_inv(self) -> dict:
        return {j: i for i, j in self.pairs}

    def to_json(self) -> list:
        return [[i, j] for i, j in self.pairs]


def check_alpha(alpha: float) -> None:
    """The sequence-length ratio alpha = N/n must be finite and > 0."""
    if not 0 < alpha < math.inf:
        raise InputError(f"alpha must be finite and > 0, got {alpha}")


def check_length(n: int) -> None:
    """A sequence length n must be a Python or numpy integer (not a bool) >= 1,
    checked by type: the ABC check of Integral costs a fifth of a memo hit of `analyze`."""
    if (type(n) is not int and not isinstance(n, np.integer)) or n < 1:
        raise InputError(f"n must be >= 1 and an integer, got {n!r}")


def check_lengths(n: int, big_n: int) -> None:
    """The lengths n and N of a finite-n bound must each pass check_length."""
    try:
        check_length(n)
        check_length(big_n)
    except InputError:
        raise InputError(f"n and N must be >= 1 and integers, got n = {n!r}, N = {big_n!r}") from None


def x_length(n: int, alpha: float) -> int:
    """N = round(n*alpha), the x-sequence length at y-length n; a draw takes
    it as a 64-bit integer, so it must be finite and below 2**63."""
    if not n * alpha < 2.0**63:
        raise InputError(f"N = round(n*alpha) = {n * alpha} at n = {n} is not below 2**63")
    return int(round(n * alpha))


@dataclass(frozen=True)
class ProblemConfig:
    """Problem sizes and the sequence-length ratio alpha = N/n. N is
    round(n*alpha), which must be >= 1 at this n; code that draws or scores
    at another n rounds N there itself."""

    m1: int
    m2: int
    alphabet: Alphabet
    alpha: float
    n: int

    def __post_init__(self):
        if self.m1 < self.m2 or self.m2 < 1:
            raise InputError(f"need M1 >= M2 >= 1, got M1={self.m1}, M2={self.m2}")
        check_alpha(self.alpha)
        check_length(self.n)
        big_n = x_length(self.n, self.alpha)
        if big_n < 1:
            raise InputError(f"N = round(n*alpha) = {big_n} must be >= 1")


# ---------------------------------------------------------------------------
# dists.json loading: {"alphabet_size": k, "P": [...], "Q": [...]} where each
# entry is either an explicit probability vector or the Bernoulli shorthand
# {"bern": p} (expands to [1-p, p]).
# ---------------------------------------------------------------------------

def parse_dist_entry(entry, alphabet_size: int | None = None) -> Distribution:
    if isinstance(entry, dict):
        if set(entry.keys()) != {"bern"}:
            raise InputError(f"unrecognized distribution entry {entry!r}")
        if alphabet_size not in (None, 2):
            raise InputError("Bernoulli shorthand requires alphabet_size 2")
        bern = entry["bern"]
        if isinstance(bern, bool) or not isinstance(bern, Real):
            raise InputError(f"Bernoulli parameter bern must be a real number, got {bern!r}")
        return Distribution.bernoulli(float(bern))
    try:
        numeric = np.asarray(entry).dtype.kind in "iuf"
    except ValueError:  # a ragged nesting
        numeric = False
    if not numeric:
        raise InputError(f"distribution entry must be a list of numbers or {{\"bern\": p}}, got {entry!r}")
    d = Distribution(np.asarray(entry, dtype=np.float64))
    if alphabet_size is not None and d.size != alphabet_size:
        raise InputError(
            f"distribution length {d.size} != alphabet_size {alphabet_size}"
        )
    return d


def load_dists(obj) -> tuple[Alphabet, list[Distribution], list[Distribution]]:
    """Parse a dists config (dict, JSON string, or path to a JSON file); a string
    that names an existing file is that file, even if it is also JSON (`123`)."""
    if isinstance(obj, (str, bytes)):
        try:
            if os.path.isfile(obj):
                with open(obj) as fh:
                    obj = json.load(fh)
            else:
                obj = json.loads(obj)
        except (OSError, json.JSONDecodeError) as exc:
            raise InputError(f"cannot parse dists config: {exc}") from exc
    if not isinstance(obj, dict) or "P" not in obj or "Q" not in obj:
        raise InputError('dists config must be an object with "P" and "Q" lists')
    size = obj.get("alphabet_size")
    if size is not None and (isinstance(size, bool) or not isinstance(size, Integral)):
        raise InputError(f"alphabet_size must be an integer, got {size!r}")
    if not isinstance(obj["P"], list) or not isinstance(obj["Q"], list):
        raise InputError(f"P and Q must be lists, got {type(obj['P']).__name__} and {type(obj['Q']).__name__}")
    p_list = [parse_dist_entry(e, size) for e in obj["P"]]
    q_list = [parse_dist_entry(e, size) for e in obj["Q"]]
    if not p_list or not q_list:
        raise InputError("P and Q must be non-empty")
    sizes = {d.size for d in p_list} | {d.size for d in q_list}
    if len(sizes) != 1:
        raise InputError(f"distributions disagree on alphabet size: {sorted(sizes)}")
    return Alphabet(sizes.pop()), p_list, q_list
