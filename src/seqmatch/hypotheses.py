"""Enumeration and indexing of K-match hypothesis spaces.

The space of K-matches between databases of sizes (M1, M2) has
T_K = C(M1,K) * C(M2,K) * K! elements. Enumeration order is the
lexicographic order of the sorted pair lists, so hypothesis indices are
stable across runs and platforms.

The exponent and second-order analyses index hypotheses in this order, and
`enumerate_space` lists at most ENUMERATE_MAX of them. A space is its
(T_K, K) index arrays, so one gather over an (M1, M2) table scores every
hypothesis (`glrt.batch_scores`); indexing or iterating it builds each
`MatchHypothesis` on access. The tests enumerate only tiny spaces scored
over a batch of trials; otherwise `glrt` finds the minimal and runner-up
K-matches by assignment without materialising the space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations, permutations

import numpy as np

from .core import CapacityError, InputError, MatchHypothesis

# the largest space `enumerate_space` materializes
ENUMERATE_MAX = 10**6


def t_count(m1: int, m2: int, k: int) -> int:
    """T_K = C(M1,K)*C(M2,K)*K! without enumerating."""
    if not 1 <= k <= m2 <= m1:
        raise InputError(f"need 1 <= K <= M2 <= M1, got K={k}, M2={m2}, M1={m1}")
    return math.comb(m1, k) * math.comb(m2, k) * math.factorial(k)


@dataclass(frozen=True)
class HypothesisSpace:
    m1: int
    m2: int
    k: int
    # (T_K, K) x- and y-indices of each hypothesis's pairs, in pair order
    rows: np.ndarray = field(repr=False, compare=False)
    cols: np.ndarray = field(repr=False, compare=False)

    @property
    def count(self) -> int:
        return len(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, l: int) -> MatchHypothesis:
        if not 0 <= l < len(self.rows):
            raise InputError(f"hypothesis index {l} outside [0, {len(self.rows)})")
        return MatchHypothesis(tuple(zip(self.rows[l].tolist(), self.cols[l].tolist())))

    def __iter__(self):
        return map(self.__getitem__, range(len(self.rows)))

    def index_of(self, h: MatchHypothesis) -> int:
        if h.k == self.k:
            i, j = np.array(h.pairs).T
            hit = np.flatnonzero(((self.rows == i) & (self.cols == j)).all(axis=1))
            if hit.size:
                return int(hit[0])
        raise InputError(f"hypothesis {h.pairs} not in space (M1={self.m1}, M2={self.m2}, K={self.k})")


def enumerate_space(m1: int, m2: int, k: int) -> HypothesisSpace:
    """Materialize all T_K hypotheses in deterministic lexicographic order;
    CapacityError when T_K exceeds ENUMERATE_MAX."""
    total = t_count(m1, m2, k)
    if total > ENUMERATE_MAX:
        raise CapacityError(
            f"T_K = {total} exceeds ENUMERATE_MAX = {ENUMERATE_MAX} for (M1={m1}, M2={m2}, K={k})"
        )
    xs = np.array(list(combinations(range(m1), k)), dtype=np.intp)
    ys = np.array(list(permutations(range(m2), k)), dtype=np.intp)
    rows, cols = np.repeat(xs, len(ys), axis=0), np.tile(ys, (len(xs), 1))
    # every x-subset against every ordered y-tuple, sorted by the pair list
    # (i1, j1, i2, j2, ...); lexsort's last key is the primary one
    order = np.lexsort([a[:, c] for c in reversed(range(k)) for a in (cols, rows)])
    rows, cols = rows[order], cols[order]
    rows.flags.writeable = cols.flags.writeable = False
    return HypothesisSpace(m1, m2, k, rows, cols)
