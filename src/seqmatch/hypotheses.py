"""Enumeration and indexing of K-match hypothesis spaces.

The space of K-matches between databases of sizes (M1, M2) has
T_K = C(M1,K) * C(M2,K) * K! elements. Enumeration order is the
lexicographic order of the sorted pair lists, so hypothesis indices are
stable across runs and platforms.

The exponent and second-order analyses index hypotheses in this order, and
`enumerate_space` is bounded by a cap. The tests enumerate only tiny spaces
scored over a batch of trials; otherwise `glrt` finds the minimal and
runner-up K-matches by assignment without materialising the space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations, permutations

from .core import CapacityError, InputError, MatchHypothesis

DEFAULT_CAP = 10**6


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
    hypotheses: tuple
    _index: dict = field(repr=False)

    @property
    def count(self) -> int:
        return len(self.hypotheses)

    def __len__(self) -> int:
        return len(self.hypotheses)

    def __getitem__(self, l: int) -> MatchHypothesis:
        if not 0 <= l < len(self.hypotheses):
            raise InputError(f"hypothesis index {l} outside [0, {len(self.hypotheses)})")
        return self.hypotheses[l]

    def __iter__(self):
        return iter(self.hypotheses)

    def index_of(self, h: MatchHypothesis) -> int:
        try:
            return self._index[h.pairs]
        except KeyError:
            raise InputError(f"hypothesis {h.pairs} not in space (M1={self.m1}, M2={self.m2}, K={self.k})")


def enumerate_space(m1: int, m2: int, k: int, cap: int = DEFAULT_CAP) -> HypothesisSpace:
    """Materialize all T_K hypotheses in deterministic lexicographic order."""
    total = t_count(m1, m2, k)
    if total > cap:
        raise CapacityError(
            f"T_K = {total} exceeds enumeration cap {cap} for (M1={m1}, M2={m2}, K={k})"
        )
    out = []
    for a_sub in combinations(range(m1), k):
        for b_sub in combinations(range(m2), k):
            for perm in permutations(b_sub):
                out.append(tuple(sorted(zip(a_sub, perm))))
    out = sorted(set(out))
    assert len(out) == total
    hyps = tuple(MatchHypothesis(p) for p in out)
    index = {h.pairs: l for l, h in enumerate(hyps)}
    return HypothesisSpace(m1, m2, k, hyps, index)
