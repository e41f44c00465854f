"""K-match hypothesis spaces: enumeration, indexing, scoring and ranking.

The space of K-matches between databases of sizes (M1, M2) has
T_K = C(M1,K) * C(M2,K) * K! elements. Enumeration order is the
lexicographic order of the sorted pair lists, so hypothesis indices are
stable across runs and platforms. A `HypothesisSpace` is the value
(M1, M2, K). It lists at most ENUMERATE_MAX hypotheses as a (T_K, K, 2)
pair array, which only this module reads. A score is `pair_sums`: the
pairs' table entries added left to right.

`kmatch_minima` is the K-match step of the tests: the minimal and runner-up
K-match scores of each trial of a batch of tables. It enumerates the step's
space when the call's spaces are small for the batch, or else ranks the
K-matches of each table by min-cost assignment (Crouse 2016, scipy's
`linear_sum_assignment`) and Murty's (1968) ranked assignment. Costs within
TIE_REL are tied; a tied run is scored and keeps the enumeration's tie
rule: the lexicographically smallest minimiser wins.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import chain, combinations, permutations

import numpy as np
from scipy.optimize import linear_sum_assignment

from .core import CapacityError, InputError, MatchHypothesis

# the largest space whose index arrays are built
ENUMERATE_MAX = 10**6
# a call enumerates the spaces it scans when they hold at most ENUM_MAX_T
# hypotheses in all and ENUM_PER_TRIAL per trial, else each trial runs the
# solver. For one trial, enumeration was measured faster up to 6 hypotheses,
# the solver from 12; at B = 1,024 the solver caught up between summed
# T = 1,960 and 3,392, where a full 7 x 4 chunk (summed T = 1,960) peaks at
# 166 MB traced. A tied run is scored up to ENUM_MAX_T, so ranking and
# enumeration agree on every table; a longer one is resolved by pair fixing
ENUM_MAX_T, ENUM_PER_TRIAL = 2048, 8
# costs within this relative distance may order differently once summed in
# floating point, so the solver scores all of them as the enumeration would
TIE_REL = 1e-9


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

    def __post_init__(self):
        t_count(self.m1, self.m2, self.k)

    def __len__(self) -> int:
        return t_count(self.m1, self.m2, self.k)

    @functools.cached_property
    def _xy(self) -> np.ndarray:
        """(T_K, K, 2) (x, y) pairs of each hypothesis, in pair order."""
        m1, m2, k = self.m1, self.m2, self.k
        if (total := t_count(m1, m2, k)) > ENUMERATE_MAX:  # not len(): it overflows past 2**63 - 1
            raise CapacityError(
                f"T_K = {total} exceeds ENUMERATE_MAX = {ENUMERATE_MAX} for (M1={m1}, M2={m2}, K={k})"
            )
        xs = np.array(list(combinations(range(m1), k)), dtype=np.intp)
        ys = np.array(list(permutations(range(m2), k)), dtype=np.intp)
        xy = np.stack([np.repeat(xs, len(ys), axis=0), np.tile(ys, (len(xs), 1))], axis=-1)
        # every x-subset against every ordered y-tuple, sorted by the pair list
        # (i1, j1, i2, j2, ...); lexsort's last key is the primary one
        xy = xy[np.lexsort(xy.reshape(len(xy), -1).T[::-1])]
        xy.flags.writeable = False
        return xy

    def pairs(self, t) -> np.ndarray:
        """The (..., K, 2) pairs of hypothesis t or of an index array t."""
        return self._xy[t]

    def __getitem__(self, l: int) -> MatchHypothesis:
        xy = self._xy  # CapacityError past ENUMERATE_MAX, before any len()
        if not 0 <= l < len(xy):
            raise InputError(f"hypothesis index {l} outside [0, {len(xy)})")
        return MatchHypothesis(tuple(map(tuple, xy[l].tolist())))

    def __iter__(self):
        return map(self.__getitem__, range(len(self._xy)))

    def index_of(self, h: MatchHypothesis) -> int:
        if h.k == self.k:
            hit = np.flatnonzero((self._xy == np.array(h.pairs)).all(axis=(1, 2)))
            if hit.size:
                return int(hit[0])
        raise InputError(f"hypothesis {h.pairs} not in space (M1={self.m1}, M2={self.m2}, K={self.k})")


def enumerate_space(m1: int, m2: int, k: int) -> HypothesisSpace:
    """The space (M1, M2, K) with its index arrays built; CapacityError past ENUMERATE_MAX."""
    space = HypothesisSpace(m1, m2, k)
    space._xy  # built here, so a caller meets CapacityError at this point
    return space


def pair_sums(table: np.ndarray, pairs) -> np.ndarray:
    """(M1, M2, ...) table of per-pair values, (..., K, 2) (x, y) pairs ->
    the (..., ...) sums over the K pairs, added left to right into one
    buffer: the entries are gathered one pair place at a time."""
    pairs = np.asarray(pairs)
    out = table[pairs[..., 0, 0], pairs[..., 0, 1]]
    for c in range(1, pairs.shape[-2]):
        out += table[pairs[..., c, 0], pairs[..., c, 1]]
    return out


def batch_scores(table: np.ndarray, space: HypothesisSpace) -> np.ndarray:
    """(M1, M2, ...) table of per-pair values -> (T_K, ...) hypothesis scores."""
    return pair_sums(table, space._xy)


def batch_known_k(scores: np.ndarray):
    """Along axis 0 of (T, ...) scores: the argmin (lowest index on ties) and
    the minimum with the argmin masked (so a tie repeats the minimum)."""
    l_star = scores.argmin(axis=0)
    rest = scores.copy()
    np.put_along_axis(rest, l_star[None], math.inf, axis=0)
    return l_star, rest.min(axis=0)


def _tied(a: float, b: float) -> bool:
    return abs(a - b) <= TIE_REL * max(abs(a), abs(b))


class _KMatches:
    """K-matches of one (M1, M2) table as perfect assignments of a square
    matrix of side M1 + M2 - K: x rows and M2 - K dummy rows against y
    columns and M1 - K dummy columns. A dummy costs 0 and may not meet a
    dummy, so exactly K (x, y) pairs are assigned."""

    def __init__(self, table: np.ndarray, k: int):
        self.m1, self.m2 = table.shape
        self.k = k
        side = self.m1 + self.m2 - k
        self.base = np.zeros((side, side))
        self.base[:self.m1, :self.m2] = table
        self.base[self.m1:, self.m2:] = math.inf

    def best(self, forced=(), banned=()):
        """(cost, pairs) of the cheapest K-match holding every forced pair and
        no banned one, pairs sorted; None when there is none."""
        c = self.base.copy()
        for i, j in banned:
            c[i, j] = math.inf
        for i, j in forced:
            v = c[i, j]
            c[i, :] = math.inf
            c[:, j] = math.inf
            c[i, j] = v
        try:
            rows, cols = linear_sum_assignment(c)
        except ValueError:  # no finite assignment
            return None
        real = (rows < self.m1) & (cols < self.m2)
        return float(c[rows, cols].sum()), tuple(zip(rows[real].tolist(), cols[real].tolist()))

    def ranked(self):
        """Every K-match in non-decreasing cost (Murty 1968): a popped match
        splits the rest of its subspace by the first free pair each part drops."""
        first = self.best()
        heap = [first + ((), ())] if first else []
        while heap:
            cost, pairs, forced, banned = heappop(heap)
            yield cost, pairs
            free = [p for p in pairs if p not in forced]
            for t, p in enumerate(free):
                part = (forced + tuple(free[:t]), banned + (p,))
                sol = self.best(*part)
                if sol:
                    heappush(heap, sol + part)

    def lex_smallest(self, bound: float) -> tuple:
        """The lexicographically smallest pair list among K-matches of cost at
        most `bound`: each x row in turn is paired with the lowest y that keeps
        the bound reachable, or left unmatched."""
        fixed, banned = (), ()
        for i in range(self.m1):
            if len(fixed) == self.k:
                break
            used = {j for _, j in fixed}
            for j in range(self.m2):
                sol = None if j in used else self.best(fixed + ((i, j),), banned)
                if sol and sol[0] <= bound:
                    fixed += ((i, j),)
                    break
            else:
                banned += tuple((i, j) for j in range(self.m2))
        return fixed


def _tie_groups(ranked):
    """Split a ranked (cost, pairs) sequence into runs of tied cost; a run
    stops, and so does the split, after ENUM_MAX_T + 1 members."""
    item = next(ranked, None)
    while item is not None:
        group, item = [item], None
        for nxt in ranked:
            if not _tied(group[0][0], nxt[0]):
                item = nxt
                break
            group.append(nxt)
            if len(group) > ENUM_MAX_T:
                break
        yield group


def _solve_step(table: np.ndarray, k: int, level: float):
    """The known-K values of one (M1, M2) table at step k without
    enumerating: (pairs of the minimiser, its score, the runner-up score), or
    None when the minimal score exceeds level. Costs tied with the minimum
    (or the runner-up) are all scored, so the values and the tie rule are
    the enumeration's."""
    km = _KMatches(table, k)
    ranked = km.ranked()
    head = next(ranked)
    if head[0] > level and not _tied(head[0], level):
        return None
    groups = _tie_groups(chain([head], ranked))
    first = next(groups)
    if len(first) > ENUM_MAX_T:
        pairs = km.lex_smallest(head[0] + TIE_REL * abs(head[0]))
        s = float(pair_sums(table, pairs))
        return (pairs, s, s) if s <= level else None
    f = pair_sums(table, [p for _, p in first])
    s = f.min()
    if s > level:
        return None
    pairs = min(p for (_, p), v in zip(first, f) if v == s)
    others = [v for (_, p), v in zip(first, f) if p != pairs]
    if not others:
        runner = next(groups, None)
        others = pair_sums(table, [p for _, p in runner]) if runner else [math.inf]
    return pairs, float(s), float(min(others))


def kmatch_minima(table: np.ndarray, k: int, level: float, trials: np.ndarray, steps):
    """The given trials of an (M1, M2, B) table whose minimal K-match score
    is at most level: (those trials, their minimisers' (x, y) pairs as an
    (n, K, 2) array, their minimal scores, their runner-up scores), under
    the enumeration's tie rule. k is one of the call's `steps`, and the
    arm is the one ENUM_MAX_T and ENUM_PER_TRIAL pick for their spaces."""
    total = sum(t_count(table.shape[0], table.shape[1], s) for s in steps)
    if total <= ENUM_PER_TRIAL * table.shape[2] and total <= ENUM_MAX_T:
        return _enumerated_minima(table, k, level, trials)
    found = [(t, step) for t in trials if (step := _solve_step(table[..., t], k, level))]
    pairs = np.array([step[0] for _, step in found], dtype=np.intp).reshape(-1, k, 2)
    low, second = np.array([step[1:] for _, step in found]).reshape(-1, 2).T
    return np.array([t for t, _ in found], dtype=np.intp), pairs, low, second


def _enumerated_minima(table: np.ndarray, k: int, level: float, trials: np.ndarray):
    """`kmatch_minima` by scoring every K-match of the batch at once."""
    space = enumerate_space(table.shape[0], table.shape[1], k)
    scores = batch_scores(table, space)
    trials = trials[scores.min(axis=0)[trials] <= level]
    l_star, runner = batch_known_k(scores[:, trials])
    return trials, space.pairs(l_star), scores[l_star, trials], runner

