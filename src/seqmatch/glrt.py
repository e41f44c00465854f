"""The matching tests: the known-K GLRT, the repeated single-match test, and
the two-phase test for an unknown number of matches.

All decisions are functions of the symbol counts only. `decide` runs the
decision of every test over a trailing trial axis of GJS tables; the public
single-database tests call it on a batch of one, so the Monte Carlo engine
and the CLI exercise one code path.

The minimal and runner-up K-match scores come from one of two paths, chosen
from T_K and the batch size. A batch whose scanned spaces hold at most
ENUM_PER_TRIAL hypotheses per trial, and at most ENUM_MAX_T in all,
enumerates them once and scores every trial against them (Monte Carlo chunks
of small databases). Otherwise each trial ranks the K-matches of each
scanned step by assignment (`hypotheses._KMatches`). Both paths report the
gather-and-sum scores of the enumeration and keep its tie rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .core import Database, InputError, MatchHypothesis
from .divergences import gjs_table
from .hypotheses import ENUM_MAX_T, TIE_REL, _KMatches, _pair_scores, _tie_groups, _tied
from .hypotheses import batch_scores, enumerate_space, t_count

# a batch enumerates its scanned spaces when they hold at most this many
# hypotheses per trial, else every trial runs the assignment solver; for one
# trial, enumeration was measured faster up to 6 hypotheses, the solver from 12
ENUM_PER_TRIAL = 8


@dataclass(frozen=True)
class TestConfig:
    """Thresholds for the tests; lam for known K, (lambda1, lambda2) for the
    two-phase test. threshold_k picks which K enters the finite-n threshold
    correction of the two-phase test: the current loop estimate ("khat") or
    the fixed maximum ("m2")."""

    lam: float | None = None
    lambda1: float | None = None
    lambda2: float | None = None
    k: int | None = None
    type_correction: bool = True
    threshold_k: str = "khat"

    def __post_init__(self):
        for name in ("lam", "lambda1", "lambda2"):
            v = getattr(self, name)
            if v is not None and not v >= 0:
                raise InputError(f"threshold {name} must be >= 0, got {v}")
        if self.threshold_k not in ("khat", "m2"):
            raise InputError(f"threshold_k must be 'khat' or 'm2', got {self.threshold_k!r}")


@dataclass(frozen=True)
class Verdict:
    """Match(hypothesis, K) or Reject, plus scoring diagnostics."""

    matched: MatchHypothesis | None
    k: int | None
    diagnostics: dict = field(default_factory=dict)

    @property
    def is_match(self) -> bool:
        return self.matched is not None

    def to_json(self) -> dict:
        return {
            "decision": "match" if self.is_match else "reject",
            "k": self.k,
            "pairs": self.matched.to_json() if self.matched else None,
            "diagnostics": {
                k: (v if not isinstance(v, float) or math.isfinite(v) else repr(v))
                for k, v in self.diagnostics.items()
            },
        }


def effective_threshold(lam: float, k: int, alphabet_size: int, n: int, alpha: float) -> float:
    """lambda_n = lambda + K*|X|*log((1+alpha)n + 1)/n."""
    if n < 1:
        raise InputError(f"n must be >= 1, got {n}")
    return lam + k * alphabet_size * math.log((1.0 + alpha) * n + 1.0) / n


def score(x_db: Database, y_db: Database, h: MatchHypothesis, alpha: float | None = None) -> float:
    """Sum of GJS divergences between matched empirical types; alpha is
    nominal, the ratio N/n of the sequence lengths is used."""
    if x_db.alphabet.size != y_db.alphabet.size:
        raise InputError("databases must share an alphabet")
    if max(h.a_set) >= len(x_db) or max(h.b_set) >= len(y_db):
        raise InputError("hypothesis indexes a sequence outside the databases")
    table = gjs_table(x_db.counts.T, y_db.counts.T)
    return float(sum(table[i, j] for i, j in h.pairs))


# ---------------------------------------------------------------------------
# the decision core over a batch of GJS tables: (M1, M2, B)
# ---------------------------------------------------------------------------

def batch_known_k(scores: np.ndarray, lam_n: float):
    """Along axis 0 of (T, ...) scores: argmin (lowest index on ties), the
    minimum with the argmin masked (so a tie repeats the minimum), match mask."""
    l_star = scores.argmin(axis=0)
    rest = scores.copy()
    np.put_along_axis(rest, l_star[None], math.inf, axis=0)
    h = rest.min(axis=0)
    return l_star, h, h > lam_n


def _solve_step(table: np.ndarray, k: int, lam1: float):
    """The known-K decision values of one (M1, M2) table at step k without
    enumerating: (pairs of the minimiser, its score, the runner-up score), or
    None when the minimal score exceeds lam1. Costs tied with the minimum
    (or the runner-up) are all scored, so the values and the tie rule are
    the enumeration's."""
    km = _KMatches(table, k)
    ranked = km.ranked()
    head = next(ranked)
    if head[0] > lam1 and not _tied(head[0], lam1):
        return None
    groups = _tie_groups(chain([head], ranked))
    first = next(groups)
    if len(first) > ENUM_MAX_T:
        pairs = km.lex_smallest(head[0] + TIE_REL * abs(head[0]))
        s = float(_pair_scores(table, [pairs])[0])
        return (pairs, s, s) if s <= lam1 else None
    f = _pair_scores(table, [p for _, p in first])
    s = f.min()
    if s > lam1:
        return None
    pairs = min(p for (_, p), v in zip(first, f) if v == s)
    others = [v for (_, p), v in zip(first, f) if p != pairs]
    if not others:
        runner = next(groups, None)
        others = _pair_scores(table, [p for _, p in runner]) if runner else [math.inf]
    return pairs, float(s), float(min(others))


@dataclass(frozen=True)
class Decision:
    """Per-trial outcome of one test over a batch of B trials, trial axis last.

    k: the match count decided (M2 for the simple test; 0 when the
    two-phase scan exhausts, which rejects). assign: (M2, B) x-index of each
    y under the minimal-score hypothesis of the decided step, -1 where the y
    is unmatched. match: the accept mask. min_score, second_min_score and
    threshold: the minimal and runner-up scores and the second threshold at
    the decided step (NaN where nothing was decided); the simple test has
    no hypothesis score, and its runner-up is the smallest one over y's."""

    k: np.ndarray
    assign: np.ndarray
    match: np.ndarray
    min_score: np.ndarray
    second_min_score: np.ndarray
    threshold: np.ndarray


def decide(
    table: np.ndarray,
    test: str,
    tc: TestConfig,
    n: int,
    alpha: float,
    alphabet_size: int,
) -> Decision:
    """Run `test` ("unnikrishnan", "simple" or "two_phase") on each (M1, M2)
    GJS table of the (M1, M2, B) batch.

    The two-phase test scans khat = M2..1; at the first khat whose minimal
    score clears the first threshold it runs the known-K decision at the
    second threshold. The known-K test is the same scan on the single step
    K with no first threshold. The simple test runs the K=1 decision down
    each y-column; a sub-reject or two y's claiming one x rejects.
    """
    m1, m2, b = table.shape

    def corrected(lam: float, k: int) -> float:
        if not tc.type_correction:
            return lam
        return effective_threshold(lam, k, alphabet_size, n, alpha)

    if test == "simple":
        lam_n = corrected(tc.lam, 1)
        assign, h, ok = batch_known_k(table, lam_n)
        repeated = (np.diff(np.sort(assign, axis=0), axis=0) == 0).any(axis=0)
        return Decision(
            np.full(b, m2), assign, ok.all(axis=0) & ~repeated,
            np.full(b, math.nan), h.min(axis=0), np.full(b, lam_n),
        )

    if test == "unnikrishnan":
        steps, lam1, lam2 = (tc.k,), math.inf, tc.lam
    else:
        steps, lam1, lam2 = range(m2, 0, -1), tc.lambda1, tc.lambda2
    est_k = np.zeros(b, dtype=np.int64)
    assign = np.full((m2, b), -1, dtype=np.int64)
    match = np.zeros(b, dtype=bool)
    min_score, second, threshold = (np.full(b, math.nan) for _ in range(3))

    def thresholds(khat):
        kt = m2 if test == "two_phase" and tc.threshold_k == "m2" else khat
        return corrected(lam1, kt), corrected(lam2, kt)

    total = sum(t_count(m1, m2, k) for k in steps)
    if total > ENUM_PER_TRIAL * b or total > ENUM_MAX_T:
        for t in range(b):
            for khat in steps:
                lam1_n, lam2_n = thresholds(khat)
                step = _solve_step(table[..., t], khat, lam1_n)
                if step is None:
                    continue
                pairs, min_score[t], second[t] = step
                est_k[t], match[t], threshold[t] = khat, second[t] > lam2_n, lam2_n
                for i, j in pairs:
                    assign[j, t] = i
                break
        return Decision(est_k, assign, match, min_score, second, threshold)

    spaces = {k: enumerate_space(m1, m2, k) for k in sorted(steps)}
    undecided = np.ones(b, dtype=bool)
    for khat in steps:
        if not undecided.any():
            break
        lam1_n, lam2_n = thresholds(khat)
        space = spaces[khat]
        scores = batch_scores(table, space)
        trigger = undecided & (scores.min(axis=0) <= lam1_n)
        if not trigger.any():
            continue
        l_star, h, ok = batch_known_k(scores, lam2_n)
        trials = np.flatnonzero(trigger)
        l_star = l_star[trials]
        est_k[trials] = khat
        assign[space.cols[l_star], trials[:, None]] = space.rows[l_star]
        match[trials] = ok[trials]
        min_score[trials] = scores[l_star, trials]
        second[trials] = h[trials]
        threshold[trials] = lam2_n
        undecided[trials] = False
    return Decision(est_k, assign, match, min_score, second, threshold)


# ---------------------------------------------------------------------------
# public single-database tests
# ---------------------------------------------------------------------------

def _decide_one(x_db: Database, y_db: Database, test: str, tc: TestConfig):
    """decide on the (M1, M2, 1) GJS table of two databases; returns (decision, N/n, table)."""
    if x_db.alphabet.size != y_db.alphabet.size:
        raise InputError("databases must share an alphabet")
    a = x_db.seq_len / y_db.seq_len
    table = gjs_table(x_db.counts.T[..., None], y_db.counts.T[..., None])
    return decide(table, test, tc, y_db.seq_len, a, x_db.alphabet.size), a, table


def _hypothesis(assign: np.ndarray) -> MatchHypothesis:
    return MatchHypothesis(tuple((int(i), j) for j, i in enumerate(assign) if i >= 0))


def unnikrishnan_test(
    x_db: Database,
    y_db: Database,
    k: int,
    lam: float,
    alpha: float | None = None,
    *,
    type_correction: bool = True,
) -> Verdict:
    """Known-K GLRT: accept the minimal-score K-match when the second-smallest
    score exceeds the threshold, otherwise reject. alpha is nominal: the
    ratio N/n of the sequence lengths is used (reported as alpha_used)."""
    m2 = len(y_db)
    if not 1 <= k <= m2:
        raise InputError(f"need 1 <= K <= M2, got K={k}, M2={m2}")
    tc = TestConfig(lam=lam, k=k, type_correction=type_correction)
    d, a, _ = _decide_one(x_db, y_db, "unnikrishnan", tc)
    diag = {
        "min_score": float(d.min_score[0]),
        "second_min_score": float(d.second_min_score[0]),
        "threshold": float(d.threshold[0]),
        "alpha_used": a,
    }
    if t_count(len(x_db), m2, k) == 1:
        diag["single_hypothesis"] = True
    if d.match[0]:
        return Verdict(_hypothesis(d.assign[:, 0]), k, diag)
    return Verdict(None, None, diag)


def simple_test(
    x_db: Database,
    y_db: Database,
    lam: float,
    alpha: float | None = None,
    *,
    type_correction: bool = True,
) -> Verdict:
    """Repeated K=1 GLRT, one run per y-sequence; assumes K = M2.

    Reject when any sub-test rejects; a non-injective assembly (two y's
    claiming the same x) cannot be a K-match and is a flagged reject. alpha
    is nominal: the ratio N/n of the sequence lengths is used.
    """
    tc = TestConfig(lam=lam, type_correction=type_correction)
    d, a, _ = _decide_one(x_db, y_db, "simple", tc)
    diag = {
        "threshold": float(d.threshold[0]),
        "alpha_used": a,
        "per_y_match": [int(i) for i in d.assign[:, 0]],
    }
    if d.match[0]:
        return Verdict(_hypothesis(d.assign[:, 0]), len(y_db), diag)
    if d.second_min_score[0] > d.threshold[0]:
        # every sub-test accepted, so two y's claimed one x
        diag["inconsistent_assignment"] = True
    return Verdict(None, None, diag)


def two_phase_test(
    x_db: Database,
    y_db: Database,
    lambda1: float,
    lambda2: float,
    alpha: float | None = None,
    *,
    type_correction: bool = True,
    threshold_k: str = "khat",
) -> Verdict:
    """Unknown match count: estimate K by scanning M2..1 against the first
    threshold, then run the known-K test at the second threshold. alpha is
    nominal: the ratio N/n of the sequence lengths is used."""
    tc = TestConfig(
        lambda1=lambda1, lambda2=lambda2, type_correction=type_correction, threshold_k=threshold_k
    )
    d, a, _ = _decide_one(x_db, y_db, "two_phase", tc)
    khat = int(d.k[0])
    diag = {"estimated_k": khat, "alpha_used": a}
    if khat > 0:
        diag["min_score"] = float(d.min_score[0])
        diag["second_min_score"] = float(d.second_min_score[0])
    if d.match[0]:
        return Verdict(_hypothesis(d.assign[:, 0]), khat, diag)
    return Verdict(None, None, diag)
