"""The matching tests: the known-K GLRT, the repeated single-match test, and
the two-phase test for an unknown number of matches.

All decisions are functions of the empirical types only. `decide` runs the
decision of every test over a leading trial axis of GJS tables; the public
single-database tests call it on a batch of one, so the Monte Carlo engine
and the CLI exercise one code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import Database, InputError, MatchHypothesis
from .divergences import gjs_table
from .hypotheses import DEFAULT_CAP, HypothesisSpace, enumerate_space


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
            if v is not None and v < 0:
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
    table = gjs_table(x_db.type_matrix(), y_db.type_matrix(), x_db.seq_len / y_db.seq_len)
    return float(sum(table[i, j] for i, j in h.pairs))


# ---------------------------------------------------------------------------
# the decision core over a batch of GJS tables: (B, M1, M2)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpaceIndex:
    """Gather indices for summing per-pair GJS values into hypothesis scores."""

    rows: np.ndarray  # (T_K, K) x-indices
    cols: np.ndarray  # (T_K, K) y-indices


def space_index(space: HypothesisSpace) -> SpaceIndex:
    rows = np.array([[i for i, _ in h.pairs] for h in space.hypotheses])
    cols = np.array([[j for _, j in h.pairs] for h in space.hypotheses])
    return SpaceIndex(rows, cols)


def batch_scores(table: np.ndarray, sidx: SpaceIndex) -> np.ndarray:
    """(B, M1, M2) GJS table -> (B, T_K) hypothesis scores."""
    return table[..., sidx.rows, sidx.cols].sum(axis=-1)


def batch_known_k(scores: np.ndarray, lam_n: float):
    """argmin index (lowest index on ties), second-min value, match mask."""
    l_star = scores.argmin(axis=-1)
    if scores.shape[-1] == 1:
        h = np.full(scores.shape[:-1], math.inf)
    else:
        part = np.partition(scores, 1, axis=-1)
        h = part[..., 1]
    return l_star, h, h > lam_n


@dataclass(frozen=True)
class Decision:
    """Per-trial outcome of one test over a batch of B trials.

    k: the match count decided (M2 for the simple test; 0 when the
    two-phase scan exhausts, which rejects). assign: (B, M2) x-index of each
    y under the minimal-score hypothesis of the decided step, -1 where the y
    is unmatched. match: the accept mask. min_score, second_min_score and
    threshold: the minimal and runner-up scores and the second threshold at
    the decided step (NaN where nothing was decided); the simple test has
    no hypothesis score, and its runner-up is the smallest one over y's.
    scores: (B, T_K) hypothesis scores of the last step scanned, which is
    step K of the known-K test (None for the simple test)."""

    k: np.ndarray
    assign: np.ndarray
    match: np.ndarray
    min_score: np.ndarray
    second_min_score: np.ndarray
    threshold: np.ndarray
    scores: np.ndarray | None


def decide(
    table: np.ndarray,
    test: str,
    tc: TestConfig,
    n: int,
    alpha: float,
    alphabet_size: int,
    cap: int = DEFAULT_CAP,
) -> Decision:
    """Run `test` ("unnikrishnan", "simple" or "two_phase") on each (M1, M2)
    GJS table of the batch.

    The two-phase test scans khat = M2..1; at the first khat whose minimal
    score clears the first threshold it runs the known-K decision at the
    second threshold. The known-K test is the same scan on the single step
    K with no first threshold. The simple test runs the K=1 decision down
    each y-column; a sub-reject or two y's claiming one x rejects.
    """
    b, m1, m2 = table.shape

    def corrected(lam: float, k: int) -> float:
        if not tc.type_correction:
            return lam
        return effective_threshold(lam, k, alphabet_size, n, alpha)

    if test == "simple":
        lam_n = corrected(tc.lam, 1)
        assign, h, ok = batch_known_k(np.swapaxes(table, -1, -2), lam_n)
        repeated = (np.diff(np.sort(assign, axis=-1), axis=-1) == 0).any(axis=-1)
        return Decision(
            np.full(b, m2), assign, ok.all(axis=-1) & ~repeated,
            np.full(b, math.nan), h.min(axis=-1), np.full(b, lam_n), None,
        )

    if test == "unnikrishnan":
        steps, lam1, lam2 = (tc.k,), math.inf, tc.lam
    else:
        steps, lam1, lam2 = range(m2, 0, -1), tc.lambda1, tc.lambda2
    spaces = {k: space_index(enumerate_space(m1, m2, k, cap=cap)) for k in sorted(steps)}
    est_k = np.zeros(b, dtype=np.int64)
    assign = np.full((b, m2), -1, dtype=np.int64)
    match = np.zeros(b, dtype=bool)
    min_score, second, threshold = (np.full(b, math.nan) for _ in range(3))
    undecided = np.ones(b, dtype=bool)
    scores = None
    for khat in steps:
        if not undecided.any():
            break
        kt = m2 if test == "two_phase" and tc.threshold_k == "m2" else khat
        sidx = spaces[khat]
        scores = batch_scores(table, sidx)
        trigger = undecided & (scores.min(axis=-1) <= corrected(lam1, kt))
        if not trigger.any():
            continue
        lam2_n = corrected(lam2, kt)
        l_star, h, ok = batch_known_k(scores, lam2_n)
        rows = np.flatnonzero(trigger)
        l_star = l_star[rows]
        est_k[rows] = khat
        assign[rows[:, None], sidx.cols[l_star]] = sidx.rows[l_star]
        match[rows] = ok[rows]
        min_score[rows] = scores[rows, l_star]
        second[rows] = h[rows]
        threshold[rows] = lam2_n
        undecided[rows] = False
    return Decision(est_k, assign, match, min_score, second, threshold, scores)


# ---------------------------------------------------------------------------
# public single-database tests
# ---------------------------------------------------------------------------

def _decide_one(x_db: Database, y_db: Database, test: str, tc: TestConfig, cap: int):
    """decide on the one GJS table of two databases; the effective alpha is
    N/n from the sequence lengths."""
    if x_db.alphabet.size != y_db.alphabet.size:
        raise InputError("databases must share an alphabet")
    a = x_db.seq_len / y_db.seq_len
    table = gjs_table(x_db.type_matrix()[None, ...], y_db.type_matrix()[None, ...], a)
    return decide(table, test, tc, y_db.seq_len, a, x_db.alphabet.size, cap), a


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
    collect_scores: bool = False,
    cap: int = DEFAULT_CAP,
) -> Verdict:
    """Known-K GLRT: accept the minimal-score K-match when the second-smallest
    score exceeds the threshold, otherwise reject. alpha is nominal: the
    ratio N/n of the sequence lengths is used (reported as alpha_used)."""
    m2 = len(y_db)
    if not 1 <= k <= m2:
        raise InputError(f"need 1 <= K <= M2, got K={k}, M2={m2}")
    tc = TestConfig(lam=lam, k=k, type_correction=type_correction)
    d, a = _decide_one(x_db, y_db, "unnikrishnan", tc, cap)
    diag = {
        "min_score": float(d.min_score[0]),
        "second_min_score": float(d.second_min_score[0]),
        "threshold": float(d.threshold[0]),
        "alpha_used": a,
    }
    if d.scores.shape[-1] == 1:
        diag["single_hypothesis"] = True
    if collect_scores:
        diag["scores"] = [float(s) for s in d.scores[0]]
    if d.match[0]:
        return Verdict(_hypothesis(d.assign[0]), k, diag)
    return Verdict(None, None, diag)


def simple_test(
    x_db: Database,
    y_db: Database,
    lam: float,
    alpha: float | None = None,
    *,
    type_correction: bool = True,
    cap: int = DEFAULT_CAP,
) -> Verdict:
    """Repeated K=1 GLRT, one run per y-sequence; assumes K = M2.

    Reject when any sub-test rejects; a non-injective assembly (two y's
    claiming the same x) cannot be a K-match and is a flagged reject. alpha
    is nominal: the ratio N/n of the sequence lengths is used.
    """
    tc = TestConfig(lam=lam, type_correction=type_correction)
    d, a = _decide_one(x_db, y_db, "simple", tc, cap)
    diag = {
        "threshold": float(d.threshold[0]),
        "alpha_used": a,
        "per_y_match": [int(i) for i in d.assign[0]],
    }
    if d.match[0]:
        return Verdict(_hypothesis(d.assign[0]), len(y_db), diag)
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
    cap: int = DEFAULT_CAP,
) -> Verdict:
    """Unknown match count: estimate K by scanning M2..1 against the first
    threshold, then run the known-K test at the second threshold. alpha is
    nominal: the ratio N/n of the sequence lengths is used."""
    tc = TestConfig(
        lambda1=lambda1, lambda2=lambda2, type_correction=type_correction, threshold_k=threshold_k
    )
    d, a = _decide_one(x_db, y_db, "two_phase", tc, cap)
    khat = int(d.k[0])
    diag = {"estimated_k": khat, "alpha_used": a}
    if khat > 0:
        diag["min_score"] = float(d.min_score[0])
        diag["second_min_score"] = float(d.second_min_score[0])
    if d.match[0]:
        return Verdict(_hypothesis(d.assign[0]), khat, diag)
    return Verdict(None, None, diag)
