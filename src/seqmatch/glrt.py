"""The matching tests: the known-K GLRT, the repeated single-match test, and
the two-phase test for an unknown number of matches.

All decisions are functions of the symbol counts only. `decide` runs the
decision of every test over a trailing trial axis of GJS tables; the public
single-database tests call it on a batch of one, so the Monte Carlo engine
and the CLI exercise one code path.

The known-K and two-phase tests scan their steps in one loop, which takes
the minimal and runner-up K-match scores of the undecided trials at each
step from `hypotheses.kmatch_minima`, under the enumeration's scores and tie
rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral, Real

import numpy as np

from .core import Database, InputError, MatchHypothesis, check_alpha, check_length
from .divergences import gjs_table
from .hypotheses import batch_known_k, kmatch_minima, pair_sums, t_count


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
            if v is not None and (isinstance(v, bool) or not isinstance(v, Real) or not v >= 0):
                raise InputError(f"threshold {name} must be >= 0 and a real number, got {v!r}")
        if self.k is not None and (isinstance(self.k, bool) or not isinstance(self.k, Integral)):
            raise InputError(f"k must be an integer, got {self.k!r}")
        if self.threshold_k not in ("khat", "m2"):
            raise InputError(f"threshold_k must be 'khat' or 'm2', got {self.threshold_k!r}")

    def check(self, test: str, m2: int) -> None:
        """`test` must be one of the three tests, with the thresholds it
        reads, and the known-K test needs 1 <= k <= M2."""
        needs = {
            "unnikrishnan": ("lam", "k"), "simple": ("lam",), "two_phase": ("lambda1", "lambda2"),
        }
        if not isinstance(test, str) or test not in needs:
            raise InputError(f"unknown test {test!r}")
        missing = [name for name in needs[test] if getattr(self, name) is None]
        if missing:
            raise InputError(f"{test} test needs {' and '.join(missing)}")
        if test == "unnikrishnan" and not 1 <= self.k <= m2:
            raise InputError(f"need 1 <= K <= M2, got K={self.k}, M2={m2}")


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
    check_alpha(alpha)
    check_length(n)
    return lam + k * alphabet_size * math.log((1.0 + alpha) * n + 1.0) / n


def score(x_db: Database, y_db: Database, h: MatchHypothesis) -> float:
    """Sum of GJS divergences between matched empirical types, at alpha the
    ratio N/n of the sequence lengths, summed by `pair_sums` as the decisions
    sum their scores, so it equals a verdict's min_score to the bit."""
    if x_db.alphabet.size != y_db.alphabet.size:
        raise InputError("databases must share an alphabet")
    if max(h.a_set) >= len(x_db) or max(h.b_set) >= len(y_db):
        raise InputError("hypothesis indexes a sequence outside the databases")
    return float(pair_sums(gjs_table(x_db.counts.T, y_db.counts.T), h.pairs))


# ---------------------------------------------------------------------------
# the decision core over a batch of GJS tables: (M1, M2, B)
# ---------------------------------------------------------------------------

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
    _, m2, b = table.shape
    tc.check(test, m2)

    def corrected(lam: float, k: int) -> float:
        if not tc.type_correction:
            return lam
        return effective_threshold(lam, k, alphabet_size, n, alpha)

    if test == "simple":
        lam_n = corrected(tc.lam, 1)
        assign, h = batch_known_k(table)
        repeated = (np.diff(np.sort(assign, axis=0), axis=0) == 0).any(axis=0)
        return Decision(
            np.full(b, m2), assign, (h > lam_n).all(axis=0) & ~repeated,
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
    undecided = np.ones(b, dtype=bool)
    for khat in steps:
        if not undecided.any():
            break
        kt = m2 if test == "two_phase" and tc.threshold_k == "m2" else khat
        lam1_n, lam2_n = corrected(lam1, kt), corrected(lam2, kt)
        trials, pairs, low, runner = kmatch_minima(table, khat, lam1_n, np.flatnonzero(undecided), steps)
        est_k[trials], match[trials], threshold[trials] = khat, runner > lam2_n, lam2_n
        assign[pairs[..., 1], trials[:, None]] = pairs[..., 0]
        min_score[trials], second[trials] = low, runner
        undecided[trials] = False
    return Decision(est_k, assign, match, min_score, second, threshold)


# ---------------------------------------------------------------------------
# public single-database tests
# ---------------------------------------------------------------------------

def _decide_one(x_db: Database, y_db: Database, test: str, tc: TestConfig):
    """decide on the (M1, M2, 1) GJS table of two databases; returns (decision, N/n)."""
    if x_db.alphabet.size != y_db.alphabet.size:
        raise InputError("databases must share an alphabet")
    a = x_db.seq_len / y_db.seq_len
    table = gjs_table(x_db.counts.T[..., None], y_db.counts.T[..., None])
    return decide(table, test, tc, y_db.seq_len, a, x_db.alphabet.size), a


def _hypothesis(assign: np.ndarray) -> MatchHypothesis:
    return MatchHypothesis(tuple((int(i), j) for j, i in enumerate(assign) if i >= 0))


def unnikrishnan_test(
    x_db: Database,
    y_db: Database,
    k: int,
    lam: float,
    *,
    type_correction: bool = True,
) -> Verdict:
    """Known-K GLRT: accept the minimal-score K-match when the second-smallest
    score exceeds the threshold, otherwise reject. alpha is the ratio N/n of
    the sequence lengths (reported as alpha_used)."""
    tc = TestConfig(lam=lam, k=k, type_correction=type_correction)
    d, a = _decide_one(x_db, y_db, "unnikrishnan", tc)
    diag = {
        "min_score": float(d.min_score[0]),
        "second_min_score": float(d.second_min_score[0]),
        "threshold": float(d.threshold[0]),
        "alpha_used": a,
    }
    if t_count(len(x_db), len(y_db), k) == 1:
        diag["single_hypothesis"] = True
    if d.match[0]:
        return Verdict(_hypothesis(d.assign[:, 0]), k, diag)
    return Verdict(None, None, diag)


def simple_test(
    x_db: Database,
    y_db: Database,
    lam: float,
    *,
    type_correction: bool = True,
) -> Verdict:
    """Repeated K=1 GLRT, one run per y-sequence; assumes K = M2.

    Reject when any sub-test rejects; a non-injective assembly (two y's
    claiming the same x) cannot be a K-match and is a flagged reject. alpha
    is the ratio N/n of the sequence lengths.
    """
    tc = TestConfig(lam=lam, type_correction=type_correction)
    d, a = _decide_one(x_db, y_db, "simple", tc)
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
    *,
    type_correction: bool = True,
    threshold_k: str = "khat",
) -> Verdict:
    """Unknown match count: estimate K by scanning M2..1 against the first
    threshold, then run the known-K test at the second threshold. alpha is
    the ratio N/n of the sequence lengths."""
    tc = TestConfig(
        lambda1=lambda1, lambda2=lambda2, type_correction=type_correction, threshold_k=threshold_k
    )
    d, a = _decide_one(x_db, y_db, "two_phase", tc)
    khat = int(d.k[0])
    diag = {"estimated_k": khat, "alpha_used": a}
    if khat > 0:
        diag["min_score"] = float(d.min_score[0])
        diag["second_min_score"] = float(d.second_min_score[0])
    if d.match[0]:
        return Verdict(_hypothesis(d.assign[:, 0]), khat, diag)
    return Verdict(None, None, diag)
