"""Seedable Monte Carlo engine.

Randomness is counter-based: every sequence draw owns a Philox stream keyed
by (seed, n, trial, side, sequence index), so trials are order-independent,
chunkable across processes, and bit-reproducible regardless of scheduling.

estimate_errors draws per-sequence empirical types directly (multinomial
counts, the sufficient statistic of every test here), which keeps 1e5+ trial
runs cheap at any sequence length; draw_databases materializes full symbol
sequences.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .core import Database, InputError, MatchHypothesis, ProblemConfig, dists_equal
from .glrt import TestConfig, decide
from .divergences import gjs_table

_GOLD = 0x9E3779B97F4A7C15
_CHUNK = 8192

EVENTS_TRUTH = ("correct", "mismatch", "false_reject")
EVENTS_NULL = ("correct", "false_alarm")


@dataclass(frozen=True)
class SimulationSpec:
    config: ProblemConfig
    p_dists: tuple
    q_dists: tuple
    truth: MatchHypothesis | None
    test: str
    test_config: TestConfig
    trials: int
    seed: int
    n_grid: tuple

    def __post_init__(self):
        object.__setattr__(self, "p_dists", tuple(self.p_dists))
        object.__setattr__(self, "q_dists", tuple(self.q_dists))
        object.__setattr__(self, "n_grid", tuple(int(n) for n in self.n_grid))
        cfg = self.config
        if len(self.p_dists) != cfg.m1 or len(self.q_dists) != cfg.m2:
            raise InputError("distribution list lengths disagree with (M1, M2)")
        sizes = {d.size for d in self.p_dists} | {d.size for d in self.q_dists}
        if sizes != {cfg.alphabet.size}:
            raise InputError("distribution lengths disagree with the alphabet")
        if self.test not in ("unnikrishnan", "simple", "two_phase"):
            raise InputError(f"unknown test {self.test!r}")
        tc = self.test_config
        if self.test == "unnikrishnan":
            if tc.k is None or tc.lam is None:
                raise InputError("unnikrishnan test needs k and lambda")
            if not 1 <= tc.k <= cfg.m2:
                raise InputError("need 1 <= k <= M2")
            if self.truth is not None and self.truth.k != tc.k:
                raise InputError(f"truth has K={self.truth.k} matches, the test's k is {tc.k}")
        elif self.test == "simple":
            if tc.lam is None:
                raise InputError("simple test needs lambda")
        else:
            if tc.lambda1 is None or tc.lambda2 is None:
                raise InputError("two_phase test needs lambda1 and lambda2")
        if self.trials < 1:
            raise InputError("trials must be >= 1")
        if not self.n_grid or min(self.n_grid) < 1:
            raise InputError("n_grid must be non-empty positive lengths")
        _check_truth(self.p_dists, self.q_dists, self.truth)


def _check_truth(p_dists, q_dists, truth: MatchHypothesis | None) -> None:
    matched = set(truth.pairs) if truth is not None else set()
    if truth is not None:
        if max(truth.a_set) >= len(p_dists) or max(truth.b_set) >= len(q_dists):
            raise InputError("truth hypothesis indexes outside (M1, M2)")
    for i, p in enumerate(p_dists):
        for j, q in enumerate(q_dists):
            if (i, j) in matched:
                if not dists_equal(p, q):
                    raise InputError(f"matched pair ({i},{j}) has P_{i} != Q_{j}")
            elif dists_equal(p, q):
                raise InputError(
                    f"unmatched pair ({i},{j}) has equal distributions; "
                    "the hypothesis set assumes distinct generators"
                )


def sequence_generator(seed: int, n: int, trial: int, side: int, idx: int) -> np.random.Generator:
    """Philox stream for one sequence of one trial; streams are disjoint by
    counter construction, not by key hashing."""
    counter = [0, (side << 32) | idx, n, trial]
    return np.random.Generator(np.random.Philox(counter=counter, key=[seed, _GOLD]))


def draw_databases(spec: SimulationSpec, n: int, trial: int = 0) -> tuple[Database, Database]:
    """Full symbol sequences: x_i ~ P_i^N, y_j ~ Q_j^n, independent."""
    cfg = spec.config
    big_n = int(round(n * cfg.alpha))
    xs = []
    for i, d in enumerate(spec.p_dists):
        g = sequence_generator(spec.seed, n, trial, 0, i)
        cum = np.cumsum(d.probs)
        xs.append(np.searchsorted(cum, g.random(big_n), side="right").astype(np.int64))
    ys = []
    for j, d in enumerate(spec.q_dists):
        g = sequence_generator(spec.seed, n, trial, 1, j)
        cum = np.cumsum(d.probs)
        ys.append(np.searchsorted(cum, g.random(n), side="right").astype(np.int64))
    return (
        Database(tuple(xs), big_n, cfg.alphabet),
        Database(tuple(ys), n, cfg.alphabet),
    )


def _chunk_types(spec: SimulationSpec, n: int, lo: int, hi: int):
    """Empirical type matrices for trials lo..hi-1: (B, M, S) arrays."""
    cfg = spec.config
    big_n = int(round(n * cfg.alpha))
    b = hi - lo
    s = cfg.alphabet.size
    tx = np.empty((b, cfg.m1, s))
    ty = np.empty((b, cfg.m2, s))
    for t in range(lo, hi):
        r = t - lo
        for i, d in enumerate(spec.p_dists):
            g = sequence_generator(spec.seed, n, t, 0, i)
            tx[r, i] = g.multinomial(big_n, d.probs) / big_n
        for j, d in enumerate(spec.q_dists):
            g = sequence_generator(spec.seed, n, t, 1, j)
            ty[r, j] = g.multinomial(n, d.probs) / n
    return tx, ty


def _classify_chunk(spec: SimulationSpec, n: int, lo: int, hi: int) -> dict:
    """Outcome counts over one contiguous block of trials."""
    cfg = spec.config
    alpha = int(round(n * cfg.alpha)) / n
    tx, ty = _chunk_types(spec, n, lo, hi)
    d = decide(gjs_table(tx, ty, alpha), spec.test, spec.test_config, n, alpha, cfg.alphabet.size)
    if spec.truth is None:
        return {"false_alarm": int(d.match.sum()), "correct": int((~d.match).sum())}
    inv = spec.truth.sigma_inv
    right = (d.assign == [inv.get(j, -1) for j in range(cfg.m2)]).all(axis=-1)
    return {
        "correct": int((d.match & right).sum()),
        "mismatch": int((d.match & ~right).sum()),
        "false_reject": int((~d.match).sum()),
        "k_estimate_correct": int((d.k == spec.truth.k).sum()),
    }


@dataclass(frozen=True)
class ResultRow:
    n: int
    event: str
    trials: int
    count: int
    p_hat: float
    stderr: float
    exponent: float
    exp_lo: float
    exp_hi: float
    zero_count: bool = False


def _make_row(n: int, event: str, count: int, trials: int) -> ResultRow:
    p = count / trials
    se = math.sqrt(p * (1.0 - p) / trials)
    if count == 0:
        # one-sided bound in place of an infinite empirical exponent
        bound = -math.log(3.0 / trials) / n
        return ResultRow(n, event, trials, 0, 0.0, se, bound, math.nan, math.nan, True)
    exp = 0.0 if count == trials else -math.log(p) / n
    se_exp = se / (p * n)
    return ResultRow(n, event, trials, count, p, se, exp, exp - 2 * se_exp, exp + 2 * se_exp)


@dataclass(frozen=True)
class SimulationResult:
    rows: tuple

    def row(self, n: int, event: str) -> ResultRow:
        for r in self.rows:
            if r.n == n and r.event == event:
                return r
        raise KeyError((n, event))

    def p_hat(self, n: int, event: str) -> float:
        return self.row(n, event).p_hat


def _events_for(spec: SimulationSpec) -> tuple:
    if spec.truth is None:
        return EVENTS_NULL
    if spec.test == "two_phase":
        return EVENTS_TRUTH + ("k_estimate_correct",)
    return EVENTS_TRUTH


def estimate_errors(spec: SimulationSpec, threads: int = 1) -> SimulationResult:
    """Per-n outcome counts, probabilities, and empirical exponents. Chunks
    of trials run on min(threads, chunks, CPU count) worker processes; the
    records do not depend on that number."""
    if threads < 1:
        raise InputError(f"threads must be >= 1, got {threads}")
    rows = []
    for n in spec.n_grid:
        bounds = list(range(0, spec.trials, _CHUNK)) + [spec.trials]
        ranges = [(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if hi > lo]
        totals: dict = {}
        workers = min(threads, len(ranges), os.cpu_count() or 1)
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futs = [pool.submit(_classify_chunk, spec, n, lo, hi) for lo, hi in ranges]
                for f in futs:
                    for k, v in f.result().items():
                        totals[k] = totals.get(k, 0) + v
        else:
            for lo, hi in ranges:
                for k, v in _classify_chunk(spec, n, lo, hi).items():
                    totals[k] = totals.get(k, 0) + v
        for event in _events_for(spec):
            rows.append(_make_row(n, event, totals.get(event, 0), spec.trials))
    return SimulationResult(tuple(rows))


def worst_case_sweep(spec: SimulationSpec, family, threads: int = 1) -> SimulationResult:
    """Per n and event, the maximum probability across a family of
    (P, Q) tuples (all consistent with the spec's truth)."""
    results = []
    for p_dists, q_dists in family:
        member = replace(spec, p_dists=tuple(p_dists), q_dists=tuple(q_dists))
        results.append(estimate_errors(member, threads=threads))
    rows = []
    for n in spec.n_grid:
        for event in _events_for(spec):
            count = max(r.row(n, event).count for r in results)
            rows.append(_make_row(n, event, count, spec.trials))
    return SimulationResult(tuple(rows))
