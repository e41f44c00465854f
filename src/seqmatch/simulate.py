"""Seedable Monte Carlo engine.

Randomness is counter-based (Philox), in stream layout LAYOUT_VERSION.
estimate_errors draws the symbol counts of a whole chunk of _CHUNK trials,
one multinomial per (seed, n, chunk, side, sequence) stream, and scores the
counts, trial axis last from the draw to the decision. Records are
bit-reproducible at any worker count, and the caller runs its share of the
chunks. The helper processes are started once per process, on the first call
that needs them, reused by later calls and replaced when their count changes.
draw_databases returns one trial of that layout as two databases.
"""

from __future__ import annotations

import math
import os
import threading
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace

import numpy as np

from .core import Database, InputError, MatchHypothesis, ProblemConfig, dists_equal, x_length
from .glrt import TestConfig, decide
from .divergences import gjs_table

_GOLD = 0x9E3779B97F4A7C15
_CHUNK = 8192
# version 1 keyed one stream per (seed, n, trial, side, sequence)
LAYOUT_VERSION = 2

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
        tc = self.test_config
        tc.check(self.test, cfg.m2)
        if self.test == "unnikrishnan" and self.truth is not None and self.truth.k != tc.k:
            raise InputError(f"truth has K={self.truth.k} matches, the test's k is {tc.k}")
        if self.trials < 1:
            raise InputError("trials must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise InputError("seed must be in [0, 2**64)")
        if not self.n_grid or min(self.n_grid) < 1:
            raise InputError("n_grid must be non-empty positive lengths")
        short = [n for n in self.n_grid if x_length(n, cfg.alpha) < 1]
        if short:
            raise InputError(f"N = round(n*alpha) is 0 at n = {short[0]}")
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


def sequence_generator(seed: int, n: int, chunk: int, side: int, idx: int) -> np.random.Generator:
    """Philox stream for one sequence of one chunk of trials; streams are
    disjoint by counter construction, not by key hashing. Drawing advances
    counter word 0 only."""
    # bit 48 of word 1 is set in every stream of layout 2
    counter = [0, (1 << 48) | (side << 32) | idx, n, chunk]
    # a list of ints would reach Philox through float64 and lose the low bits
    key = np.array([seed, _GOLD ^ LAYOUT_VERSION], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(counter=counter, key=key))


def draw_databases(spec: SimulationSpec, n: int, trial: int = 0) -> tuple[Database, Database]:
    """The x and y databases of one trial at length n, with the counts that
    estimate_errors scores: trial % _CHUNK of chunk trial // _CHUNK."""
    if trial < 0:
        raise InputError(f"trial must be >= 0, got {trial}")
    chunk, t = divmod(trial, _CHUNK)
    cx, cy = _chunk_types(spec, n, chunk, t + 1)
    big_n, alphabet = x_length(n, spec.config.alpha), spec.config.alphabet
    return Database(cx[..., t].T, big_n, alphabet), Database(cy[..., t].T, n, alphabet)


def _chunk_types(spec: SimulationSpec, n: int, chunk: int, size: int):
    """Symbol counts of the first `size` trials of one chunk: contiguous
    (S, M, size) integer arrays. Trial t does not depend on `size`."""
    big_n = x_length(n, spec.config.alpha)

    def counts(side, dists, length):
        out = np.empty((spec.config.alphabet.size, len(dists), size), dtype=np.int64)
        for i, d in enumerate(dists):
            out[:, i] = sequence_generator(spec.seed, n, chunk, side, i).multinomial(
                length, d.probs, size=size).T
        return out

    return counts(0, spec.p_dists, big_n), counts(1, spec.q_dists, n)


def _classify_chunk(spec: SimulationSpec, n: int, chunk: int, size: int) -> dict:
    """Outcome counts over the first `size` trials of one chunk."""
    cfg = spec.config
    alpha = x_length(n, cfg.alpha) / n
    table = gjs_table(*_chunk_types(spec, n, chunk, size))
    d = decide(table, spec.test, spec.test_config, n, alpha, cfg.alphabet.size)
    if spec.truth is None:
        return {"false_alarm": int(d.match.sum()), "correct": int((~d.match).sum())}
    inv = spec.truth.sigma_inv
    right = (d.assign == np.array([[inv.get(j, -1)] for j in range(cfg.m2)])).all(axis=0)
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


def _events_for(spec: SimulationSpec) -> tuple:
    if spec.truth is None:
        return EVENTS_NULL
    if spec.test == "two_phase":
        return EVENTS_TRUTH + ("k_estimate_correct",)
    return EVENTS_TRUTH


# The helper pool, (size, executor) or None, kept between calls; the lock is
# held while it is in use, so concurrent callers take turns.
_pool = None
_pool_lock = threading.Lock()


def _drop_pool() -> None:
    """Shut the helper pool down and forget it; call with _pool_lock held."""
    global _pool
    if _pool is not None:
        _pool[1].shutdown()
        _pool = None


def _shared_counts(spec: SimulationSpec, jobs: list, workers: int) -> list:
    """Outcome counts of `jobs` in job order: the caller runs every
    `workers`-th job and the pool of workers - 1 helpers the rest."""
    global _pool
    with _pool_lock:
        if _pool is not None and _pool[0] != workers - 1:
            _drop_pool()
        if _pool is None:
            _pool = (workers - 1, ProcessPoolExecutor(max_workers=workers - 1))
        futs = []
        try:
            for i, job in enumerate(jobs):
                futs.append(_pool[1].submit(_classify_chunk, spec, *job) if i % workers else None)
            own = [_classify_chunk(spec, *job) if f is None else None for f, job in zip(futs, jobs)]
            return [c if f is None else f.result() for f, c in zip(futs, own)]
        except BaseException as exc:
            # no stale job may hold up the next call
            for f in futs:
                if f is not None:
                    f.cancel()
            if isinstance(exc, BrokenProcessPool):
                _drop_pool()
            raise


def estimate_errors(spec: SimulationSpec, threads: int = 1) -> SimulationResult:
    """Per-n outcome counts, probabilities, and empirical exponents. Of the
    (n, chunk) jobs, the caller runs every w-th and a pool of w - 1 helpers
    the rest, w = min(threads, jobs, CPU count); results keep job order.
    The pool is started by the first call that needs it and reused by later
    calls; a call that needs another size replaces it, and a call that finds
    a helper dead raises BrokenProcessPool and drops it."""
    if threads < 1:
        raise InputError(f"threads must be >= 1, got {threads}")
    sizes = [min(_CHUNK, spec.trials - lo) for lo in range(0, spec.trials, _CHUNK)]
    jobs = [(n, c, size) for n in spec.n_grid for c, size in enumerate(sizes)]
    workers = min(threads, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        counts = _shared_counts(spec, jobs, workers)
    else:
        counts = [_classify_chunk(spec, *job) for job in jobs]
    rows = []
    for g, n in enumerate(spec.n_grid):
        totals = Counter()
        for chunk_counts in counts[g * len(sizes):(g + 1) * len(sizes)]:
            totals.update(chunk_counts)
        rows += [_make_row(n, event, totals[event], spec.trials) for event in _events_for(spec)]
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
