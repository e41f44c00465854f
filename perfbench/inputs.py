"""Workload inputs, made from the seed alone.

This module uses numpy and its own divergence arithmetic, never seqmatch, so
the program under test does not shape its own inputs. The program receives
only the files written here (a spec, dists, a grid or sequence files).
"""

from __future__ import annotations

import itertools
import json
import math
import os

import numpy as np

# README two-phase spec; 2 x 8192-trial chunks per n so both workers of a
# 2-process pool get one chunk.
SIM_TRIALS = 16384
SIM_N_GRID = (500, 1000, 2000)

EXP_GRID_POINTS = 3

TEST_M1, TEST_M2, TEST_K, TEST_S = 10, 5, 3, 4
TEST_N, TEST_BIG_N = 10_000, 20_000
TEST_MIN_GJS = 0.05
TEST_LAMBDA1, TEST_LAMBDA2, TEST_ALPHA = 0.01, 1e-3, 2.0


def kl(p, q) -> float:
    """D(p||q) in nats, 0 log 0 = 0; q > 0 wherever p > 0."""
    p, q = np.asarray(p, float), np.asarray(q, float)
    nz = p > 0
    return float(np.sum(p[nz] * np.log(p[nz] / q[nz])))


def gjs(p, q, alpha: float) -> float:
    """Generalized Jensen-Shannon divergence alpha*D(p||m) + D(q||m),
    m = (alpha p + q)/(1 + alpha), in nats."""
    p, q = np.asarray(p, float), np.asarray(q, float)
    m = (alpha * p + q) / (1.0 + alpha)
    return alpha * kl(p, m) + kl(q, m)


def min_rival_score(p_dists, q_dists, truth, k: int, alpha: float) -> float:
    """Smallest summed GJS over the K-matches other than `truth`."""
    best = math.inf
    for xs in itertools.combinations(range(len(p_dists)), k):
        for ys in itertools.permutations(range(len(q_dists)), k):
            pairs = sorted(zip(xs, ys))
            if pairs == sorted(truth):
                continue
            best = min(best, sum(gjs(p_dists[i], q_dists[j], alpha) for i, j in pairs))
    return best


def _write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1)


def _bern(p):
    return [1.0 - p, p]


EXP_P = [0.1, 0.2, 0.3, 0.4]
EXP_Q = [0.1, 0.2]
SD_UNIFORM = [1 / 3, 1 / 3, 1 / 3]
SD_P = [SD_UNIFORM] + [list(np.roll([0.5, 0.25, 0.25], r)) for r in range(3)]


def make_inputs(workload: str, seed: int, workdir: str) -> None:
    """Write the static inputs of `workload` into `workdir`."""
    os.makedirs(workdir, exist_ok=True)
    rng = np.random.default_rng([seed, 0x5EC])
    if workload == "simulate":
        _write_json(
            os.path.join(workdir, "spec.json"),
            {
                "alphabet_size": 2,
                "P": [{"bern": 0.1}, {"bern": 0.5}, {"bern": 0.9}],
                "Q": [{"bern": 0.1}, {"bern": 0.7}],
                "truth": [[0, 0]],
                "alpha": 2.0,
                "test": "two_phase",
                "lambda1": 0.013,
                "lambda2": 0.001,
                "trials": SIM_TRIALS,
                "seed": int(rng.integers(1, 2**31)),
                "n_grid": list(SIM_N_GRID),
            },
        )
    elif workload == "exponent":
        _write_json(
            os.path.join(workdir, "dists.json"),
            {"alphabet_size": 2, "P": [{"bern": p} for p in EXP_P],
             "Q": [{"bern": q} for q in EXP_Q]},
        )
        big_lambda = min_rival_score(
            [_bern(p) for p in EXP_P], [_bern(q) for q in EXP_Q], [(0, 0), (1, 1)], 2, 2.0
        )
        # ascending, strictly inside (0, Lambda): one point per 1/G cell,
        # jittered by the seed by 1% of a cell around its middle. A point's
        # cost (SLSQP iterations) depends on where it sits on the curve, so
        # every seed measures nearly the same points, and a short curve
        # repeats them evenly in a run whatever the number of ops
        g = EXP_GRID_POINTS
        jitter = rng.uniform(0.49, 0.51, size=g)
        lams = [big_lambda * (i + jitter[i]) / g for i in range(g)]
        _write_json(
            os.path.join(workdir, "grid.json"),
            {"k": 2, "alpha": 2.0, "big_lambda": big_lambda, "lambdas": lams},
        )
    elif workload == "small-dev":
        _write_json(
            os.path.join(workdir, "dists.json"),
            {"alphabet_size": 3, "P": SD_P, "Q": [SD_UNIFORM]},
        )
        big_lambda = min_rival_score(SD_P, [SD_UNIFORM], [(0, 0)], 1, 2.0)
        _write_json(
            os.path.join(workdir, "grid.json"),
            {
                "k": 1,
                "alpha": 2.0,
                "epsilon": 0.1,
                "big_lambda": big_lambda,
                "n_start": int(rng.integers(2, 20)) * 100,
                "n_step": int(rng.integers(1, 10)) * 100,
            },
        )
    elif workload == "test":
        pass  # a fresh database pair per op: see make_test_pair
    else:
        raise ValueError(f"unknown workload {workload!r}")


def _distinct_dists(rng, count: int):
    """`count` distributions on TEST_S symbols, pairwise GJS >= TEST_MIN_GJS
    in both argument orders."""
    out = []
    while len(out) < count:
        d = rng.dirichlet(np.ones(TEST_S))
        if all(
            min(gjs(d, e, TEST_ALPHA), gjs(e, d, TEST_ALPHA)) >= TEST_MIN_GJS for e in out
        ):
            out.append(d)
    return out


def _write_rows(path, rows) -> None:
    with open(path, "w") as fh:
        for r in rows:
            fh.write(" ".join(map(str, r.tolist())))
            fh.write("\n")


def make_test_pair(seed: int, op: int, workdir: str):
    """Sequence files for op `op` of the test workload, with K planted pairs.
    Returns (x path, y path, planted pairs sorted)."""
    rng = np.random.default_rng([seed, 0x7E57, op])
    dists = _distinct_dists(rng, TEST_M1 + TEST_M2 - TEST_K)
    p_dists = dists[:TEST_M1]
    xs = rng.choice(TEST_M1, TEST_K, replace=False)
    ys = rng.choice(TEST_M2, TEST_K, replace=False)
    q_dists = [None] * TEST_M2
    for i, j in zip(xs, ys):
        q_dists[j] = p_dists[i]
    extra = iter(dists[TEST_M1:])
    q_dists = [d if d is not None else next(extra) for d in q_dists]
    x_rows = [rng.choice(TEST_S, TEST_BIG_N, p=p) for p in p_dists]
    y_rows = [rng.choice(TEST_S, TEST_N, p=q) for q in q_dists]
    x_path = os.path.join(workdir, f"x{op}.txt")
    y_path = os.path.join(workdir, f"y{op}.txt")
    _write_rows(x_path, x_rows)
    _write_rows(y_path, y_rows)
    return x_path, y_path, sorted([int(i), int(j)] for i, j in zip(xs, ys))
