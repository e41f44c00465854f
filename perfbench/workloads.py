"""The four workloads: loading their inputs, their ops and each op's check.

Everything here reaches seqmatch through module attributes looked up at call
time (`simulate.estimate_errors`, `cli.run`, ...), so the tracer's wrappers
are the ones called. Only public names are used, so the benchmark keeps
measuring as the library's internals change.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field, replace

import calib
import inputs

WORKLOADS = ("simulate", "exponent", "small-dev", "test")

# a curve may rise by at most this much between ascending lambda points
CURVE_TOL = 1e-7
# slack on the two score constraints at a returned argmin (the solver's own
# certification tolerance), and on the value recomputed from that argmin
FEAS_TOL = 1e-7
VALUE_TOL = 1e-9


@dataclass
class Recorder:
    """Per-op samples of one pass. `kernel` holds the calibration kernel's
    seconds before each op, and after the last one once the pass is closed."""

    seconds: list = field(default_factory=list)
    items: list = field(default_factory=list)
    kernel: list = field(default_factory=list)
    failures: list = field(default_factory=list)  # (op index, reason)
    quality: dict = field(default_factory=dict)

    def add(self, dt: float, items: int, problem: str | None, kernel_s: float) -> None:
        if problem is not None:
            self.failures.append((len(self.seconds), problem))
        self.seconds.append(dt)
        self.items.append(items)
        self.kernel.append(kernel_s)

    def close(self) -> None:
        self.kernel.append(calib.kernel_seconds())

    def bump(self, key: str, v: float = 1) -> None:
        self.quality[key] = self.quality.get(key, 0) + v


def _error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def load(workload: str, workdir: str):
    """Import the program and load the workload's inputs: everything a run
    pays before its first op."""
    import seqmatch.cli  # noqa: F401  (the CLI import is part of set-up)
    from seqmatch import enumerate_space, load_dists

    if workload == "simulate":
        return _load_spec(os.path.join(workdir, "spec.json"))
    if workload == "test":
        return None
    with open(os.path.join(workdir, "grid.json")) as fh:
        grid = json.load(fh)
    _, p_dists, q_dists = load_dists(os.path.join(workdir, "dists.json"))
    space = enumerate_space(len(p_dists), len(q_dists), grid["k"])
    truth = _equal_pairs(p_dists, q_dists)
    return {"grid": grid, "P": p_dists, "Q": q_dists, "space": space, "truth": truth}


def _equal_pairs(p_dists, q_dists):
    from seqmatch import MatchHypothesis

    return MatchHypothesis(
        tuple(
            (i, j)
            for i, p in enumerate(p_dists)
            for j, q in enumerate(q_dists)
            if list(p.probs) == list(q.probs)
        )
    )


def _load_spec(path: str):
    from seqmatch import MatchHypothesis, ProblemConfig, SimulationSpec, TestConfig, load_dists

    with open(path) as fh:
        obj = json.load(fh)
    alphabet, p_dists, q_dists = load_dists(obj)
    n_grid = tuple(obj["n_grid"])
    return SimulationSpec(
        ProblemConfig(len(p_dists), len(q_dists), alphabet, float(obj["alpha"]), n_grid[0]),
        tuple(p_dists),
        tuple(q_dists),
        MatchHypothesis(tuple(tuple(p) for p in obj["truth"])),
        obj["test"],
        TestConfig(lambda1=obj["lambda1"], lambda2=obj["lambda2"]),
        int(obj["trials"]),
        int(obj["seed"]),
        n_grid,
    )


def at_end(started: float, deadline: float) -> bool:
    """Whether a run ends at this boundary between units of work (ops, or
    exponent curves) begun at `started`: it ends at the boundary nearest its
    deadline, taking the next unit to cost as much as the last one. So a run
    measures about as long as asked, never a whole unit more."""
    now = time.perf_counter()
    return now + 0.5 * (now - started) >= deadline


def timed_ops(ops, deadline: float, rec: Recorder, tracer=None) -> None:
    """Run (call, items, check) ops until the run ends; at least one."""
    for i, (call, items, check) in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        kernel_s = calib.kernel_seconds()
        t0 = time.perf_counter()
        try:
            out = call()
        except Exception as exc:  # an op that raises counts as failed
            rec.add(time.perf_counter() - t0, items, _error(exc), kernel_s)
        else:
            dt = time.perf_counter() - t0
            rec.add(dt, items, check(out), kernel_s)
        if at_end(t0, deadline):
            return


# -- simulate ----------------------------------------------------------------

def simulate_counts_problem(res, spec) -> str | None:
    """Outcome counts under the truth add up to `trials` at every n."""
    for n in spec.n_grid:
        rows = [r for r in res.rows if r.n == n and r.event in ("correct", "mismatch", "false_reject")]
        if len(rows) != 3 or sum(r.count for r in rows) != spec.trials:
            return f"n={n}: outcome counts {[(r.event, r.count) for r in rows]} do not add to {spec.trials}"
        if any(r.trials != spec.trials for r in rows):
            return f"n={n}: rows report trials other than {spec.trials}"
    return None


def simulate_ops(spec, threads: int, first: dict):
    """Ops on fresh seeds; `first` keeps the rows of op 0."""
    from seqmatch import simulate

    def check(res, s):
        first.setdefault("rows", res.rows)
        return simulate_counts_problem(res, s)

    i = 0
    while True:
        op_spec = replace(spec, seed=spec.seed + i)
        yield (
            lambda s=op_spec: simulate.estimate_errors(s, threads=threads),
            op_spec.trials * len(op_spec.n_grid),
            lambda res, s=op_spec: check(res, s),
        )
        i += 1


def simulate_thread_identity(spec, rows) -> str | None:
    """`rows` of op 0 (run at threads=nproc) must be byte-identical to the
    records at threads=1. Checked on the first n of the grid, which covers
    every chunk of one n."""
    from seqmatch import simulate

    n = spec.n_grid[0]
    one = repr(simulate.estimate_errors(replace(spec, n_grid=(n,)), threads=1).rows)
    many = repr(tuple(r for r in rows if r.n == n))
    return None if one == many else f"records at n={n} differ between threads=1 and threads=nproc"


# -- exponent ----------------------------------------------------------------

class _Recorded(Exception):
    """A point failed and is already recorded; the curve is abandoned."""


def exponent_pass(inp, deadline: float, rec: Recorder, patches, tracer=None) -> None:
    """Whole warm-started curves over the ascending lambda grid, as the CLI
    runs them, until the run ends. Each lambda point is one op, timed
    where false_reject_curve calls false_reject_exponent. Points cost
    different amounts, so a run ends only between curves: every run then
    holds each point equally often, whatever the machine's speed."""
    from seqmatch import exponents

    grid = inp["grid"]
    lams, big_lambda, alpha = grid["lambdas"], grid["big_lambda"], grid["alpha"]
    state = {"op": 0, "prev": math.inf, "hooked": 0}

    def certificate_problem(lam, sol):
        """The value is the KL cost of the returned argmin, and (when the
        solve converged) both scores of the active pair are <= lambda there."""
        omegas = [d.probs for d in sol.argmin_omegas]
        psis = [d.probs for d in sol.argmin_psis]
        cost = sum(alpha * inputs.kl(w, p.probs) for w, p in zip(omegas, inp["P"]))
        cost += sum(inputs.kl(w, q.probs) for w, q in zip(psis, inp["Q"]))
        if abs(sol.value - cost) > VALUE_TOL * max(1.0, cost):
            return f"lambda={lam}: F={sol.value} but its argmin costs {cost}"
        if sol.converged:
            for h in sol.active_pair:
                score = sum(inputs.gjs(omegas[i], psis[j], alpha) for i, j in inp["space"][h].pairs)
                if score > lam + FEAS_TOL:
                    return f"lambda={lam}: hypothesis {h} scores {score} > lambda at the argmin"
        return None

    def check(lam, sol):
        rec.bump("unconverged", 0 if sol.converged else 1)
        rec.bump("iterations", sol.iterations)
        if not sol.value > 0:
            return f"lambda={lam}: F={sol.value} not positive below Lambda={big_lambda}"
        if sol.value > state["prev"] + CURVE_TOL:
            return f"lambda={lam}: F={sol.value} rises above {state['prev']}"
        state["prev"] = sol.value
        return certificate_problem(lam, sol)

    def hook(fn):
        def timed(*args, **kwargs):
            lam = args[4] if len(args) > 4 else kwargs.get("lam")
            if tracer is not None:
                tracer.op = state["op"]
            kernel_s = calib.kernel_seconds()
            t0 = time.perf_counter()
            try:
                sol = fn(*args, **kwargs)
            except Exception as exc:
                rec.add(time.perf_counter() - t0, 1, _error(exc), kernel_s)
                state["op"] += 1
                raise _Recorded from exc
            rec.add(time.perf_counter() - t0, 1, check(lam, sol), kernel_s)
            state["op"] += 1
            state["hooked"] += 1
            return sol

        return timed

    hooked = patches.replace(exponents, "false_reject_exponent", hook)
    while True:
        state["prev"] = math.inf
        t0 = time.perf_counter()
        before = state["hooked"]
        try:
            sols = exponents.false_reject_curve(
                inp["P"], inp["Q"], inp["truth"], inp["space"], lams, alpha
            )
        except _Recorded:
            pass
        except Exception as exc:
            rec.add(time.perf_counter() - t0, len(lams), _error(exc), calib.kernel_seconds())
        else:
            if not hooked or state["hooked"] == before:
                # false_reject_curve no longer calls false_reject_exponent per
                # point: time the whole curve and split it evenly, with the
                # machine's speed measured once after it
                dt = (time.perf_counter() - t0) / len(lams)
                kernel_s = calib.kernel_seconds()
                for lam, sol in zip(lams, sols):
                    rec.add(dt, 1, check(lam, sol), kernel_s)
        if at_end(t0, deadline):
            return


# -- small-dev ---------------------------------------------------------------

def small_dev_ops(inp, rec: Recorder):
    from seqmatch import smalldev

    grid = inp["grid"]
    l = inp["space"].index_of(inp["truth"])

    def check(a, n):
        if a.psd_projected:
            rec.bump("psd_projected")
        if a.tau != 3:
            return f"n={n}: tau={a.tau}, expected 3"
        if abs(a.big_lambda - grid["big_lambda"]) > 1e-9:
            return f"n={n}: Lambda={a.big_lambda}, expected {grid['big_lambda']}"
        expect = a.big_lambda - a.nu_star / math.sqrt(n)
        if abs(a.chi_star - expect) > 1e-12 * max(1.0, abs(expect)):
            return f"n={n}: chi*={a.chi_star} != Lambda - nu*/sqrt(n) = {expect}"
        return None

    i = 0
    while True:
        n = grid["n_start"] + i * grid["n_step"]
        yield (
            lambda n=n: smalldev.analyze(
                inp["P"], inp["Q"], inp["space"], l, grid["alpha"], n, grid["epsilon"]
            ),
            1,
            lambda a, n=n: check(a, n),
        )
        i += 1


# -- test --------------------------------------------------------------------

def test_ops(seed: int, workdir: str):
    from seqmatch import cli

    i = 0
    while True:
        x, y, planted = inputs.make_test_pair(seed, i, workdir)
        out = os.path.join(workdir, f"verdict{i}.json")
        argv = [
            "test", "--x", x, "--y", y,
            "--lambda1", repr(inputs.TEST_LAMBDA1), "--lambda2", repr(inputs.TEST_LAMBDA2),
            "--alpha", repr(inputs.TEST_ALPHA), "--alphabet-size", str(inputs.TEST_S),
            "--out", out,
        ]

        def check(code, out=out, planted=planted, paths=(x, y)):
            try:
                if code != 0:
                    return f"exit code {code}"
                with open(out) as fh:
                    v = json.load(fh)
                if v["decision"] != "match" or v["k"] != inputs.TEST_K or v["pairs"] != planted:
                    return f"verdict {v['decision']} k={v['k']} pairs={v['pairs']}, planted {planted}"
                return None
            finally:
                for p in (out,) + paths:
                    if os.path.exists(p):
                        os.unlink(p)

        yield (lambda argv=argv: cli.run(argv), 1, check)
        i += 1
