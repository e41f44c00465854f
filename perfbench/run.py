"""seqmatch benchmark: four workloads through the library's public entry points.

Run from the root of a checkout (the program is imported from ./src):

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Workloads (BENCHMARK.json says why each was chosen):
    simulate   estimate_errors on the README two-phase spec; op = one call over
               n in {500, 1000, 2000} with 16384 trials; item = one trial at one n
    exponent   false_reject_curve on Bern(.1,.2,.3,.4) vs Bern(.1,.2), K=2;
               op = item = one lambda point of a warm-started ascending curve
    small-dev  analyze on the ternary tau=3 instance; op = item = one n point
    test       seqmatch.cli.run(["test", ...]) unknown-K on fresh 10x5 databases;
               op = item = one decision

--trace 0 prints the end-to-end metrics (items_per_s, op_p50_s, op_tail_s,
setup_s, peak_rss_mb, ok_frac); --trace 1 runs an untraced and a traced pass
and prints the per-layer metrics of layers.PER_LAYER, trace overhead included.
Times (op_p50_s, op_tail_s, setup_s, and items_per_s) are given at the
reference machine speed, from the calibration kernel that calib.py runs next
to every op and set-up sample; the wall-clock figures are printed beside them.
Every line before the last is for people; the last line is one JSON object
{"correct", "attempted", "failed", "metrics"}. Raw samples, the machine record
and spans go to .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import compileall
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

# BLAS/OpenMP pools of one thread in this process and every child, so that
# processes x BLAS threads never exceeds nproc (simulate runs nproc workers)
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calib  # noqa: E402
import layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 170
TAIL_BEYOND = 10

END_TO_END = {
    "items_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}


class BenchError(RuntimeError):
    pass


def tail(samples):
    """Highest percentile with at least TAIL_BEYOND samples beyond it. A run
    of fewer than 2*TAIL_BEYOND + 1 ops keeps half of its samples (rounded
    down) beyond it instead, so the tail never rests on fewer samples than
    the median. Returns (value, percentile, samples beyond)."""
    xs = sorted(samples)
    n = len(xs)
    beyond = min(TAIL_BEYOND, (n - 1) // 2)
    idx = n - 1 - beyond
    return xs[idx], 100.0 * (idx + 1) / n, beyond


def machine(root: str) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "commit": commit,
        "blas_threads": BLAS_PIN,
    }


def _worker(root: str, env: dict, args: list[str], timeout: float) -> str:
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args + ["--root", root]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {timeout} s: {' '.join(args[:3])}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def setup_seconds(root, env, workload, workdir, samples: int):
    """Fresh interpreters that import seqmatch.cli and load the inputs, and
    the calibration kernel's seconds just before each."""
    out, kernel = [], []
    for _ in range(samples):
        kernel.append(calib.kernel_seconds())
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        stdout = _worker(root, env, ["setup", "--workload", workload, "--dir", workdir], SETUP_TIMEOUT_S)
        out.append(float(stdout.strip().splitlines()[-1]) - t0)
    return out, kernel


def reference_seconds(p: dict) -> list[float]:
    return calib.at_reference(p["seconds"], p["kernel_seconds"])


def end_to_end(raw: dict, setups: list[float], setup_kernel: list[float]):
    p = raw["passes"][0]
    secs = reference_seconds(p)
    value, pct, beyond = tail(secs)
    metrics = {
        "items_per_s": sum(p["items"]) / sum(secs),
        "op_p50_s": statistics.median(secs),
        "op_tail_s": value,
        "setup_s": statistics.median(calib.at_reference(setups, setup_kernel)),
        "peak_rss_mb": raw["peak_rss_mb"],
        "ok_frac": 1.0 - len(p["failures"]) / len(secs),
    }
    notes = {
        "items_per_s": f"wall: {sum(p['items']) / sum(p['seconds']):.6g}",
        "op_p50_s": f"wall: {statistics.median(p['seconds']):.6g} s",
        "op_tail_s": f"p{pct:.1f}, {beyond} of {len(secs)} samples beyond; wall: {tail(p['seconds'])[0]:.6g} s",
        "setup_s": f"median of {len(setups)} fresh interpreters; wall: {statistics.median(setups):.6g} s",
        "ok_frac": f"fail_frac = {len(p['failures'])}/{len(secs)}",
    }
    return metrics, notes


def _paired_ratio(traced, untraced) -> float:
    m = min(len(traced), len(untraced))
    return sum(traced[:m]) / sum(untraced[:m])


def per_layer(workload: str, raw: dict):
    passes = raw["passes"]
    traced = next(p for p in passes if p["traced"])
    untraced = [p for p in passes if not p["traced"] and p["threads"] == traced["threads"]][0]
    metrics = dict(traced["layers"])
    metrics["trace.overhead"] = _paired_ratio(reference_seconds(traced), reference_seconds(untraced))
    metrics["simulate.parallel_speedup"] = 0.0
    if workload == "simulate":
        par = next(p for p in passes if not p["traced"] and p["threads"] > 1)
        metrics["simulate.parallel_speedup"] = (
            statistics.median(reference_seconds(untraced)) / statistics.median(reference_seconds(par))
        )
    paired = min(len(traced["seconds"]), len(untraced["seconds"]))
    notes = {
        "trace.overhead": f"traced/untraced op time over the first {paired} ops, threads={traced['threads']}",
        "spans": f"{traced['spans']} spans in {len(traced['seconds'])} ops",
    }
    if workload == "simulate":
        notes["simulate.parallel_speedup"] = "median op time at threads=1 / at threads=nproc"
    nit = traced["counters"].get("exponents.slsqp_nit")
    if nit:
        notes["slsqp_nit"] = f"minimize nit {nit:.0f} vs ExponentSolution.iterations {traced['quality'].get('iterations', 0):.0f}"
    if traced["missing"]:
        notes["missing"] = ", ".join(traced["missing"])
    return {k: metrics[k] for k in layers.PER_LAYER}, notes


def run_one(root: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    import inputs

    out_dir = os.path.join(root, ".perfbench")
    workdir = os.path.join(out_dir, f"{workload}-seed{seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    inputs.make_inputs(workload, seed, workdir)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    compileall.compile_dir(os.path.join(root, "src"), quiet=2)

    # the measuring worker's own start is the last set-up sample; the kernel
    # runs after it in the worker, before its first op
    setups, setup_kernel = [], []
    if not trace:
        setups, setup_kernel = setup_seconds(root, env, workload, workdir, SETUP_SAMPLES - 1)
        setup_kernel.append(calib.kernel_seconds())
    raw_path = os.path.join(workdir, "raw.json")
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    _worker(
        root, env,
        ["measure", "--workload", workload, "--dir", workdir, "--seed", str(seed),
         "--seconds", repr(seconds), "--trace", str(trace), "--out", raw_path],
        WORKER_TIMEOUT_S,
    )
    with open(raw_path) as fh:
        raw = json.load(fh)
    if not trace:
        setups.append(raw["ready"] - started)
        setup_kernel.append(raw["passes"][0]["kernel_seconds"][0])

    if trace:
        metrics, notes = per_layer(workload, raw)
        units = {k: v[0] for k, v in layers.PER_LAYER.items()}
    else:
        metrics, notes = end_to_end(raw, setups, setup_kernel)
        units = END_TO_END
    failures = [f for p in raw["passes"] for f in p["failures"]]
    attempted = sum(len(p["seconds"]) for p in raw["passes"])
    checks = {k: v for k, v in raw["checks"].items() if v is not None}
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "machine": machine(root),
        "correct": not failures and not checks,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "checks": raw["checks"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "notes": notes,
        "op_seconds": [p["seconds"] for p in raw["passes"]],
        "kernel_seconds": [p["kernel_seconds"] for p in raw["passes"]],
        "setup_seconds": setups,
        "setup_kernel_seconds": setup_kernel,
        "peak_rss_mb": raw["peak_rss_mb"],
        "children_peak_rss_mb": raw["children_peak_rss_mb"],
    }
    os.makedirs(os.path.join(out_dir, "results"), exist_ok=True)
    with open(os.path.join(out_dir, "results", f"{workload}-seed{seed}-trace{trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def report(record: dict) -> None:
    m = record["machine"]
    print(
        f"# {record['workload']} seed={record['seed']} trace={record['trace']}: "
        f"nproc={m['nproc']} cpu={m['cpu_model']!r} python={m['python']} "
        f"numpy={m['numpy']} scipy={m['scipy']} commit={m['commit']} blas_threads=1"
    )
    for name, mv in record["metrics"].items():
        note = record["notes"].get(name)
        print(f"{name} = {mv['value']:.6g} {mv['unit']}" + (f"  ({note})" if note else ""))
    for key in ("spans", "slsqp_nit", "missing"):
        if key in record["notes"]:
            print(f"# {key}: {record['notes'][key]}")
    print(f"# ops attempted={record['attempted']} failed={record['failed']} correct={record['correct']}")
    for f in record["failures"][:5]:
        print(f"# failure: {f}")
    for name, problem in record["checks"].items():
        print(f"# check {name}: {'ok' if problem is None else problem}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "seqmatch", "__init__.py")):
        print(f"error: no seqmatch source at {root}/src; run from the root of a checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        records = [run_one(root, w, args.seed, args.seconds, args.trace) for w in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for r in records:
        report(r)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
