"""One workload process, started by run.py in a fresh interpreter.

    worker.py setup   --workload W --dir D
        import seqmatch.cli, load the inputs, print the CLOCK_MONOTONIC time
        at which the first op could start, exit.
    worker.py measure --workload W --dir D --seed S --seconds T --trace 0|1 --out F
        load, then run timed passes and write their raw samples to F, with
        the CLOCK_MONOTONIC time at which loading ended (a set-up sample).

With --trace 0 there is one untraced pass at the CLI's default thread count.
With --trace 1 an untraced and a traced pass share the time (simulate: an
untraced pass at threads=nproc, then untraced and traced at threads=1, since
spans inside pool workers are out of reach); the traced pass writes its spans
to <dir>/trace.json.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import layers
import workloads
from spans import Patches, Tracer


def _check_program_source(root: str) -> None:
    import seqmatch

    src = os.path.join(root, "src") + os.sep
    if not os.path.abspath(seqmatch.__file__).startswith(src):
        raise SystemExit(f"seqmatch imported from {seqmatch.__file__}, not from {src}")


def run_pass(workload: str, inp, args, seconds: float, threads: int, traced: bool, first: dict):
    rec = workloads.Recorder()
    deadline = time.perf_counter() + seconds
    tracer = None
    with Patches() as patches:
        if traced:
            tracer = Tracer(patches)
            layers.install(tracer)
        if workload == "simulate":
            workloads.timed_ops(workloads.simulate_ops(inp, threads, first), deadline, rec, tracer)
        elif workload == "exponent":
            workloads.exponent_pass(inp, deadline, rec, patches, tracer)
        elif workload == "small-dev":
            workloads.timed_ops(workloads.small_dev_ops(inp, rec), deadline, rec, tracer)
        else:
            workloads.timed_ops(workloads.test_ops(args.seed, args.dir), deadline, rec, tracer)
    rec.close()
    out = {
        "threads": threads,
        "traced": traced,
        "seconds": rec.seconds,
        "kernel_seconds": rec.kernel,
        "items": rec.items,
        "failures": rec.failures,
        "quality": rec.quality,
    }
    return out, rec, tracer


def measure(args) -> dict:
    inp = workloads.load(args.workload, args.dir)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    nproc = os.cpu_count() or 1
    result = {"ready": ready, "checks": {}, "passes": []}
    first: dict = {}

    if not args.trace:
        plan = [(nproc, False)]
    elif args.workload == "simulate":
        plan = [(nproc, False), (1, False), (1, True)]
    else:
        plan = [(nproc, False), (nproc, True)]
    for threads, traced in plan:
        out, rec, tracer = run_pass(
            args.workload, inp, args, args.seconds / len(plan), threads, traced, first
        )
        if tracer is not None:
            out["layers"] = layers.derive(tracer, len(rec.seconds), rec.quality)
            out["counters"] = dict(tracer.counters)
            out["missing"] = tracer.missing
            out["spans"] = len(tracer.spans)
            tracer.dump(os.path.join(args.dir, "trace.json"))
        result["passes"].append(out)
    if args.workload == "simulate":
        result["checks"]["thread_identity"] = (
            workloads.simulate_thread_identity(inp, first["rows"]) if "rows" in first
            else "no op succeeded, nothing to compare"
        )
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    result["children_peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "measure"))
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--root", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    if args.mode == "setup":
        workloads.load(args.workload, args.dir)
        ready = time.clock_gettime(time.CLOCK_MONOTONIC)
        _check_program_source(args.root)
        print(repr(ready))
        return 0
    _check_program_source(args.root)
    result = measure(args)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
