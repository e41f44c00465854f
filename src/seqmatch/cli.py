"""Command-line front end.

Subcommands: enumerate, test, exponent, small-dev, simulate. Input is JSON
(dists/spec files) or plain sequence files (one sequence per line,
whitespace-separated symbol indices), whose lines are counted as they are
read. Output is CSV or JSON with identical records (`test` writes one JSON
verdict), written atomically; floats carry 12 significant digits. Exit codes:
0 success, 2 config error, 3 numeric/capacity error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from collections import Counter

import numpy as np

from .core import (
    Alphabet,
    CapacityError,
    Database,
    InputError,
    MatchHypothesis,
    NumericError,
    ProblemConfig,
    dists_equal,
    load_dists,
)
from .exponents import false_reject_curve
from .glrt import TestConfig, simple_test, two_phase_test, unnikrishnan_test
from .hypotheses import DEFAULT_CAP, enumerate_space
from .simulate import SimulationSpec, estimate_errors
from .smalldev import analyze


def _fmt(x) -> str:
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return f"{x:.12g}"
    if isinstance(x, bool):
        return "true" if x else "false"
    return str(x)


def _atomic_write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".seqmatch-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_safe(v):
    # keep strict JSON: represent non-finite floats as strings
    if isinstance(v, float) and not math.isfinite(v):
        return _fmt(v)
    return v


def _emit(records: list[dict], columns: list[str], fmt: str, out: str | None) -> None:
    if fmt == "json":
        payload = [
            {c: _json_safe(r[c]) for c in columns} for r in records
        ]
        text = json.dumps(payload, indent=2, default=_fmt) + "\n"
    else:
        lines = [",".join(columns)]
        for r in records:
            lines.append(",".join(_fmt(r[c]) for c in columns))
        text = "\n".join(lines) + "\n"
    _atomic_write(out, text)


def _parse_grid(text: str, integer: bool = False):
    parts = text.split(":")
    if len(parts) != 3:
        raise InputError(f"grid must be start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError as exc:
        raise InputError(f"bad grid {text!r}: {exc}") from exc
    if step <= 0 or stop < start:
        raise InputError(f"grid {text!r} needs step > 0 and stop >= start")
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    vals = [start + i * step for i in range(count)]
    if integer:
        return [int(round(v)) for v in vals]
    return vals


def _read_counts(path: str) -> list[Counter]:
    """Symbol counts of each sequence line of a file; a line is counted as
    it is read and not kept."""
    rows = []
    try:
        with open(path) as fh:
            for ln, line in enumerate(fh, 1):
                counts = Counter()
                try:
                    for tok, c in Counter(line.split()).items():
                        counts[int(tok)] += c
                except ValueError as exc:
                    raise InputError(f"{path}:{ln}: non-integer symbol ({exc})")
                if counts:
                    rows.append(counts)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    if not rows:
        raise InputError(f"{path}: no sequences")
    return rows


def _infer_hypothesis(p_dists, q_dists, k: int) -> MatchHypothesis:
    """The hypothesis encoded by the dists file itself: matched pairs are
    exactly the (i, j) with equal distributions."""
    pairs = [
        (i, j)
        for i in range(len(p_dists))
        for j in range(len(q_dists))
        if dists_equal(p_dists[i], q_dists[j])
    ]
    if len(pairs) != k:
        raise InputError(
            f"dists encode {len(pairs)} matched pairs, expected K={k}; "
            "pass --l to override"
        )
    return MatchHypothesis(tuple(pairs))


# -- subcommands -------------------------------------------------------------

def _cmd_enumerate(args) -> None:
    space = enumerate_space(args.m1, args.m2, args.k, cap=args.cap)
    hyps = [h.to_json() for h in space.hypotheses]
    if args.format == "json":
        text = json.dumps({"count": space.count, "hypotheses": hyps}, indent=2)
    else:
        text = f"count,{space.count}\nindex,pairs\n" + "\n".join(
            f'{l},"{json.dumps(h, separators=(",", ":"))}"' for l, h in enumerate(hyps)
        )
    _atomic_write(args.out, text + "\n")


def _cmd_test(args) -> None:
    x_rows, y_rows = _read_counts(args.x), _read_counts(args.y)
    symbols = set().union(*x_rows, *y_rows)
    size = args.alphabet_size or max(2, max(symbols) + 1)
    if min(symbols) < 0 or max(symbols) >= size:
        raise InputError(f"symbols {min(symbols)}..{max(symbols)} outside alphabet of size {size}")
    alphabet = Alphabet(size)

    def database(rows):
        counts = np.array([[r[a] for a in range(size)] for r in rows])
        return Database(counts, sum(rows[0].values()), alphabet)

    x_db, y_db = database(x_rows), database(y_rows)
    if args.k is not None:
        if args.lam is None:
            raise InputError("--k requires --lambda")
        verdict = unnikrishnan_test(
            x_db, y_db, args.k, args.lam, args.alpha,
            type_correction=not args.no_type_correction,
        )
    elif args.lambda1 is not None and args.lambda2 is not None:
        verdict = two_phase_test(
            x_db, y_db, args.lambda1, args.lambda2, args.alpha,
            type_correction=not args.no_type_correction,
        )
    elif args.simple:
        if args.lam is None:
            raise InputError("--simple requires --lambda")
        verdict = simple_test(
            x_db, y_db, args.lam, args.alpha,
            type_correction=not args.no_type_correction,
        )
    else:
        raise InputError("pass --k with --lambda, or --lambda1 with --lambda2")
    _atomic_write(args.out, json.dumps(verdict.to_json(), indent=2, default=_fmt) + "\n")


def _cmd_exponent(args) -> None:
    alphabet, p_dists, q_dists = load_dists(args.dists)
    space = enumerate_space(len(p_dists), len(q_dists), args.k, cap=args.cap)
    if args.l is not None:
        h_l = space[args.l]
    else:
        h_l = _infer_hypothesis(p_dists, q_dists, args.k)
    lams = _parse_grid(args.lambda_grid)
    sols = false_reject_curve(p_dists, q_dists, h_l, space, lams, args.alpha)
    records = [
        {
            "lambda": lam,
            "F_l": s.value,
            "converged": s.converged,
            "active_t": s.active_pair[0] if s.active_pair else -1,
            "active_s": s.active_pair[1] if s.active_pair else -1,
        }
        for lam, s in zip(lams, sols)
    ]
    _emit(records, ["lambda", "F_l", "converged", "active_t", "active_s"], args.format, args.out)


def _cmd_small_dev(args) -> None:
    alphabet, p_dists, q_dists = load_dists(args.dists)
    space = enumerate_space(len(p_dists), len(q_dists), args.k, cap=args.cap)
    if args.l is not None:
        h_l = space[args.l]
    else:
        h_l = _infer_hypothesis(p_dists, q_dists, args.k)
    l = space.index_of(h_l)
    records = []
    for n in _parse_grid(args.n_grid, integer=True):
        a = analyze(
            p_dists, q_dists, space, l, args.alpha, n, args.epsilon,
            tie_tol=args.tie_tol,
        )
        records.append(
            {
                "n": n,
                "Lambda_l": a.big_lambda,
                "tau": a.tau,
                "nu_star": a.nu_star,
                "chi_star": a.chi_star,
                "psd_projected": a.psd_projected,
            }
        )
    _emit(
        records,
        ["n", "Lambda_l", "tau", "nu_star", "chi_star", "psd_projected"],
        args.format,
        args.out,
    )


def _load_spec(path: str, seed_override: int | None) -> SimulationSpec:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot parse spec {path}: {exc}")
    try:
        alphabet, p_dists, q_dists = load_dists(obj)
        truth = obj.get("truth")
        h = MatchHypothesis(tuple((int(i), int(j)) for i, j in truth)) if truth else None
        n_grid = tuple(int(n) for n in obj["n_grid"])
        cfg = ProblemConfig(
            len(p_dists), len(q_dists), alphabet, float(obj["alpha"]), n_grid[0]
        )
        tc = TestConfig(
            lam=obj.get("lambda"),
            lambda1=obj.get("lambda1"),
            lambda2=obj.get("lambda2"),
            k=obj.get("k"),
            type_correction=obj.get("type_correction", True),
            threshold_k=obj.get("threshold_k", "khat"),
        )
        seed = seed_override if seed_override is not None else int(obj.get("seed", 0))
        return SimulationSpec(
            cfg,
            tuple(p_dists),
            tuple(q_dists),
            h,
            obj["test"],
            tc,
            int(obj["trials"]),
            seed,
            n_grid,
        )
    except KeyError as exc:
        raise InputError(f"spec is missing field {exc}")


def _cmd_simulate(args) -> None:
    spec = _load_spec(args.spec, args.seed)
    res = estimate_errors(spec, threads=args.threads)
    columns = ["n", "event", "trials", "count", "p_hat", "stderr", "exponent", "exp_lo", "exp_hi"]
    records = [
        {c: getattr(r, c) for c in columns}
        for r in res.rows
    ]
    _emit(records, columns, args.format, args.out)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="seqmatch", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    # each subcommand takes only the flags it reads
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None, help="output path (default stdout)")
    records = argparse.ArgumentParser(add_help=False, parents=[out])
    records.add_argument("--format", choices=("csv", "json"), default="csv")
    listing = argparse.ArgumentParser(add_help=False, parents=[records])
    listing.add_argument("--cap", type=int, default=DEFAULT_CAP, help="hypothesis enumeration cap")

    p = sub.add_parser("enumerate", parents=[listing], help="list all K-match hypotheses")
    p.add_argument("--m1", type=int, required=True)
    p.add_argument("--m2", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("test", parents=[out], help="run a matching test on sequence files")
    p.add_argument("--x", required=True, help="x database file")
    p.add_argument("--y", required=True, help="y database file")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--lambda1", type=float, default=None)
    p.add_argument("--lambda2", type=float, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--alphabet-size", type=int, default=None)
    p.add_argument("--simple", action="store_true", help="repeated K=1 test (K=M2)")
    p.add_argument("--no-type-correction", action="store_true")
    p.set_defaults(func=_cmd_test)

    p = sub.add_parser("exponent", parents=[listing], help="false-reject exponent curve")
    p.add_argument("--dists", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--lambda-grid", required=True, help="start:stop:step")
    p.add_argument("--l", type=int, default=None, help="hypothesis index (default: inferred from dists)")
    p.set_defaults(func=_cmd_exponent)

    p = sub.add_parser("small-dev", parents=[listing], help="second-order threshold curve")
    p.add_argument("--dists", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--n-grid", required=True, help="start:stop:step")
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--tie-tol", type=float, default=1e-9)
    p.set_defaults(func=_cmd_small_dev)

    p = sub.add_parser("simulate", parents=[records], help="Monte Carlo error estimation")
    p.add_argument("--spec", required=True, help="simulation spec JSON")
    p.add_argument("--seed", type=int, default=None, help="overrides the spec's seed")
    p.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                   help="worker processes; records do not depend on it")
    p.set_defaults(func=_cmd_simulate)

    return ap


def run(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        args.func(args)
        return 0
    except InputError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except (CapacityError, NumericError) as exc:
        print(f"error: numeric: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
