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
import functools
import json
import math
import os
import sys
import tempfile

import numpy as np

from .core import (
    Alphabet,
    CapacityError,
    Database,
    InputError,
    MatchHypothesis,
    NumericError,
    ProblemConfig,
    check_alpha,
    dists_equal,
    load_dists,
)
from .exponents import false_reject_curve
from .glrt import TestConfig, simple_test, two_phase_test, unnikrishnan_test
from .hypotheses import enumerate_space
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


_MAX_GRID = 10**6  # points of a start:stop:step grid


def _parse_grid(text: str, integer: bool = False):
    parts = text.split(":")
    if len(parts) != 3:
        raise InputError(f"grid must be start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError as exc:
        raise InputError(f"bad grid {text!r}: {exc}") from exc
    if not all(map(math.isfinite, (start, stop, step))):
        raise InputError(f"grid {text!r} needs finite parts")
    if step <= 0 or stop < start:
        raise InputError(f"grid {text!r} needs step > 0 and stop >= start")
    span = (stop - start) / step + 1e-9
    if not span < _MAX_GRID:
        raise InputError(f"grid {text!r} has more than {_MAX_GRID} points")
    count = int(math.floor(span)) + 1
    vals = [start + i * step for i in range(count)]
    if integer:
        return [int(round(v)) for v in vals]
    return vals


# a sequence line holds ASCII digit tokens separated by space, tab, VT or FF
_ALLOWED = np.zeros(256, bool)
_ALLOWED[list(b"0123456789 \t\v\f")] = True
_MAX_DIGITS = 18  # every such token fits in an int64
_POW10 = 10 ** np.arange(_MAX_DIGITS, dtype=np.int64)
_MAX_INFERRED = 1 << 16  # symbols of an alphabet read off the files


def _line_counts(buf: np.ndarray, where: str, size: int | None) -> np.ndarray:
    """Symbol counts of the bytes of one sequence line, its ending cut off;
    trailing zero counts may follow. Comparison passes check the bytes and,
    when every token is one digit (no two digits are adjacent), count them,
    one pass per symbol."""
    top = buf.max(initial=0)
    digit = buf >= ord("0")
    # space and bytes 9-12 (\n went with the line ending); buf - 9 wraps below 9
    seps = np.count_nonzero(buf == ord(" ")) + np.count_nonzero(buf - 9 <= 3)
    if top > ord("9") or np.count_nonzero(digit) + seps != buf.size:
        byte = bytes(buf[~_ALLOWED[buf]][:1])
        what = "negative symbol" if byte == b"-" else f"non-integer symbol (byte {byte!r})"
        raise InputError(f"{where}: {what}")
    single = not (digit[1:] & digit[:-1]).any()
    if single:
        top = int(top) - ord("0")  # negative on a blank line
    else:
        # token bounds: even entries are first digits, odd ones one past the last
        bounds = np.flatnonzero(np.diff(digit, prepend=False, append=False))
        starts, ends = bounds[::2], bounds[1::2]
        lengths = ends - starts
        if lengths.max() > _MAX_DIGITS:
            raise InputError(f"{where}: symbol longer than {_MAX_DIGITS} digits")
        # each digit times 10 to the number of digits after it in its token
        place = np.repeat(ends - 1, lengths) - np.flatnonzero(digit)
        terms = (buf[digit] - ord("0")).astype(np.int64) * _POW10[place]
        values = np.add.reduceat(terms, np.cumsum(lengths) - lengths)
        top = values.max()
    if top >= (size or _MAX_INFERRED):  # checked before the counts are sized by it
        what = (f"outside alphabet of size {size}" if size else
                f"too large for an inferred alphabet (at most {_MAX_INFERRED} symbols)")
        raise InputError(f"{where}: symbol {top} {what}")
    if single:
        return np.array([np.count_nonzero(buf == ord("0") + c) for c in range(top + 1)], np.int64)
    return np.bincount(values)


def _read_counts(path: str, size: int | None = None) -> np.ndarray:
    """(M, width) symbol counts of the sequence lines of a file, width being
    `size` or else the largest symbol + 1. Each line is counted as it is read
    and not kept; blank lines are skipped. Lines end in \\n or \\r\\n."""
    rows = []
    try:
        # a 1 MiB buffer: past the default 8 KiB, readline gathers a long line
        # chunk by chunk, which cost more than counting it
        with open(path, "rb", buffering=1 << 20) as fh:
            for ln, line in enumerate(fh, 1):
                end = len(line) - line.endswith(b"\n") - line.endswith(b"\r\n")
                counts = _line_counts(np.frombuffer(line, np.uint8, end), f"{path}:{ln}", size)
                if counts.any():
                    rows.append(counts)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    if not rows:
        raise InputError(f"{path}: no sequences")
    matrix = np.zeros((len(rows), max(size or 0, max(r.size for r in rows))), np.int64)
    for i, r in enumerate(rows):
        matrix[i, :r.size] = r
    return matrix[:, :size or np.flatnonzero(matrix.any(axis=0))[-1] + 1]


def _instance(args):
    """(P, Q, space, truth) of an `exponent` or `small-dev` run. The truth is
    hypothesis --l, or else the one the dists file encodes: matched pairs are
    exactly the (i, j) with equal distributions."""
    check_alpha(args.alpha)
    _, p_dists, q_dists = load_dists(args.dists)
    space = enumerate_space(len(p_dists), len(q_dists), args.k)
    if args.l is not None:
        return p_dists, q_dists, space, space[args.l]
    pairs = [
        (i, j)
        for i in range(len(p_dists))
        for j in range(len(q_dists))
        if dists_equal(p_dists[i], q_dists[j])
    ]
    if len(pairs) != args.k:
        raise InputError(
            f"dists encode {len(pairs)} matched pairs, expected K={args.k}; "
            "pass --l to override"
        )
    return p_dists, q_dists, space, MatchHypothesis(tuple(pairs))


# -- subcommands -------------------------------------------------------------

def _cmd_enumerate(args) -> None:
    space = enumerate_space(args.m1, args.m2, args.k)
    hyps = space.pairs(np.arange(len(space))).tolist()
    if args.format == "json":
        text = json.dumps({"count": len(space), "hypotheses": hyps}, indent=2)
    else:
        text = f"count,{len(space)}\nindex,pairs\n" + "\n".join(
            f'{l},"{json.dumps(h, separators=(",", ":"))}"' for l, h in enumerate(hyps)
        )
    _atomic_write(args.out, text + "\n")


def _cmd_test(args) -> None:
    size = Alphabet(args.alphabet_size).size if args.alphabet_size else None
    x_counts, y_counts = _read_counts(args.x, size), _read_counts(args.y, size)
    alphabet = Alphabet(size or max(2, x_counts.shape[1], y_counts.shape[1]))

    def database(counts):
        if counts.shape[1] < alphabet.size:
            counts = np.pad(counts, ((0, 0), (0, alphabet.size - counts.shape[1])))
        return Database(counts, counts[0].sum(), alphabet)

    x_db, y_db = database(x_counts), database(y_counts)
    correct = not args.no_type_correction
    if args.k is not None:
        if args.lam is None:
            raise InputError("--k requires --lambda")
        verdict = unnikrishnan_test(x_db, y_db, args.k, args.lam, type_correction=correct)
    elif args.lambda1 is not None and args.lambda2 is not None:
        verdict = two_phase_test(x_db, y_db, args.lambda1, args.lambda2, type_correction=correct)
    elif args.simple:
        if args.lam is None:
            raise InputError("--simple requires --lambda")
        verdict = simple_test(x_db, y_db, args.lam, type_correction=correct)
    else:
        raise InputError("pass --k with --lambda, or --lambda1 with --lambda2")
    _atomic_write(args.out, json.dumps(verdict.to_json(), indent=2, default=_fmt) + "\n")


def _cmd_exponent(args) -> None:
    p_dists, q_dists, space, h_l = _instance(args)
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
    p_dists, q_dists, space, h_l = _instance(args)
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


# the JSON types a spec field may take; bool is an int to Python but not to JSON
_JSON_TYPES = {"an integer": int, "a number": (int, float), "true or false": bool}


def _typed(value, name: str, kind: str):
    """`value` of spec field `name`, which must be a JSON value of `kind`."""
    if isinstance(value, bool) != (kind == "true or false") or not isinstance(value, _JSON_TYPES[kind]):
        raise InputError(f"spec field {name} must be {kind}, got {value!r}")
    return value


def _load_spec(path: str, seed_override: int | None) -> SimulationSpec:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot parse spec {path}: {exc}")
    try:
        alphabet, p_dists, q_dists = load_dists(obj)
        truth = obj.get("truth")
        if truth is not None and not (
            isinstance(truth, list) and all(isinstance(ij, list) and len(ij) == 2 for ij in truth)
        ):
            raise InputError(f"spec field truth must be null or a list of [i, j] pairs, got {truth!r}")
        pairs = tuple(tuple(_typed(v, "truth", "an integer") for v in ij) for ij in truth or ())
        h = MatchHypothesis(pairs) if pairs else None
        if not isinstance(obj["n_grid"], list) or not obj["n_grid"]:
            raise InputError(f"spec field n_grid must be a non-empty list, got {obj['n_grid']!r}")
        n_grid = tuple(_typed(n, "n_grid", "an integer") for n in obj["n_grid"])
        alpha = float(_typed(obj["alpha"], "alpha", "a number"))
        cfg = ProblemConfig(len(p_dists), len(q_dists), alphabet, alpha, n_grid[0])
        tc = TestConfig(
            lam=obj.get("lambda"),
            lambda1=obj.get("lambda1"),
            lambda2=obj.get("lambda2"),
            k=obj.get("k"),
            type_correction=_typed(obj.get("type_correction", True), "type_correction", "true or false"),
            threshold_k=obj.get("threshold_k", "khat"),
        )
        seed = seed_override if seed_override is not None else _typed(obj.get("seed", 0), "seed", "an integer")
        return SimulationSpec(
            cfg,
            tuple(p_dists),
            tuple(q_dists),
            h,
            obj["test"],
            tc,
            _typed(obj["trials"], "trials", "an integer"),
            seed,
            n_grid,
        )
    except KeyError as exc:
        raise InputError(f"spec is missing field {exc}")


def _cmd_simulate(args) -> None:
    spec = _load_spec(args.spec, args.seed)
    res = estimate_errors(spec, threads=args.threads)
    columns = ["n", "event", "trials", "count", "p_hat", "stderr", "exponent", "exp_lo", "exp_hi"]
    records = [{c: getattr(r, c) for c in columns} for r in res.rows]
    _emit(records, columns, args.format, args.out)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every `run`."""
    ap = argparse.ArgumentParser(prog="seqmatch", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    # each subcommand takes only the flags it reads
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None, help="output path (default stdout)")
    records = argparse.ArgumentParser(add_help=False, parents=[out])
    records.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("enumerate", parents=[records], help="list all K-match hypotheses")
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
    p.add_argument("--alpha", type=float, default=None, help="accepted and not read: alpha is N/n")
    p.add_argument("--alphabet-size", type=int, default=None)
    p.add_argument("--simple", action="store_true", help="repeated K=1 test (K=M2)")
    p.add_argument("--no-type-correction", action="store_true")
    p.set_defaults(func=_cmd_test)

    p = sub.add_parser("exponent", parents=[records], help="false-reject exponent curve")
    p.add_argument("--dists", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--lambda-grid", required=True, help="start:stop:step")
    p.add_argument("--l", type=int, default=None, help="hypothesis index (default: inferred from dists)")
    p.set_defaults(func=_cmd_exponent)

    p = sub.add_parser("small-dev", parents=[records], help="second-order threshold curve")
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
                   help="processes, the caller included; the helpers are started once per "
                        "process and reused; records do not depend on it")
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
