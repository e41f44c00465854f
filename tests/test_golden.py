"""Golden CLI outputs: the stdout of fixed `seqmatch` commands, byte for byte.

`tests/golden/<case>.out` is the stdout of `python -m seqmatch <argv>` for
the argv of that case below, run inside `tests/golden`, which also holds
the inputs: `dists.json` (the README's), `ternary.json` (the uniform column
against the uniform row and the three rotations of (1/2, 1/4, 1/4), a
tau = 3 tie), `near_tie.json` (Bern(.1) against Bern(.1), Bern(.10000001)
and Bern(.4): the rival's information densities are of order 1e-8, and
nu* is right only if they keep their digits) and the sequence files `x.txt` (four lines of 800 ternary
symbols) and `y.txt` (two lines of 400, drawn from the third and first x
distributions). The `sim_*.json` files are `simulate` specs: the README
two-phase spec at 16,400 trials (two full Monte Carlo chunks and a partial
one per n, run at `--threads` 1 and 2), known-K, simple, a
no-match truth and a ternary two-phase spec. `enumerate_<M1>x<M2>_k<K>.csv`
and `.json` are the `enumerate` listings of three spaces in both formats. A
golden file changes only with a declared change of output.

`exponents.json` records the exponent engine on five instances: the two
dists files, the two-phase spec's dists and two with zero-probability
symbols, one of whose rival pairs has no tied point. Every float is kept as
its exact repr. `python tests/test_golden.py` prints each field's largest
absolute and relative drift against the committed file, and the changed
lines of each `enumerate` listing, then rewrites them all;
`python tests/test_golden.py --check` prints the same, writes nothing and
exits 1 if any entry changed.
"""

import argparse
import contextlib
import io
import json
import math
import os
import sys

import pytest

from seqmatch import cli
from seqmatch.core import Distribution, MatchHypothesis, load_dists
from seqmatch.exponents import (
    false_reject_curve,
    max_false_reject_exponent,
    min_rival_score,
    spurious_match_exponent,
)
from seqmatch.hypotheses import enumerate_space

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

CASES = {
    "exponent_readme": [
        "exponent", "--dists", "dists.json", "--k", "2", "--alpha", "2",
        "--lambda-grid", "0:0.5:0.005",
    ],
    "small_dev_readme": [
        "small-dev", "--dists", "dists.json", "--k", "2", "--alpha", "2",
        "--epsilon", "0.1", "--n-grid", "200:5000:200",
    ],
    "small_dev_near_tie": [
        "small-dev", "--dists", "near_tie.json", "--k", "1", "--alpha", "2",
        "--epsilon", "0.1", "--n-grid", "1000:2000:1000",
    ],
    "small_dev_ternary": [
        "small-dev", "--dists", "ternary.json", "--k", "1", "--alpha", "2",
        "--epsilon", "0.1", "--n-grid", "200:5000:200",
    ],
    "test_known_k": [
        "test", "--x", "x.txt", "--y", "y.txt", "--k", "2", "--lambda", "1e-4", "--alpha", "2",
    ],
    "test_two_phase": [
        "test", "--x", "x.txt", "--y", "y.txt", "--lambda1", "0.01", "--lambda2", "1e-4",
        "--alpha", "2",
    ],
    "test_simple": [
        "test", "--x", "x.txt", "--y", "y.txt", "--simple", "--lambda", "1e-4", "--alpha", "2",
    ],
    "simulate_two_phase": ["simulate", "--spec", "sim_two_phase.json", "--threads", "1"],
    "simulate_two_phase_threads2": ["simulate", "--spec", "sim_two_phase.json", "--threads", "2"],
    "simulate_known_k": ["simulate", "--spec", "sim_known_k.json", "--threads", "1"],
    "simulate_simple": ["simulate", "--spec", "sim_simple.json", "--threads", "1"],
    "simulate_null": ["simulate", "--spec", "sim_null.json", "--threads", "1"],
    "simulate_ternary": ["simulate", "--spec", "sim_ternary.json", "--threads", "1"],
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_stdout_matches_golden(case, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    assert cli.run(CASES[case]) == 0
    with open(os.path.join(GOLDEN, f"{case}.out"), "rb") as fh:
        want = fh.read()
    assert capsys.readouterr().out.encode() == want


# `enumerate` listings, kept as <name>.csv and <name>.json
ENUMERATE = {"enumerate_4x2_k2": (4, 2, 2), "enumerate_5x1_k1": (5, 1, 1), "enumerate_5x3_k2": (5, 3, 2)}


def enumerate_listing(name, fmt):
    """The stdout of `seqmatch enumerate` for the space of that name."""
    m1, m2, k = ENUMERATE[name]
    argv = ["enumerate", "--m1", str(m1), "--m2", str(m2), "--k", str(k), "--format", fmt]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.run(argv) == 0
    return out.getvalue().encode()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(ENUMERATE))
def test_enumerate_matches_golden(name, fmt):
    with open(os.path.join(GOLDEN, f"{name}.{fmt}"), "rb") as fh:
        assert enumerate_listing(name, fmt) == fh.read()


@pytest.mark.parametrize("case", ["test_known_k", "test_two_phase", "test_simple"])
def test_test_alpha_is_nominal(case, capsys, monkeypatch):
    # `test` decides with alpha = N/n, which it reports as alpha_used, so
    # --alpha changes nothing, and the verdict without it is the same
    monkeypatch.chdir(GOLDEN)
    argv = CASES[case]
    at = argv.index("--alpha")
    with open(os.path.join(GOLDEN, f"{case}.out"), "rb") as fh:
        want = fh.read()
    for variant in (argv[:at] + ["--alpha", "7"] + argv[at + 2:], argv[:at] + argv[at + 2:]):
        assert cli.run(variant) == 0
        assert capsys.readouterr().out.encode() == want


def _exponent_instances():
    def path(name):
        return os.path.join(GOLDEN, name)

    def dists(*rows):
        return [Distribution(r) for r in rows]

    zero = (0.6, 0.4, 0.0)
    yield "readme", *load_dists(path("dists.json"))[1:], ((0, 0), (1, 1))
    yield "ternary", *load_dists(path("ternary.json"))[1:], ((0, 0),)
    yield "two_phase", *load_dists(path("sim_two_phase.json"))[1:], ((0, 0),)
    yield "zero_symbol", dists(zero, (0.3, 0.3, 0.4)), dists(zero, (0.5, 0.0, 0.5)), ((0, 0),)
    yield "no_tied_point", dists(zero, (0.0, 0.0, 1.0)), dists(zero), ((0, 0),)


def exponent_records(alpha=2.0):
    """The false-reject curve at lambda = 0 and 2/30/70/98% of Lambda_l,
    the spurious-match exponent at three thresholds under the truth and
    under the null, and the ceiling F(0), for every golden instance."""
    def exact(v):
        return repr(float(v))

    out = {}
    for name, P, Q, pairs in _exponent_instances():
        h = MatchHypothesis(pairs)
        space = enumerate_space(len(P), len(Q), h.k)
        lam_star = min_rival_score(P, Q, space, space.index_of(h), alpha)
        lams = [f * lam_star for f in (0.0, 0.02, 0.3, 0.7, 0.98)]
        curve = [
            {
                "lambda": exact(lam),
                "value": exact(s.value),
                "active_pair": s.active_pair and list(s.active_pair),
                "converged": s.converged,
                "iterations": s.iterations,
                "pairs_solved": s.pairs_solved,
                "pairs_skipped": s.pairs_skipped,
                "lower": exact(s.lower),
                "note": s.note,
            }
            for lam, s in zip(lams, false_reject_curve(P, Q, h, space, lams, alpha))
        ]
        out[name] = {
            "false_reject_curve": curve,
            "spurious_match": {
                key: [exact(spurious_match_exponent(P, Q, h_l, lam1, alpha)) for lam1 in (0.0, 0.01, 0.05)]
                for key, h_l in (("truth", h), ("null", None))
            },
            "max_false_reject": exact(max_false_reject_exponent(P, Q, h, space, alpha)),
        }
    return out


def test_exponent_records_match_golden():
    with open(os.path.join(GOLDEN, "exponents.json")) as fh:
        assert exponent_records() == json.load(fh)


def _leaves(record, path=""):
    """(field, value) for every leaf of an exponent record, the field being
    its path of keys without list indices; a list of plain values (an
    active pair) is one leaf."""
    if isinstance(record, dict):
        for key, val in record.items():
            yield from _leaves(val, f"{path}.{key}" if path else key)
    elif isinstance(record, list) and any(isinstance(v, (dict, str)) for v in record):
        for val in record:
            yield from _leaves(val, path)
    else:
        yield path, record


def drift(old, new):
    """Per field of two exponent record sets: (entries changed, entries,
    largest absolute and relative change). Floats are kept as reprs and
    counts as ints; other fields have no size of change (None)."""
    out = {}
    for name in sorted(set(old) & set(new)):
        for (field, a), (_, b) in zip(_leaves(old[name]), _leaves(new[name])):
            changed, total, big_abs, big_rel = out.get(field, (0, 0, 0.0, 0.0))
            total += 1
            if a != b:
                changed += 1
                try:
                    x, y = float(a), float(b)
                    gap = abs(y - x) if math.isfinite(x) and math.isfinite(y) else math.inf
                    big_abs = max(big_abs, gap)
                    big_rel = max(big_rel, gap / abs(x) if x else math.inf)
                except (TypeError, ValueError):
                    big_abs = big_rel = None
            out[field] = (changed, total, big_abs, big_rel)
    return out


if __name__ == "__main__":
    # report the drift against the committed records and the changed lines
    # of each listing, then rewrite them; --check writes nothing and exits 1
    # if any entry changed
    parser = argparse.ArgumentParser(description="Report golden-file drift, then rewrite the files.")
    parser.add_argument("--check", action="store_true", help="write nothing; exit 1 on any changed entry")
    check = parser.parse_args().check
    path = os.path.join(GOLDEN, "exponents.json")
    records = exponent_records()
    with open(path) as fh:
        committed = json.load(fh)
    print(f"{'field':34} {'changed':>9} {'max abs':>10} {'max rel':>10}")
    changed_entries = 0
    for field, (changed, total, big_abs, big_rel) in drift(committed, records).items():
        size = "" if big_abs is None else f"{big_abs:10.3g} {big_rel:10.3g}"
        print(f"{field:34} {changed:4}/{total:<4} {size}")
        changed_entries += changed
    if records != committed and not changed_entries:
        print("the records differ in their instances or fields")
        changed_entries = 1
    if not check:
        with open(path, "w") as fh:
            json.dump(records, fh, indent=1)
            fh.write("\n")
    for name in sorted(ENUMERATE):
        for fmt in ("csv", "json"):
            path = os.path.join(GOLDEN, f"{name}.{fmt}")
            new = enumerate_listing(name, fmt)
            old = open(path, "rb").read() if os.path.exists(path) else b""
            a, b = old.splitlines(), new.splitlines()
            changed = sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b))
            print(f"{name + '.' + fmt:34} {changed:4}/{len(b):<4}")
            changed_entries += changed
            if not check:
                with open(path, "wb") as fh:
                    fh.write(new)
    print(f"{changed_entries} changed entries")
    sys.exit(1 if check and changed_entries else 0)
