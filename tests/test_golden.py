"""Golden CLI outputs: the stdout of fixed `seqmatch` commands, byte for byte.

`tests/golden/<case>.out` is the stdout of `python -m seqmatch <argv>` for
the argv of that case below, run inside `tests/golden`, which also holds
the inputs: `dists.json` (the README's), `ternary.json` (the uniform column
against the uniform row and the three rotations of (1/2, 1/4, 1/4), a
tau = 3 tie) and the sequence files `x.txt` (four lines of 800 ternary
symbols) and `y.txt` (two lines of 400, drawn from the third and first x
distributions). The `sim_*.json` files are `simulate` specs: the README
two-phase spec at 16,400 trials (two full Monte Carlo chunks and a partial
one per n, run at `--threads` 1 and 2), known-K, simple, a
no-match truth and a ternary two-phase spec. A golden file changes only with
a declared change of output.
"""

import os

import pytest

from seqmatch import cli

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
