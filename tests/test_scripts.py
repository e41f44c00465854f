"""Smoke tests of the experiment scripts: each runs at small scale and writes
its CSV with one row per n (per test, where it compares two tests)."""

import csv
import importlib.util
import os

import pytest

SCRIPTS = os.path.join(os.path.dirname(__file__), os.pardir, "scripts")
N_GRID = [200, 400]
TEST_COLUMNS = ["test", "n", "count", "p_hat", "exponent", "exp_lo", "exp_hi"]


def _main(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


@pytest.mark.parametrize(
    "name,header",
    [
        ("false_reject_comparison", TEST_COLUMNS),
        ("mismatch_exponent_curve", TEST_COLUMNS),
        ("threshold_tracking", ["n", "Lambda_l", "tau", "nu_star", "chi_star", "p_reject", "stderr"]),
    ],
)
def test_script_writes_one_row_per_n(tmp_path, name, header):
    out = str(tmp_path / "out.csv")
    _main(name)(["--trials", "200", "--n", *map(str, N_GRID), "--out", out])
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == header
    by_test: dict = {}
    for row in rows[1:]:
        record = dict(zip(header, row))
        by_test.setdefault(record.get("test"), []).append(int(record["n"]))
    expected_tests = {"unnikrishnan", "simple"} if "test" in header else {None}
    assert set(by_test) == expected_tests
    assert all(ns == N_GRID for ns in by_test.values())
