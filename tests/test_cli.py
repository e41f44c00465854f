import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from seqmatch.cli import build_parser, run

DISTS = {
    "alphabet_size": 2,
    "P": [{"bern": 0.1}, {"bern": 0.2}, {"bern": 0.3}, {"bern": 0.4}],
    "Q": [{"bern": 0.1}, {"bern": 0.2}],
}

SPEC = {
    "alphabet_size": 2,
    "P": [{"bern": 0.1}, {"bern": 0.5}, {"bern": 0.9}],
    "Q": [{"bern": 0.1}, {"bern": 0.7}],
    "truth": [[0, 0]],
    "alpha": 2.0,
    "test": "unnikrishnan",
    "k": 1,
    "lambda": 0.001,
    "trials": 200,
    "seed": 12,
    "n_grid": [80, 160],
}


@pytest.fixture
def dists_file(tmp_path):
    p = tmp_path / "dists.json"
    p.write_text(json.dumps(DISTS))
    return str(p)


@pytest.fixture
def spec_file(tmp_path):
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(SPEC))
    return str(p)


def test_enumerate_count(capsys):
    assert run(["enumerate", "--m1", "4", "--m2", "2", "--k", "2"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "count,12"
    assert len(out.splitlines()) == 14  # header rows + 12 hypotheses


def test_enumerate_single_column(capsys):
    assert run(["enumerate", "--m1", "5", "--m2", "1", "--k", "1", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 5
    assert payload["hypotheses"][0] == [[0, 0]]


def test_capacity_exit_code(tmp_path):
    out = str(tmp_path / "never.csv")
    code = run(["enumerate", "--m1", "12", "--m2", "12", "--k", "12",
                "--cap", "100", "--out", out])
    assert code == 3
    assert not os.path.exists(out)


def test_malformed_json_exit_2_no_output(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = str(tmp_path / "out.csv")
    code = run(["exponent", "--dists", str(bad), "--k", "2", "--alpha", "2",
                "--lambda-grid", "0:0.01:0.01", "--out", out])
    assert code == 2
    assert not os.path.exists(out)


def test_exponent_curve_zero_past_rival_floor(dists_file, tmp_path):
    out = str(tmp_path / "fl.csv")
    code = run(["exponent", "--dists", dists_file, "--k", "2", "--alpha", "2",
                "--lambda-grid", "0:0.03:0.005", "--out", out])
    assert code == 0
    rows = [line.split(",") for line in open(out).read().splitlines()]
    header, body = rows[0], rows[1:]
    assert header == ["lambda", "F_l", "converged", "active_t", "active_s"]
    lam_star = 0.017614486606327355
    for rec in body:
        lam, val = float(rec[0]), float(rec[1])
        if lam >= lam_star:
            assert val == 0.0
        if lam <= 0.01:
            assert val > 0.0


@pytest.mark.parametrize("l", ["12", "-1"])
@pytest.mark.parametrize("cmd", [
    ["exponent", "--lambda-grid", "0:0.01:0.005"],
    ["small-dev", "--epsilon", "0.1", "--n-grid", "500:1000:500"],
])
def test_hypothesis_index_outside_space_exit_2_no_output(dists_file, tmp_path, cmd, l):
    # the (4, 2, 2) space has T = 12 hypotheses, indexed 0..11
    out = str(tmp_path / "out.csv")
    code = run(cmd[:1] + ["--dists", dists_file, "--k", "2", "--alpha", "2", "--l", l,
                          "--out", out] + cmd[1:])
    assert code == 2
    assert not os.path.exists(out)


def test_small_dev_columns(dists_file, tmp_path):
    out = str(tmp_path / "chi.csv")
    code = run(["small-dev", "--dists", dists_file, "--k", "2", "--alpha", "2",
                "--epsilon", "0.1", "--n-grid", "500:2000:500", "--out", out])
    assert code == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "n,Lambda_l,tau,nu_star,chi_star,psd_projected"
    chis = [float(l.split(",")[4]) for l in lines[1:]]
    assert all(a < b for a, b in zip(chis, chis[1:]))


def test_simulate_byte_identical_and_formats(spec_file, tmp_path):
    out1 = str(tmp_path / "a.csv")
    out2 = str(tmp_path / "b.csv")
    assert run(["simulate", "--spec", spec_file, "--out", out1, "--threads", "1"]) == 0
    assert run(["simulate", "--spec", spec_file, "--out", out2, "--threads", "2"]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()
    outj = str(tmp_path / "a.json")
    assert run(["simulate", "--spec", spec_file, "--out", outj, "--format", "json"]) == 0
    js = json.loads(open(outj).read())
    csv_lines = open(out1).read().splitlines()
    header = csv_lines[0].split(",")
    assert len(js) == len(csv_lines) - 1
    for rec, line in zip(js, csv_lines[1:]):
        parts = line.split(",")
        for col, raw in zip(header, parts):
            if col in ("n", "trials", "count"):
                assert int(rec[col]) == int(raw)
            elif col == "event":
                assert rec[col] == raw
            else:
                v = rec[col]
                v = float(v) if not isinstance(v, str) else float(v)
                if math.isnan(v):
                    assert raw == "nan"
                else:
                    assert float(raw) == pytest.approx(v, rel=1e-10)


def test_simulate_zero_threads_exit_2_no_output(spec_file, tmp_path):
    out = tmp_path / "r.csv"
    assert run(["simulate", "--spec", spec_file, "--out", str(out), "--threads", "0"]) == 2
    assert not out.exists()


def test_seed_override_changes_output(spec_file, tmp_path):
    out1 = str(tmp_path / "s1.csv")
    out2 = str(tmp_path / "s2.csv")
    run(["simulate", "--spec", spec_file, "--out", out1])
    run(["simulate", "--spec", spec_file, "--out", out2, "--seed", "999"])
    assert open(out1).read() != open(out2).read()


def test_match_test_subcommand(tmp_path, capsys):
    rng = np.random.default_rng(0)
    xs = [(rng.random(400) < p).astype(int) for p in (0.1, 0.5, 0.9)]
    ys = [xs[0][:200].tolist()]
    xf, yf = tmp_path / "x.txt", tmp_path / "y.txt"
    xf.write_text("\n".join(" ".join(map(str, r.tolist() if hasattr(r, 'tolist') else r)) for r in xs))
    # y re-drawn from the same source distribution as x_0
    ys = [(rng.random(200) < 0.1).astype(int).tolist()]
    yf.write_text(" ".join(map(str, ys[0])))
    code = run(["test", "--x", str(xf), "--y", str(yf), "--k", "1",
                "--lambda", "0.0001", "--alpha", "2"])
    assert code == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["decision"] == "match"
    assert verdict["pairs"] == [[0, 0]]


@pytest.mark.parametrize(
    "thresholds",
    [["--k", "1", "--lambda", "0.01"], ["--lambda1", "0.01", "--lambda2", "0.001"]],
    ids=["known_k", "two_phase"],
)
def test_test_subcommand_rejects_cap(tmp_path, thresholds):
    # the decision does not enumerate, so `test` takes no --cap
    xf, yf = tmp_path / "x.txt", tmp_path / "y.txt"
    xf.write_text("0 1 1 0\n1 1 1 0\n0 0 0 1\n")
    yf.write_text("0 1\n1 1\n")
    out = tmp_path / "v.json"
    with pytest.raises(SystemExit) as exc:
        run(["test", "--x", str(xf), "--y", str(yf), *thresholds,
             "--cap", "1", "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


SUBCOMMAND_ARGV = {
    "test": ["test", "--x", "x.txt", "--y", "y.txt", "--k", "1", "--lambda", "0.01"],
    "enumerate": ["enumerate", "--m1", "3", "--m2", "2", "--k", "1"],
    "exponent": ["exponent", "--dists", "d.json", "--k", "1", "--alpha", "2",
                 "--lambda-grid", "0:0.1:0.1"],
    "small-dev": ["small-dev", "--dists", "d.json", "--k", "1", "--alpha", "2",
                  "--epsilon", "0.1", "--n-grid", "100:200:100"],
    "simulate": ["simulate", "--spec", "s.json"],
}


@pytest.mark.parametrize(
    "cmd,flag",
    [("test", f) for f in ("--format", "--seed", "--threads", "--cap")]
    + [(c, f) for c in ("enumerate", "exponent", "small-dev") for f in ("--seed", "--threads")]
    + [("simulate", "--cap")],
)
def test_flag_the_subcommand_does_not_read_is_rejected(cmd, flag):
    value = "json" if flag == "--format" else "1"
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([*SUBCOMMAND_ARGV[cmd], flag, value])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "x_text,extra",
    [
        ("0 1 1 0\n1 x 1 0\n", []),
        ("0 1 1 0\n1 -1 1 0\n", []),
        ("0 1 1 0\n1 3 1 0\n", ["--alphabet-size", "3"]),
        ("0 1 1 0\n1 1 0\n", []),
        ("", []),
    ],
    ids=["non_integer", "negative", "past_alphabet", "ragged", "empty_file"],
)
def test_test_subcommand_bad_input_exit_2_no_output(tmp_path, x_text, extra):
    xf, yf = tmp_path / "x.txt", tmp_path / "y.txt"
    xf.write_text(x_text)
    yf.write_text("0 1\n1 1\n")
    out = tmp_path / "v.json"
    code = run(["test", "--x", str(xf), "--y", str(yf), "--k", "1", "--lambda", "0.01",
                *extra, "--out", str(out)])
    assert code == 2
    assert not out.exists()


def test_test_subcommand_memory_bounded_by_counts(tmp_path):
    # 2.5e6 symbols: parsed into Python lists of ints they traced a 54 MB
    # peak; counted line by line the peak is about one line's tokens (0.6 MB)
    rng = np.random.default_rng(25)

    def write(path, m, length):
        text = np.full((m, 2 * length), ord(" "), dtype=np.uint8)
        text[:, 0::2] = rng.integers(0, 4, (m, length)) + ord("0")
        text[:, -1] = ord("\n")
        path.write_bytes(text.tobytes())

    xf, yf, out = tmp_path / "x.txt", tmp_path / "y.txt", tmp_path / "v.json"
    write(xf, 40, 50_000)
    write(yf, 20, 25_000)
    tracemalloc.start()
    try:
        code = run(["test", "--x", str(xf), "--y", str(yf), "--k", "1", "--lambda", "0.01",
                    "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert json.loads(out.read_text())["decision"] == "reject"  # 40 iid uniform x's
    assert peak < 8e6


@pytest.mark.parametrize(
    "thresholds",
    [["--k", "10", "--lambda", "0.001"], ["--lambda1", "0.05", "--lambda2", "0.001"]],
    ids=["known_k", "two_phase"],
)
def test_test_subcommand_decides_large_space(tmp_path, thresholds):
    # 20 x 10 databases with all ten y's planted: T_10 = C(20,10) * 10! ~ 6.7e11
    rng = np.random.default_rng(20)
    n = 2000
    probs = rng.dirichlet(np.full(4, 0.5), size=20)
    xs = [rng.choice(4, n, p=p) for p in probs]
    sigma = rng.permutation(20)[:10]
    ys = [rng.choice(4, n, p=probs[i]) for i in sigma]
    xf, yf = tmp_path / "x.txt", tmp_path / "y.txt"
    xf.write_text("\n".join(" ".join(map(str, r)) for r in xs) + "\n")
    yf.write_text("\n".join(" ".join(map(str, r)) for r in ys) + "\n")
    out = tmp_path / "v.json"
    code = run(["test", "--x", str(xf), "--y", str(yf), *thresholds, "--alpha", "1",
                "--no-type-correction", "--out", str(out)])
    assert code == 0
    verdict = json.loads(out.read_text())
    assert verdict["decision"] == "match"
    assert verdict["k"] == 10
    assert verdict["pairs"] == sorted([int(i), j] for j, i in enumerate(sigma))


def test_test_subcommand_requires_thresholds(tmp_path):
    f = tmp_path / "x.txt"
    f.write_text("0 1\n")
    assert run(["test", "--x", str(f), "--y", str(f)]) == 2


def test_simple_flag(tmp_path, capsys):
    rng = np.random.default_rng(4)
    xrows = [(rng.random(600) < p).astype(int).tolist() for p in (0.1, 0.5, 0.9)]
    yrows = [(rng.random(300) < p).astype(int).tolist() for p in (0.9, 0.1)]
    xf, yf = tmp_path / "x.txt", tmp_path / "y.txt"
    xf.write_text("\n".join(" ".join(map(str, r)) for r in xrows))
    yf.write_text("\n".join(" ".join(map(str, r)) for r in yrows))
    code = run(["test", "--x", str(xf), "--y", str(yf), "--simple",
                "--lambda", "0.001", "--alpha", "2"])
    assert code == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["decision"] == "match"
    assert verdict["pairs"] == [[0, 1], [2, 0]]
