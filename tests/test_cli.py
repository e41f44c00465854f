import json
import math
import os
import subprocess
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import seqmatch
import seqmatch.cli as cli
from seqmatch import smalldev
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


@pytest.mark.parametrize("l", ["12", "-1", "3"])
@pytest.mark.parametrize("cmd", [
    ["exponent", "--lambda-grid", "0:0.01:0.005"],
    ["small-dev", "--epsilon", "0.1", "--n-grid", "500:1000:500"],
])
def test_hypothesis_index_outside_space_exit_2_no_output(dists_file, tmp_path, cmd, l):
    # the (4, 2, 2) space has T = 12 hypotheses, indexed 0..11; hypothesis 3
    # matches P_0 = Bern(.1) with Q_1 = Bern(.2), which the dists contradict
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


def test_small_dev_grid_solves_quantile_once(tmp_path, monkeypatch):
    # the ternary tau = 3 instance: every rival ties, so nu* needs the QMC CDF
    third = [1 / 3] * 3
    dists = {"alphabet_size": 3, "P": [third] + [list(np.roll([0.5, 0.25, 0.25], r))
                                                for r in range(3)], "Q": [third]}
    path = tmp_path / "tern.json"
    path.write_text(json.dumps(dists))
    smalldev._reject_quantile.cache_clear()
    qmc_runs = []
    real_qmc = smalldev._qmc_mvn

    def counting_qmc(*args, **kwargs):
        qmc_runs.append(1)
        return real_qmc(*args, **kwargs)

    runs_before = []
    real_analyze = cli.analyze

    def analyze(*args, **kwargs):
        runs_before.append(len(qmc_runs))
        return real_analyze(*args, **kwargs)

    monkeypatch.setattr(smalldev, "_qmc_mvn", counting_qmc)
    monkeypatch.setattr(cli, "analyze", analyze)
    out = str(tmp_path / "chi.csv")
    code = run(["small-dev", "--dists", str(path), "--k", "1", "--alpha", "2",
                "--epsilon", "0.1", "--n-grid", "200:5000:200", "--out", out])
    assert code == 0
    rows = open(out).read().splitlines()[1:]
    assert len(rows) == len(runs_before) == 25
    assert {r.split(",")[2] for r in rows} == {"3"}
    # QMC runs happen inside the first n's call and never after it
    assert runs_before[0] == 0 and runs_before[1] > 0
    assert set(runs_before[1:]) == {len(qmc_runs)}


def test_python_dash_m_runs_cli(tmp_path, capsys):
    argv = ["enumerate", "--m1", "4", "--m2", "2", "--k", "2"]
    assert run(argv) == 0
    want = capsys.readouterr().out
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(seqmatch.__file__)))
    proc = subprocess.run([sys.executable, "-m", "seqmatch"] + argv, capture_output=True,
                          text=True, env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == want


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
    "x_text,extra,line",
    [
        ("0 1 1 0\n1 x 1 0\n", [], 2),
        ("0 1 1 0\n1 -1 1 0\n", [], 2),
        ("0 1 1 0\n1 3 1 0\n", ["--alphabet-size", "3"], 2),
        ("0 1 1 0\n1 1 0\n", [], None),
        ("", [], None),
        ("\xff\xfe 1 0\n", [], 1),
        ("0 1 1 0\n1 +1 1 0\n", [], 2),
        ("0 1 1 0\r1 1 1 0\n", [], 1),
        ("0 1 1 0\n1 1 1 0000000000000000000\n", [], 2),
        ("0 1 1 0\n1 1 1 100000000000000000\n", [], 2),
        ("0 1 1 0\n1 1 1 100000000000000000\n", ["--alphabet-size", "4"], 2),
    ],
    ids=["non_integer", "negative", "past_alphabet", "ragged", "empty_file",
         "non_utf8", "plus_sign", "bare_cr", "too_many_digits", "too_large_symbol",
         "too_large_symbol_sized"],
)
def test_test_subcommand_bad_input_exit_2_no_output(tmp_path, capsys, x_text, extra, line):
    xf, yf = tmp_path / "x.txt", tmp_path / "y.txt"
    xf.write_bytes(x_text.encode("latin-1"))  # one byte per character
    yf.write_text("0 1\n1 1\n")
    out = tmp_path / "v.json"
    code = run(["test", "--x", str(xf), "--y", str(yf), "--k", "1", "--lambda", "0.01",
                *extra, "--out", str(out)])
    assert code == 2
    assert not out.exists()
    if line is not None:
        assert f"{xf}:{line}: " in capsys.readouterr().err


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


def _read_counts_oracle(path):
    """The Counter-based reader that the byte-histogram reader replaced:
    symbol counts of each non-blank line, in text mode."""
    rows = []
    with open(path) as fh:
        for line in fh:
            counts = Counter()
            for tok, c in Counter(line.split()).items():
                counts[int(tok)] += c
            if counts:
                rows.append(counts)
    width = max(max(r) for r in rows) + 1
    return np.array([[r[a] for a in range(width)] for r in rows], dtype=np.int64)


def _random_sequence_file(rng, path, multi_digit):
    """Rows over an alphabet of 2-40 symbols (2-10 with one-digit tokens) as
    tokens with up to 3 digits (leading zeros included), separated by runs of
    spaces and tabs, with CRLF and LF endings, blank or whitespace-only lines
    in between, and at times no final newline."""
    size = int(rng.integers(2, 41 if multi_digit else 11))
    length = int(rng.integers(1, 60))
    lines = []
    for _ in range(int(rng.integers(1, 7))):
        if rng.random() < 0.3:
            lines.append(rng.choice(["", " ", "\t", " \t  "]))
        symbols = rng.integers(0, size, length)
        tokens = [str(v) for v in symbols]
        if multi_digit:
            tokens = [t.zfill(int(rng.integers(len(t), 4))) for t in tokens]
        gaps = ["".join(rng.choice([" ", "\t"], int(rng.integers(1, 4))))
                for _ in range(len(tokens) + 1)]
        gaps[0] = gaps[0] if rng.random() < 0.3 else ""
        gaps[-1] = gaps[-1] if rng.random() < 0.3 else ""
        lines.append(gaps[0] + "".join(t + g for t, g in zip(tokens, gaps[1:])))
    text = "".join(line + rng.choice(["\n", "\r\n"]) for line in lines)
    if rng.random() < 0.5:
        text = text.rstrip("\r\n")
    path.write_bytes(text.encode())


@pytest.mark.parametrize("multi_digit", [False, True], ids=["single_digit", "multi_digit"])
def test_read_counts_matches_counter_oracle(tmp_path, multi_digit):
    rng = np.random.default_rng(909 + multi_digit)
    path = tmp_path / "seq.txt"
    for _ in range(200):
        _random_sequence_file(rng, path, multi_digit)
        want = _read_counts_oracle(path)
        got = cli._read_counts(str(path))
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)
        size = want.shape[1] + int(rng.integers(0, 3))
        padded = np.pad(want, ((0, 0), (0, size - want.shape[1])))
        np.testing.assert_array_equal(cli._read_counts(str(path), size), padded)


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
