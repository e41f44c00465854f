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
from seqmatch.core import InputError

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
    code = run(["enumerate", "--m1", "12", "--m2", "12", "--k", "12", "--out", out])
    assert code == 3
    assert not os.path.exists(out)
    # past 2**63 - 1 hypotheses as well, where len() of the space overflows
    assert run(["enumerate", "--m1", "30", "--m2", "20", "--k", "12", "--out", out]) == 3
    assert not os.path.exists(out)


@pytest.mark.parametrize("cmd, rest", [
    ("exponent", ["--lambda-grid", "0:1:1"]),
    ("small-dev", ["--epsilon", "0.1", "--n-grid", "500:500:1"]),
])
def test_capacity_exit_code_past_an_index_sized_space(tmp_path, capsys, cmd, rest):
    # 30 x 20 databases at K = 12 hold more than 2**63 - 1 hypotheses
    dists = {"alphabet_size": 2, "P": [{"bern": 0.5}] * 30, "Q": [{"bern": 0.5}] * 20}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(dists))
    assert run([cmd, "--dists", str(path), "--k", "12", "--l", "0", "--alpha", "1"] + rest) == 3
    assert "exceeds ENUMERATE_MAX" in capsys.readouterr().err


def test_malformed_json_exit_2_no_output(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = str(tmp_path / "out.csv")
    code = run(["exponent", "--dists", str(bad), "--k", "2", "--alpha", "2",
                "--lambda-grid", "0:0.01:0.01", "--out", out])
    assert code == 2
    assert not os.path.exists(out)


@pytest.mark.parametrize("name", ["123", "null"])
def test_dists_file_named_like_json_is_read_as_a_file(name, tmp_path, monkeypatch, capsys):
    # `123` and `null` also parse as JSON text, but a file of that name wins
    monkeypatch.chdir(tmp_path)
    records = {}
    for path in ("d.json", name):
        (tmp_path / path).write_text(json.dumps(DISTS))
        code = run(["exponent", "--dists", path, "--k", "2", "--alpha", "2",
                    "--lambda-grid", "0.001:0.002:0.001"])
        assert code == 0
        records[path] = capsys.readouterr().out
    assert records[name] == records["d.json"] and records[name].count("\n") == 3


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


@pytest.mark.parametrize("cmd,extra", [
    *[(cmd, ["--alpha", a]) for cmd in ("exponent", "small-dev") for a in ("0", "-1", "inf", "nan")],
    ("small-dev", ["--tie-tol", "-1"]),
    ("small-dev", ["--tie-tol", "nan"]),
    *[("exponent", ["--lambda-grid", g]) for g in ("0:nan:0.01", "0:inf:0.01", "0:0.01:inf")],
    ("small-dev", ["--n-grid", "500:inf:500"]),
    ("small-dev", ["--n-grid", "500:600:inf"]),
])
def test_bad_number_exit_2_without_traceback(dists_file, tmp_path, capsys, cmd, extra):
    rest = {"exponent": ["--lambda-grid", "0:0.01:0.005"],
            "small-dev": ["--epsilon", "0.1", "--n-grid", "500:1000:500"]}[cmd]
    out = str(tmp_path / "out.csv")
    code = run([cmd, "--dists", dists_file, "--k", "2", "--alpha", "2", "--out", out] + rest + extra)
    assert code == 2
    assert capsys.readouterr().err.startswith("error: config:")
    assert not os.path.exists(out)


@pytest.mark.parametrize("cmd,rest", [
    ("exponent", ["--lambda-grid", "0:1:1"]),
    ("small-dev", ["--epsilon", "0.1", "--n-grid", "500:500:1"]),
])
def test_alpha_checked_before_the_space_is_enumerated(dists_file, monkeypatch, capsys, cmd, rest):
    # a space past the enumeration bound would otherwise exit 3, not 2
    monkeypatch.setattr(cli, "enumerate_space", lambda *args: pytest.fail("space enumerated"))
    assert run([cmd, "--dists", dists_file, "--k", "2", "--alpha", "nan"] + rest) == 2
    assert capsys.readouterr().err.startswith("error: config: alpha")


def test_grid_size_bounded_before_the_grid_is_built(dists_file, monkeypatch, capsys):
    # without the bound this fails at once, not after building 10**12 floats
    def bounded_range(*args):
        assert max(args) <= cli._MAX_GRID, "a grid past the bound was built"
        return range(*args)

    monkeypatch.setattr(cli, "range", bounded_range, raising=False)
    for grid in ("0:1:1e-12", "0:1e308:1e-300", "0:1e6:1"):
        with pytest.raises(InputError, match="more than 1000000 points"):
            cli._parse_grid(grid)
    assert run(["exponent", "--dists", dists_file, "--k", "2", "--alpha", "2",
                "--lambda-grid", "0:1:1e-12"]) == 2
    assert capsys.readouterr().err.startswith("error: config: grid")
    monkeypatch.undo()
    assert len(cli._parse_grid("0:999999:1")) == cli._MAX_GRID


def test_small_dev_columns(dists_file, tmp_path):
    out = str(tmp_path / "chi.csv")
    code = run(["small-dev", "--dists", dists_file, "--k", "2", "--alpha", "2",
                "--epsilon", "0.1", "--n-grid", "500:2000:500", "--out", out])
    assert code == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "n,Lambda_l,tau,nu_star,chi_star,psd_projected"
    chis = [float(l.split(",")[4]) for l in lines[1:]]
    assert all(a < b for a, b in zip(chis, chis[1:]))


def _ternary_dists(tmp_path):
    # the ternary tau = 3 instance: every rival ties, so nu* needs the
    # trivariate CDF
    third = [1 / 3] * 3
    dists = {"alphabet_size": 3, "P": [third] + [list(np.roll([0.5, 0.25, 0.25], r))
                                                for r in range(3)], "Q": [third]}
    path = tmp_path / "tern.json"
    path.write_text(json.dumps(dists))
    return str(path)


def test_small_dev_grid_solves_quantile_once(tmp_path, monkeypatch):
    path = _ternary_dists(tmp_path)
    smalldev._instances.clear()
    cdf_runs = []
    real_cdf = smalldev._Gaussian.cdf

    def counting_cdf(self, *args):
        cdf_runs.append(1)
        return real_cdf(self, *args)

    runs_before = []
    real_analyze = cli.analyze

    def analyze(*args, **kwargs):
        runs_before.append(len(cdf_runs))
        return real_analyze(*args, **kwargs)

    monkeypatch.setattr(smalldev._Gaussian, "cdf", counting_cdf)
    monkeypatch.setattr(cli, "analyze", analyze)
    out = str(tmp_path / "chi.csv")
    code = run(["small-dev", "--dists", path, "--k", "1", "--alpha", "2",
                "--epsilon", "0.1", "--n-grid", "200:5000:200", "--out", out])
    assert code == 0
    rows = open(out).read().splitlines()[1:]
    assert len(rows) == len(runs_before) == 25
    assert {r.split(",")[2] for r in rows} == {"3"}
    # CDF evaluations happen inside the first n's call and never after it
    assert runs_before[0] == 0 and runs_before[1] > 0
    assert set(runs_before[1:]) == {len(cdf_runs)}


def test_small_dev_grid_computes_the_n_free_part_once(tmp_path, monkeypatch):
    # Lambda_l, the tie set and the covariance do not depend on n: a 25-point
    # grid builds one population table and one covariance
    path = _ternary_dists(tmp_path)
    calls = Counter()

    def counted(name):
        real = getattr(smalldev, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    for name in ("population_scores", "covariance_matrix"):
        monkeypatch.setattr(smalldev, name, counted(name))
    out = tmp_path / "chi.csv"
    assert run(["small-dev", "--dists", path, "--k", "1", "--alpha", "2",
                "--epsilon", "0.1", "--n-grid", "200:5000:200", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 26
    assert calls == {"population_scores": 1, "covariance_matrix": 1}


def test_small_dev_ternary_does_not_import_scipy_stats(tmp_path):
    # scipy.stats only draws the Sobol points of a CDF in four or more
    # dimensions; a fresh interpreter running the tau = 3 solve never loads it
    path = _ternary_dists(tmp_path)
    code = (
        "import sys\n"
        "import seqmatch.cli\n"
        f"argv = ['small-dev', '--dists', {path!r}, '--k', '1', '--alpha', '2',"
        " '--epsilon', '0.1', '--n-grid', '1000:2000:1000']\n"
        "assert seqmatch.cli.run(argv) == 0\n"
        "assert 'scipy.stats' not in sys.modules, 'scipy.stats was imported'\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(seqmatch.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[1].split(",")[2] == "3"


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


def test_simulate_nan_threshold_exit_2_no_output(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(dict(SPEC, test="two_phase", lambda1=math.nan, lambda2=1e-3)))
    out = str(tmp_path / "out.csv")
    assert run(["simulate", "--spec", str(spec), "--out", out]) == 2
    assert capsys.readouterr().err.startswith("error: config: threshold lambda1")
    assert not os.path.exists(out)


@pytest.mark.parametrize("cmd,rest", [
    ("exponent", ["--lambda-grid", "0:0.01:0.005"]),
    ("small-dev", ["--epsilon", "0.1", "--n-grid", "1000:2000:1000"]),
])
def test_nan_distribution_exit_2_no_output(tmp_path, capsys, cmd, rest):
    # Python's json reads the NaN literal; the sum check must still fail it
    dists = tmp_path / "dists.json"
    dists.write_text('{"P": [[NaN, 1.0], {"bern": 0.2}], "Q": [{"bern": 0.2}]}')
    argv = [cmd, "--dists", str(dists), "--k", "1", "--alpha", "2", "--l", "1", *rest]
    assert run(argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and "probabilities sum to nan" in out.err


def test_simulate_zero_threads_exit_2_no_output(spec_file, tmp_path):
    out = tmp_path / "r.csv"
    assert run(["simulate", "--spec", spec_file, "--out", str(out), "--threads", "0"]) == 2
    assert not out.exists()


@pytest.mark.parametrize("alpha,n", [(1e308, 80), (1e20, 80), (1e17, 160)])
def test_simulate_x_length_past_a_long_exit_2_no_output(tmp_path, capsys, alpha, n):
    # N = round(n*alpha) over n_grid [80, 160] is inf at alpha = 1e308 and
    # past 2**63 at 1e20; at 1e17 it fits at n = 80 but not at n = 160
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({**SPEC, "alpha": alpha}))
    out = tmp_path / "out.csv"
    assert run(["simulate", "--spec", str(spec), "--out", str(out)]) == 2
    assert f"at n = {n} is not below 2**63" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_n_grid_with_empty_x_exit_2(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({**SPEC, "alpha": 0.3, "n_grid": [10, 1]}))
    assert run(["simulate", "--spec", str(spec)]) == 2
    assert "n = 1" in capsys.readouterr().err


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
    + [(c, f) for c in ("enumerate", "exponent", "small-dev") for f in ("--seed", "--threads", "--cap")]
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


@pytest.mark.parametrize(
    "body,extra,what",
    [
        ("1 -1 0 0", [], "negative symbol"),
        ("1 +1 0 0", [], "non-integer symbol (byte b'+')"),
        ("1 a 0 0", [], "non-integer symbol (byte b'a')"),
        ("1 / 0 0", [], "non-integer symbol (byte b'/')"),
        ("1 : 0 0", [], "non-integer symbol (byte b':')"),
        ("1 \x00 0 0", [], "non-integer symbol (byte b'\\x00')"),
        ("1 \x08 0 0", [], "non-integer symbol (byte b'\\x08')"),
        ("1 \x0e 0 0", [], "non-integer symbol (byte b'\\x0e')"),
        ("1 \x80 0 0", [], "non-integer symbol (byte b'\\x80')"),
        ("1 \r 0 0", [], "non-integer symbol (byte b'\\r')"),
        ("1 a 2 -1", [], "non-integer symbol (byte b'a')"),
        ("1 -1 a 0", [], "negative symbol"),
        ("10 a 0 0", [], "non-integer symbol (byte b'a')"),
        ("10 -1 0 0", [], "negative symbol"),
        ("0 3 1 0", ["--alphabet-size", "3"], "symbol 3 outside alphabet of size 3"),
        ("0 2 1 0", ["--alphabet-size", "3"], None),
        ("0 12 1 0", ["--alphabet-size", "12"], "symbol 12 outside alphabet of size 12"),
        ("0 11 1 0", ["--alphabet-size", "12"], None),
        ("0 9 1 0", [], None),
        ("65536 0 0 0", [],
         "symbol 65536 too large for an inferred alphabet (at most 65536 symbols)"),
        ("\v1\f0\t1  0", [], None),
    ],
    ids=["minus", "plus", "letter", "slash", "colon", "nul", "backspace", "shift_out",
         "high_byte", "bare_cr", "bad_before_minus", "minus_before_bad", "letter_multi_digit",
         "minus_multi_digit", "at_size", "below_size", "at_size_multi_digit",
         "below_size_multi_digit", "nine_inferred", "past_inferred", "every_separator"],
)
def test_reader_messages_name_the_line_and_first_bad_byte(tmp_path, capsys, body, extra, what):
    # the x file's third line, after a blank one; the messages are those the
    # byte-histogram reader gave
    xf, yf, out = tmp_path / "x.txt", tmp_path / "y.txt", tmp_path / "v.json"
    xf.write_bytes(f"0 1 1 0\n\n{body}\n".encode("latin-1"))  # one byte per character
    yf.write_text("0 1\n1 1\n")
    code = run(["test", "--x", str(xf), "--y", str(yf), "--k", "1", "--lambda", "0.01",
                *extra, "--out", str(out)])
    err = capsys.readouterr().err
    if what is None:
        assert (code, err) == (0, "")
        assert out.exists()
    else:
        assert (code, err) == (2, f"error: config: {xf}:3: {what}\n")
        assert not out.exists()


def test_read_counts_peak_below_five_line_sizes(tmp_path, monkeypatch):
    # one 4 MB line of one-digit tokens; a 256-bin byte histogram casts every
    # byte to an 8-byte index, and traced a peak of 9.3 line sizes
    rng = np.random.default_rng(27)
    line = np.full(4_000_000, ord(" "), np.uint8)
    symbols = rng.integers(0, 4, line.size // 2)
    line[0::2] = symbols + ord("0")
    path = tmp_path / "seq.txt"
    path.write_bytes(line.tobytes() + b"\n")

    def no_histogram(*args, **kwargs):
        raise AssertionError("a one-digit line is counted without np.bincount")

    monkeypatch.setattr(np, "bincount", no_histogram)
    tracemalloc.start()
    try:
        counts = cli._read_counts(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    monkeypatch.undo()
    np.testing.assert_array_equal(counts, [np.bincount(symbols)])
    assert peak < 5 * line.size


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
    """Rows over an alphabet of 2-40 symbols (2-10 with one-digit tokens),
    separated by runs of space, tab, VT and FF, with CRLF and LF endings,
    blank or separator-only lines in between, and at times no final newline.
    With multi_digit, each row at random either has tokens with up to 3
    digits (leading zeros included) or is a row of one-digit tokens."""
    size = int(rng.integers(2, 41 if multi_digit else 11))
    length = int(rng.integers(1, 60))

    def gap():
        return "".join(rng.choice([" ", "\t", "\v", "\f"], int(rng.integers(1, 4))))

    lines = []
    for _ in range(int(rng.integers(1, 7))):
        if rng.random() < 0.3:
            lines.append("" if rng.random() < 0.3 else gap())
        wide = multi_digit and rng.random() < 0.7
        tokens = [str(v) for v in rng.integers(0, size if wide else min(size, 10), length)]
        if wide:
            tokens = [t.zfill(int(rng.integers(len(t), 4))) for t in tokens]
        gaps = [gap() for _ in range(len(tokens) + 1)]
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


@pytest.mark.parametrize(
    "grid,what",
    [("0:1", "start:stop:step"), ("0:1:2:3", "start:stop:step"), ("0:a:1", "bad grid"),
     ("0:1:0", "step > 0"), ("1:0:0.5", "stop >= start")],
)
def test_malformed_grid_rejected(grid, what):
    with pytest.raises(InputError, match=what):
        cli._parse_grid(grid)


@pytest.mark.parametrize(
    "argv,what",
    [
        (["--k", "1"], "--k requires --lambda"),
        (["--simple"], "--simple requires --lambda"),
        (["--y", "missing.txt", "--k", "1", "--lambda", "0.1"], "cannot read missing.txt"),
    ],
    ids=["k_without_lambda", "simple_without_lambda", "unreadable_file"],
)
def test_test_subcommand_config_errors(tmp_path, capsys, monkeypatch, argv, what):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "x.txt").write_text("0 1\n1 1\n")
    assert run(["test", "--x", "x.txt", "--y", "x.txt", *argv]) == 2
    assert what in capsys.readouterr().err


@pytest.mark.parametrize(
    "text,what",
    [("{not json", "cannot parse spec"), ("missing", "cannot parse spec"),
     (json.dumps({k: v for k, v in SPEC.items() if k != "trials"}), "missing field 'trials'")],
    ids=["malformed", "unreadable", "missing_field"],
)
def test_simulate_bad_spec_exit_2(tmp_path, capsys, text, what):
    spec = tmp_path / "spec.json"
    if text != "missing":
        spec.write_text(text)
    assert run(["simulate", "--spec", str(spec)]) == 2
    assert what in capsys.readouterr().err


MISTYPED = [
    ({"k": "1"}, "k must be an integer, got '1'"),
    ({"k": 1.0}, "k must be an integer, got 1.0"),
    ({"k": True}, "k must be an integer, got True"),
    ({"test": "two_phase", "lambda1": "0.013", "lambda2": 0.001}, "threshold lambda1 must be >= 0 and a real number"),
    ({"lambda": False}, "threshold lam must be >= 0 and a real number"),
    ({"trials": 5.5}, "spec field trials must be an integer, got 5.5"),
    ({"trials": True}, "spec field trials must be an integer, got True"),
    ({"n_grid": [50.9]}, "spec field n_grid must be an integer, got 50.9"),
    ({"n_grid": []}, "spec field n_grid must be a non-empty list"),
    ({"n_grid": 50}, "spec field n_grid must be a non-empty list"),
    ({"seed": 1.9}, "spec field seed must be an integer, got 1.9"),
    ({"alpha": "2"}, "spec field alpha must be a number, got '2'"),
    ({"alpha": True}, "spec field alpha must be a number, got True"),
    ({"type_correction": "no"}, "spec field type_correction must be true or false, got 'no'"),
    ({"type_correction": 0}, "spec field type_correction must be true or false, got 0"),
    ({"truth": [[0]]}, "spec field truth must be null or a list of [i, j] pairs, got [[0]]"),
    ({"truth": 5}, "spec field truth must be null or a list of [i, j] pairs, got 5"),
    ({"truth": [[0.5, 0]]}, "spec field truth must be an integer, got 0.5"),
    ({"truth": [["0", 0]]}, "spec field truth must be an integer, got '0'"),
    ({"truth": [[False, 0]]}, "spec field truth must be an integer, got False"),
    ({"P": "abc"}, "P and Q must be lists, got str and list"),
    ({"P": [{"bern": "x"}, {"bern": 0.5}, {"bern": 0.9}]}, "bern must be a real number, got 'x'"),
    ({"P": [{"bern": True}, {"bern": 0.5}, {"bern": 0.9}]}, "bern must be a real number, got True"),
    ({"P": [["0.8", "0.2"], {"bern": 0.5}, {"bern": 0.9}]}, "distribution entry must be a list of numbers"),
    ({"alphabet_size": "2"}, "alphabet_size must be an integer, got '2'"),
    ({"test": ["two_phase"]}, "unknown test ['two_phase']"),
]


@pytest.mark.parametrize(
    "change,what", MISTYPED, ids=[",".join(f"{k}={v!r}" for k, v in c.items()) for c, _ in MISTYPED]
)
def test_simulate_mistyped_field_exit_2_no_output(tmp_path, capsys, change, what):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({**SPEC, **change}))
    out = tmp_path / "out.csv"
    assert run(["simulate", "--spec", str(spec), "--out", str(out)]) == 2
    assert what in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("dists,k,what", [
    ({"P": [{"bern": "x"}, {"bern": 0.2}], "Q": [{"bern": 0.2}]}, "1", "bern must be a real number, got 'x'"),
    ({"P": "ab", "Q": [{"bern": 0.2}]}, "1", "P and Q must be lists"),
    ({**DISTS, "alphabet_size": "2"}, "2", "alphabet_size must be an integer, got '2'"),
    (DISTS, "1", "dists encode 2 matched pairs, expected K=1"),
], ids=["bern_string", "p_string", "size_string", "k_disagrees"])
def test_exponent_bad_dists_exit_2_no_output(tmp_path, capsys, dists, k, what):
    path, out = tmp_path / "dists.json", tmp_path / "out.csv"
    path.write_text(json.dumps(dists))
    code = run(["exponent", "--dists", str(path), "--k", k, "--alpha", "2",
                "--lambda-grid", "0:0.01:0.01", "--out", str(out)])
    assert code == 2
    assert what in capsys.readouterr().err
    assert not out.exists()


def test_fmt_non_finite_and_bool():
    assert [cli._fmt(v) for v in (-math.inf, math.inf, math.nan, True, 0.1)] == ["-inf", "inf", "nan", "true", "0.1"]


def test_atomic_write_removes_its_temp_file_on_failure(tmp_path, monkeypatch):
    out = tmp_path / "out.csv"
    out.write_text("old\n")

    def fail(src, dst):
        raise OSError("replace failed")

    monkeypatch.setattr(cli.os, "replace", fail)
    with pytest.raises(OSError, match="replace failed"):
        cli._atomic_write(str(out), "new\n")
    # the target is untouched and no temp file is left beside it
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]
    assert out.read_text() == "old\n"


def test_parser_built_once_per_process():
    assert build_parser() is build_parser()


def test_simulate_integral_alpha_and_false_correction_accepted(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({**SPEC, "alpha": 2, "type_correction": False, "trials": 20}))
    assert run(["simulate", "--spec", str(spec)]) == 0
    assert capsys.readouterr().out.startswith("n,event,trials")


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
