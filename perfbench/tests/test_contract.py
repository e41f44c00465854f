"""BENCHMARK.json agrees with the metrics the runner prints, and the tail
percentile rule. Run from the root of a checkout: python3 -m pytest perfbench/tests
"""

import json
import os
import re
import sys

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, HERE)

import pytest  # noqa: E402

import layers  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")


@pytest.fixture(scope="module")
def bench():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_metric_lists_match_the_runner(bench):
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == layers.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)


def test_names_bounds_and_setup(bench):
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"] + bench["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in bench["workloads"])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize(
    "n, index, beyond",
    [(1, 0, 0), (2, 1, 0), (7, 3, 3), (8, 4, 3), (21, 10, 10), (40, 29, 10), (100, 89, 10)],
)
def test_tail_keeps_ten_samples_beyond_or_half(n, index, beyond):
    samples = [float(i) for i in reversed(range(n))]
    value, pct, got_beyond = run.tail(samples)
    assert (value, got_beyond) == (float(index), beyond)
    assert pct == pytest.approx(100.0 * (index + 1) / n)


def test_op_times_at_reference_speed_pair_each_op_with_its_neighbouring_kernel_runs():
    import calib

    ref = calib.REF_S
    # op 0 ran between kernel runs at reference speed, op 1 between a run at
    # reference speed and one at half speed (mean 1.5 x REF_S)
    got = calib.at_reference([2.0, 3.0], [ref, ref, 2 * ref])
    assert got == pytest.approx([2.0, 2.0])
    with pytest.raises(ValueError):
        calib.at_reference([1.0, 1.0], [ref, ref])
