"""Self-time arithmetic and span recording of perfbench/spans.py.

Run from the root of a checkout: python3 -m pytest perfbench/tests
"""

import os
import sys
import types

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import pytest  # noqa: E402

from spans import Patches, Tracer, self_times, union_length  # noqa: E402


def test_union_of_disjoint_nested_and_overlapping_intervals():
    assert union_length([], 0.0, 10.0) == 0.0
    assert union_length([(1, 2), (4, 6)], 0, 10) == pytest.approx(3.0)
    # nested: (2, 3) lies inside (1, 5)
    assert union_length([(1, 5), (2, 3)], 0, 10) == pytest.approx(4.0)
    # overlapping: (1, 4) and (3, 6) cover 1..6
    assert union_length([(3, 6), (1, 4)], 0, 10) == pytest.approx(5.0)
    # touching intervals, and intervals clipped to the parent
    assert union_length([(1, 2), (2, 3)], 0, 10) == pytest.approx(2.0)
    assert union_length([(-5, 2), (8, 20)], 0, 10) == pytest.approx(4.0)
    assert union_length([(11, 12)], 0, 10) == 0.0


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),      # child of root
        ("a.1", 2.0, 3.0, 1, 0),    # grandchild: inside a, not subtracted from root again
        ("b", 3.0, 6.0, 0, 0),      # overlaps a: root loses 1..6, not 3 + 3
        ("c", 9.0, 12.0, 0, 0),     # runs past root's end: only 9..10 counts
    ]
    st = self_times(spans)
    assert st[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert st[1] == pytest.approx(3.0 - 1.0)
    assert st[2] == pytest.approx(1.0)
    assert st[3] == pytest.approx(3.0)
    assert st[4] == pytest.approx(3.0)


def test_tracer_records_nesting_counts_and_restores():
    mod = types.SimpleNamespace()
    mod.inner = lambda x: [x] * x
    mod.outer = lambda x: len(mod.inner(x))
    mod.leaf = lambda: None
    originals = (mod.inner, mod.outer, mod.leaf)
    with Patches() as patches:
        tr = Tracer(patches)
        tr.span(mod, "outer", "outer")
        tr.span(mod, "inner", "inner", (("items", len),))
        tr.count(mod, "leaf", "leaf_calls")
        tr.span(mod, "gone", "gone")
        tr.op = 7
        assert mod.outer(3) == 3
        mod.leaf()
        mod.leaf()
    assert (mod.inner, mod.outer, mod.leaf) == originals
    names = [s[0] for s in tr.spans]
    assert names == ["outer", "inner"]
    assert tr.spans[1][3] == 0 and tr.spans[0][3] == -1
    assert all(s[4] == 7 for s in tr.spans)
    assert tr.spans[0][1] <= tr.spans[1][1] <= tr.spans[1][2] <= tr.spans[0][2]
    assert tr.counters == {"items": 3, "leaf_calls": 2}
    assert tr.missing == ["SimpleNamespace.gone"]


def test_classmethod_wrapping_keeps_binding():
    class Thing:
        @classmethod
        def make(cls, v):
            return cls, v

    raw = vars(Thing)["make"]
    with Patches() as patches:
        tr = Tracer(patches)
        tr.span(Thing, "make", "make")
        assert Thing.make(1) == (Thing, 1)
    assert vars(Thing)["make"] is raw
    assert [s[0] for s in tr.spans] == ["make"]
