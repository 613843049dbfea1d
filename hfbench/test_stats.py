"""Tests of the benchmark's pure arithmetic.

    python3 -m pytest hfbench/test_stats.py -q
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import cache_digest  # noqa: E402
import stats  # noqa: E402


class TestPercentile:
    def test_nearest_rank_and_beyond(self):
        values = list(range(1, 101))  # 1..100
        assert stats.nearest_rank(values, 50) == (50, 50)
        assert stats.nearest_rank(values, 95) == (95, 5)
        assert stats.nearest_rank(values, 100) == (100, 0)

    def test_rank_rounds_up_and_ignores_input_order(self):
        assert stats.nearest_rank([3.0, 1.0, 2.0], 50) == (2.0, 1)
        assert stats.nearest_rank([5.0], 95) == (5.0, 0)
        assert stats.nearest_rank([4.0, 1.0, 3.0, 2.0], 50) == (2.0, 2)

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            stats.nearest_rank([], 50)
        with pytest.raises(ValueError):
            stats.nearest_rank([1.0], 0)

    def test_client_rate_sums_per_client_rates(self):
        assert stats.client_rate([(4, 2.0), (3, 3.0)]) == pytest.approx(3.0)
        assert stats.client_rate([(0, 0.0), (2, 4.0)]) == pytest.approx(0.5)


class TestSelfTime:
    def test_disjoint_children(self):
        spans = [
            {"id": "p", "parent": None, "t0": 0, "t1": 100},
            {"id": "a", "parent": "p", "t0": 10, "t1": 30},
            {"id": "b", "parent": "p", "t0": 50, "t1": 60},
        ]
        assert stats.self_times(spans) == {"p": 70, "a": 20, "b": 10}

    def test_overlapping_children_counted_once(self):
        # Two children in other threads or processes overlap on [20, 30].
        spans = [
            {"id": "p", "parent": None, "t0": 0, "t1": 100},
            {"id": "a", "parent": "p", "t0": 10, "t1": 30},
            {"id": "b", "parent": "p", "t0": 20, "t1": 40},
            {"id": "c", "parent": "p", "t0": 40, "t1": 45},
        ]
        assert stats.self_times(spans)["p"] == 100 - 35

    def test_children_clipped_to_parent(self):
        spans = [
            {"id": "p", "parent": None, "t0": 10, "t1": 20},
            {"id": "a", "parent": "p", "t0": 5, "t1": 15},
        ]
        assert stats.self_times(spans)["p"] == 5

    def test_grandchildren_do_not_reduce_grandparent(self):
        spans = [
            {"id": "p", "parent": None, "t0": 0, "t1": 100},
            {"id": "a", "parent": "p", "t0": 0, "t1": 50},
            {"id": "g", "parent": "a", "t0": 0, "t1": 40},
        ]
        assert stats.self_times(spans) == {"p": 50, "a": 10, "g": 40}


IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       100 |        100 | _io
import time:        50 |         50 |       scipy._lib
import time:        30 |         80 |     scipy
import time:        20 |         20 |       scipy.linalg._x
import time:        40 |         60 |     scipy.linalg
import time:        10 |         10 |     numpy
import time:       500 |        650 |   repro.analog
import time:         5 |        655 | repro
not an import line
import time:         7 |          7 | scipy.stats
"""


class TestImportTime:
    def test_tree_shape(self):
        roots = stats.parse_importtime(IMPORTTIME.splitlines())
        assert [r["name"] for r in roots] == ["_io", "repro", "scipy.stats"]
        repro = roots[1]
        assert [c["name"] for c in repro["children"]] == ["repro.analog"]
        analog = repro["children"][0]
        assert [c["name"] for c in analog["children"]] == [
            "scipy", "scipy.linalg", "numpy"]
        assert analog["children"][0]["children"][0]["name"] == "scipy._lib"

    def test_outermost_entries_only(self):
        roots = stats.parse_importtime(IMPORTTIME.splitlines())
        # repro's cumulative time already holds repro.analog's.
        assert stats.import_seconds(roots, "repro") == pytest.approx(655e-6)
        # scipy (80) + scipy.linalg (60) + scipy.stats (7); scipy._lib and
        # scipy.linalg._x sit inside them.
        assert stats.import_seconds(roots, "scipy") == pytest.approx(147e-6)
        # a prefix is a package name, not a string prefix
        assert stats.import_seconds(roots, "rep") == 0

    def test_module_count(self):
        roots = stats.parse_importtime(IMPORTTIME.splitlines())
        assert stats.module_count(roots) == 9


class TestOrder:
    def test_balanced_in_every_block(self):
        order = stats.balanced_order(["classic", "ocsa"], 50, seed=3)
        assert len(order) == 100
        for i in range(0, 100, 2):
            assert sorted(order[i:i + 2]) == ["classic", "ocsa"]

    def test_seed_decides_order(self):
        kinds = ["a", "b", "c", "d"]
        assert stats.balanced_order(kinds, 20, 7) == stats.balanced_order(kinds, 20, 7)
        assert stats.balanced_order(kinds, 20, 7) != stats.balanced_order(kinds, 20, 8)


REPORT = {
    "schema_version": "campaign-report/3",
    "workers": 2,
    "wall_seconds": 3.2,
    "cache_dir": "/somewhere",
    "cache_hits": 0,
    "cache_misses": 7,
    "quarantined": {},
    "chips": {"classic": {
        "seconds": 3.1,
        "retries": 0,
        "summary": {"topology": "classic", "lanes_matched": 1, "exact": True},
        "stages": [
            {"stage": "layout", "disposition": "run", "seconds": 0.1,
             "payload_bytes": 10, "notes": {"n_pairs": 1.0}},
            {"stage": "reveng", "disposition": "run", "seconds": 0.2,
             "payload_bytes": 20,
             "notes": {"devices_extracted": 13.0, "deadline_remaining_s": 4.0}},
        ],
    }},
}


class TestCanonical:
    def test_strips_only_timing_and_machine_local_fields(self):
        canon = stats.canonical(REPORT)
        assert set(canon) == {"schema_version", "quarantined", "chips"}
        chip = canon["chips"]["classic"]
        assert set(chip) == {"retries", "summary", "stages"}
        assert chip["summary"] == REPORT["chips"]["classic"]["summary"]
        assert chip["stages"][0] == {"stage": "layout", "payload_bytes": 10,
                                     "notes": {"n_pairs": 1.0}}
        assert chip["stages"][1]["notes"] == {"devices_extracted": 13.0}

    def test_result_changes_change_the_digest(self):
        changed = {**REPORT, "chips": {"classic": {
            **REPORT["chips"]["classic"],
            "stages": [REPORT["chips"]["classic"]["stages"][0],
                       {**REPORT["chips"]["classic"]["stages"][1],
                        "notes": {"devices_extracted": 12.0}}],
        }}}
        timing_only = {**REPORT, "wall_seconds": 9.9, "cache_dir": "/elsewhere"}
        base = stats.digest(stats.canonical(REPORT))
        assert stats.digest(stats.canonical(timing_only)) == base
        assert stats.digest(stats.canonical(changed)) != base

    def test_input_untouched(self):
        stats.canonical(REPORT)
        assert REPORT["wall_seconds"] == 3.2

    def test_result_view_matches_a_warm_rerun(self):
        warm = {**REPORT, "chips": {"classic": {
            **REPORT["chips"]["classic"],
            "stages": [
                {"stage": "layout", "disposition": "skip", "seconds": 0.0,
                 "payload_bytes": 10, "notes": {}},
                {**REPORT["chips"]["classic"]["stages"][1], "disposition": "hit"},
            ],
        }}}
        assert stats.result_view(warm) == stats.result_view(REPORT)
        assert stats.canonical(warm) != stats.canonical(REPORT)


class _Volume:
    def __init__(self, data, pitch):
        self.data = data
        self.pitch = pitch


class _Slotted:
    __slots__ = ("images",)

    def __init__(self, images):
        self.images = images


class TestCacheDigest:
    np = pytest.importorskip("numpy")

    def digest(self, payloads):
        return cache_digest.combine([cache_digest.array_digest(a)
                                     for p in payloads for a in cache_digest.arrays(p)])

    def test_finds_arrays_in_containers_objects_and_slots(self):
        a, b, c = (self.np.full((2, 3), v, dtype="f4") for v in (1, 2, 3))
        payload = {"volume": _Volume(a, 6.0), "stack": _Slotted([b, (c, "x")])}
        assert {id(x) for x in cache_digest.arrays(payload)} == {id(a), id(b), id(c)}

    def test_order_nesting_and_shared_references_do_not_matter(self):
        a, b = self.np.arange(6).reshape(2, 3), self.np.ones(4)
        one = [{"views": {"x": a, "y": b}, "again": a}]
        other = [{"b": [b]}, {"a": _Volume(a, 1.0)}]
        assert self.digest(one) == self.digest(other)

    def test_contents_dtype_and_shape_matter(self):
        a = self.np.arange(6, dtype="i4")
        base = self.digest([a])
        assert self.digest([a.astype("i8")]) != base
        assert self.digest([a.reshape(2, 3)]) != base
        changed = a.copy()
        changed[5] = 0
        assert self.digest([changed]) != base
        assert self.digest([a.copy()]) == base
