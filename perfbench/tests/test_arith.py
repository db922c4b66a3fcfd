"""Arithmetic of the benchmark harness on synthetic spans and task results.

    python3 -m pytest perfbench/tests
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
import tracer  # noqa: E402


def test_self_time_subtracts_children():
    # 0: [0, 10] root; 1: [1, 4] and 2: [5, 9] children of 0; 3: [2, 3] under 1
    parent = [-1, 0, 0, 1]
    start = [0.0, 1.0, 5.0, 2.0]
    end = [10.0, 4.0, 9.0, 3.0]
    assert tracer.self_times(parent, start, end) == pytest.approx([3.0, 2.0, 4.0, 1.0])


def test_self_time_merges_overlapping_and_clips_children():
    # children [1, 5] and [3, 7] overlap: they cover [1, 7], not 8 s;
    # child [8, 12] is clipped to its parent's end at 10
    parent = [-1, 0, 0, 0]
    start = [0.0, 1.0, 3.0, 8.0]
    end = [10.0, 5.0, 7.0, 12.0]
    own = tracer.self_times(parent, start, end)
    assert own[0] == pytest.approx(10.0 - 6.0 - 2.0)
    assert own[1:] == pytest.approx([4.0, 4.0, 4.0])


def test_self_time_of_leaves_is_duration():
    assert tracer.self_times([-1, -1], [0.0, 2.0], [1.5, 2.25]) == \
        pytest.approx([1.5, 0.25])


def _spans_file(tmp_path, names, ids, parent, start, end, counters, import_s):
    path = tmp_path / f"{len(list(tmp_path.iterdir()))}.npz"
    np.savez(path, names=np.array(names), name=np.array(ids, dtype=np.int32),
             parent=np.array(parent, dtype=np.int32),
             start=np.array(start), end=np.array(end),
             meta=np.array(json.dumps({"import_s": import_s, "exit": 0,
                                       "counters": counters})))
    return path


def test_layer_metrics_sums_over_tasks(tmp_path):
    a = _spans_file(tmp_path, ["cli.main", "gns.gns_construct", "gns.sample_gram"],
                    [0, 1, 2, 2], [-1, 0, 1, 1],
                    [0.0, 1.0, 2.0, 4.0], [10.0, 9.0, 3.0, 5.0],
                    {"gns.psi_evals": 7, "gns.retained_dim": 4,
                     "gns.retained_samples": 16}, 0.5)
    b = _spans_file(tmp_path, ["cli.main", "gns.sample_gram"],
                    [0, 1], [-1, 0], [0.0, 1.0], [2.0, 1.5],
                    {"gns.psi_evals": 3}, 0.25)
    m = tracer.layer_metrics([a, b])
    assert set(m) == {name for name, _ in tracer.LAYER_METRICS}
    assert m["cli.import_s"] == pytest.approx(0.75)
    assert m["cli.main.self_s"] == pytest.approx(2.0 + 1.5)
    assert m["gns.gns_construct.self_s"] == pytest.approx(6.0)
    assert m["gns.sample_gram.calls"] == 3
    assert m["gns.sample_gram.self_s"] == pytest.approx(2.5)
    assert m["gns.self_s"] == pytest.approx(8.5)
    assert m["gns.psi_evals"] == 10
    assert m["gns.retained_ratio"] == pytest.approx(0.25)
    assert m["enveloping.s_mul.calls"] == 0


def _result(wall, failure=None, rss=50.0):
    return {"wall_s": wall, "rss_mb": rss, "failure": failure}


def test_summary_median_and_fail_frac():
    results = [_result(3.0), _result(1.0, rss=80.0), _result(2.0, "exit 0, expected 2"),
               _result(10.0)]
    m = run.summarize(results, wall_s=20.0)
    assert m["task_p50_s"] == pytest.approx(2.5)
    assert m["fail_frac"] == pytest.approx(0.25)
    assert m["ok_frac"] == pytest.approx(0.75)
    assert m["tasks_per_s"] == pytest.approx(3 / 20.0)
    assert m["peak_rss_mb"] == 80.0
    assert (m["tasks"], m["failed"], m["known"]) == (4, 1, 0)


def test_known_defect_counts_in_fail_frac_but_not_as_unexpected():
    results = [_result(1.0), _result(1.0, "exit 0, expected 2"),
               _result(1.0, "exit 1, expected 0")]
    results[1]["known_defect"] = True
    m = run.summarize(results, wall_s=3.0)
    assert m["fail_frac"] == pytest.approx(2 / 3)
    assert (m["failed"], m["known"]) == (2, 1)
    assert run.unexpected(results) == [results[2]]


def test_known_defect_matches_only_its_exact_outcome():
    task = {"exit": 2, "passed": False, "checks": [],
            "known_defect": {"exit": 0, "passed": True}}
    assert run.shows_known_defect(task, 0, json.dumps({"passed": True}))
    assert not run.shows_known_defect(task, 0, json.dumps({"passed": False}))
    assert not run.shows_known_defect(task, 0, "not json")
    assert not run.shows_known_defect(task, 1, json.dumps({"passed": False}))
    assert not run.shows_known_defect({"exit": 2, "passed": False, "checks": []},
                                      0, json.dumps({"passed": True}))


def test_verdict_reads_exit_code_and_report():
    task = {"exit": 1, "passed": False, "checks": ["extension"]}
    report = json.dumps({"passed": False, "checks": [{"name": "extension"}]})
    assert run.verdict(task, 1, report) is None
    assert run.verdict(task, 0, report) == "exit 0, expected 1"
    assert "lacks checks" in run.verdict(
        task, 1, json.dumps({"passed": False, "checks": []}))
    assert "passed=True" in run.verdict(
        task, 1, json.dumps({"passed": True, "checks": [{"name": "extension"}]}))
    assert run.verdict({"exit": 2, "passed": False, "checks": []}, 2, "") is None
