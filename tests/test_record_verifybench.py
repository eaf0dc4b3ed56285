"""benchmarks/record_verifybench.py keeps every pair it records.

Recording a workload again under an existing label adds the new pairs
to the ones already there and recomputes the medians, quartiles, change
wins and digests over all of them.  Driven on synthetic pairs: no
benchmark runs here.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "record_verifybench.py"


@pytest.fixture(scope="module")
def rv():
    spec = importlib.util.spec_from_file_location("record_verifybench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(wall: float, digest: str = "d-1") -> dict:
    return {
        "exit": 0,
        "correct": True,
        "attempted": 3,
        "failed": 0,
        "digest": digest,
        "wall_s": wall,
        "setup_s": wall / 10,
        "peak_rss_mb": 100.0,
    }


def _pair(seed: int, parent: float, change: float, **change_kw) -> dict:
    return {
        "seed": seed,
        "first": "parent",
        "parent": _run(parent),
        "change": _run(change, **change_kw),
    }


def test_first_recording_summarizes_its_pairs(rv):
    row = {"label": "x", "workloads": {}}
    entry = rv.merge_workload(
        row, "cold-light", [_pair(1, 2.0, 1.0), _pair(2, 4.0, 3.0)],
        seconds=12.0, parent_sha="abc",
    )
    assert row["workloads"]["cold-light"] is entry
    assert entry["seeds"] == [1, 2]
    assert entry["change"]["wall_s"]["median"] == pytest.approx(2.0)
    assert entry["change_wins"]["wall_s"] == 2
    assert entry["correct"]


def test_recording_again_appends_and_recomputes(rv):
    row = {"label": "x", "parent_sha": "abc", "workloads": {}}
    rv.merge_workload(
        row, "cold-light", [_pair(1, 2.0, 1.0), _pair(2, 4.0, 3.0)],
        seconds=12.0, parent_sha="abc",
    )
    entry = rv.merge_workload(
        row, "cold-light", [_pair(3, 6.0, 9.0, digest="d-2")],
        seconds=12.0, parent_sha="abc",
    )
    assert entry["seeds"] == [1, 2, 3]
    assert len(entry["pairs"]) == 3
    # Medians and quartiles over all three pairs, not the last run's one.
    assert entry["parent"]["wall_s"] == {"median": 4.0, "q1": 3.0, "q3": 5.0}
    assert entry["change"]["wall_s"] == {"median": 3.0, "q1": 2.0, "q3": 6.0}
    assert entry["change_wins"]["wall_s"] == 2
    assert entry["change"]["digests"] == ["d-1", "d-2"]
    assert entry["parent"]["digests"] == ["d-1"]


def test_other_workloads_are_left_alone(rv):
    row = {"label": "x", "parent_sha": "abc", "workloads": {}}
    rv.merge_workload(row, "cold-heavy", [_pair(1, 9.0, 8.0)], seconds=12.0, parent_sha="abc")
    rv.merge_workload(row, "warm-edit", [_pair(1, 2.0, 1.0)], seconds=12.0, parent_sha="abc")
    assert row["workloads"]["cold-heavy"]["seeds"] == [1]
    assert row["workloads"]["warm-edit"]["seeds"] == [1]


def test_pairs_that_do_not_compare_are_refused(rv):
    row = {"label": "x", "parent_sha": "abc", "workloads": {}}
    rv.merge_workload(row, "cold-light", [_pair(1, 2.0, 1.0)], seconds=12.0, parent_sha="abc")
    with pytest.raises(ValueError, match="parent"):
        rv.merge_workload(
            row, "cold-light", [_pair(2, 2.0, 1.0)], seconds=12.0, parent_sha="def"
        )
    with pytest.raises(ValueError, match="--seconds"):
        rv.merge_workload(
            row, "cold-light", [_pair(2, 2.0, 1.0)], seconds=6.0, parent_sha="abc"
        )
    assert row["workloads"]["cold-light"]["seeds"] == [1]
    # Another workload of the row still shares its parent, not its
    # run length; a new row has nothing to disagree with.
    assert rv.incompatible(row, "warm-edit", seconds=12.0, parent_sha="def")
    assert rv.incompatible(row, "warm-edit", seconds=6.0, parent_sha="abc") is None
    assert rv.incompatible(None, "cold-light", seconds=6.0, parent_sha="def") is None
