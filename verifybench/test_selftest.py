"""Self-tests of the benchmark (about 3 minutes on 2 vCPUs).

    python3 -m pytest verifybench -q

They run the real benchmark on short settings; the repository's own
test suite does not collect them.
"""

from __future__ import annotations

import argparse
import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import answers  # noqa: E402
import run  # noqa: E402


def _run(workload: str, trace: int) -> tuple[dict, dict, str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    assert proc.returncode == 0, proc.stdout + proc.stderr
    record = json.loads((ROOT / lines[-2].split(": ", 1)[1]).read_text())
    digest = lines[-3].split(": ", 1)[1]
    return json.loads(lines[-1]), record, digest


@pytest.fixture(scope="module")
def runs() -> dict:
    return {(w, t): _run(w, t) for w in run.WORKLOADS for t in (0, 1)}


def test_every_declared_metric_is_emitted_with_its_unit(runs):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
    for (workload, trace), (result, _, _) in runs.items():
        assert result["correct"] and result["failed"] == 0, (workload, trace)
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == declared[trace], (workload, trace)
        assert all(isinstance(v["value"], float) for v in result["metrics"].values())


def test_digest_is_the_same_traced_and_untraced(runs):
    for workload in run.WORKLOADS:
        assert runs[(workload, 0)][2] == runs[(workload, 1)][2], workload


def test_traced_warm_edit_has_the_untraced_stale_sets(runs):
    def stale_sets(record: dict) -> set:
        out = set()
        for sample in record["samples"]:
            for cycle in sample["value"][2]["cycles"]:
                image = cycle["image"]
                out.add((image["target"], tuple(image["stale"]),
                         image["reverified"], image["total"]))
        return out

    untraced = stale_sets(runs[("warm-edit", 0)][1])
    assert untraced and untraced == stale_sets(runs[("warm-edit", 1)][1])


def test_one_flipped_known_answer_is_exactly_one_failed_operation():
    flipped = copy.deepcopy(answers.load_answers())
    flipped["programs"]["CAS-lock"]["verdict"] = "failed"
    args = argparse.Namespace(workload="cold-light", seed=7, seconds=0, trace=0)
    result = run.Run(args, flipped).execute()
    assert result["attempted"] == len(run.COLD_LIGHT_ROWS)
    assert result["failed"] == 1
    assert not result["correct"]
