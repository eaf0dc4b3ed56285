"""Record a verifybench trajectory row: parent vs change, in alternating pairs.

    python3 benchmarks/record_verifybench.py --label framing-masks \\
        --parent-rev HEAD --workload cold-heavy --seeds 1-7 [--seconds 12]

Run from the root of a checkout.  The *change* is this checkout's working
tree; the *parent* is ``--parent-rev``, exported with ``git archive`` into
a scratch directory (``--work-dir``, default a fresh temporary directory,
removed afterwards).  For every seed the tool runs
``python3 verifybench/run.py --workload W --seed N --seconds S --trace 0``
once in each tree, one run at a time, alternating which tree goes first,
and keeps the end-to-end metrics each run prints.

The row is written to ``BENCH_verify.json`` at the root of the checkout
(``--out``), keyed by ``--label``: recording another workload under the
same label adds it to that row, and recording a workload again adds its
new pairs to the ones already there, with every summary recomputed over
all of them (pairs against another parent or with another ``--seconds``
do not compare, so such a run is refused before it starts).  A row
holds the parent and change shas,
the core count, the Python version, the seeds, every pair's metrics and
behaviour digests, and per side the median and quartiles of each metric.
The tool writes nothing under ``verifybench/`` and never touches
``BENCHMARK.json``; the benchmark's own scratch space is each tree's
``.verifybench-work/``.  Exit status: 0 when every run was correct, 1
otherwise (the row is still written, with ``correct`` false).
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("wall_s", "setup_s", "peak_rss_mb")
SCHEMA = 1


def parse_seeds(text: str) -> list[int]:
    """``"1-7"`` or ``"1,3,5"`` -> seeds."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, sep, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi) + 1) if sep else [int(lo)])
    return seeds


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """The files of commit ``rev``, written under ``dest``."""
    archive = subprocess.Popen(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, stdout=subprocess.PIPE
    )
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise subprocess.CalledProcessError(archive.returncode, "git archive")


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict[str, Any]:
    """One untraced verifybench run in ``tree``: its metrics, digest and
    correctness."""
    proc = subprocess.run(
        [
            sys.executable,
            "verifybench/run.py",
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", "0",
        ],
        cwd=tree,
        capture_output=True,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    digest = next((l.split(": ", 1)[1] for l in lines if l.startswith("digest: ")), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    return {
        "exit": proc.returncode,
        "correct": bool(result["correct"]) and proc.returncode == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "digest": digest,
        **{m: result["metrics"].get(m, {}).get("value") for m in METRICS},
    }


def summary(values: list[float]) -> dict[str, float]:
    """Median and quartiles (inclusive method: defined for any n >= 1)."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def record(args: argparse.Namespace, parent: Path) -> list[dict[str, Any]]:
    """Alternating parent/change runs, one pair per seed."""
    pairs = []
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair: dict[str, Any] = {"seed": seed, "first": order[0]}
        for side in order:
            tree = parent if side == "parent" else ROOT
            pair[side] = run_bench(tree, args.workload, seed, args.seconds)
            print(f"seed {seed} {side}: {json.dumps(pair[side])}", flush=True)
        pairs.append(pair)
    return pairs


def summarize(pairs: list[dict[str, Any]], seconds: float) -> dict[str, Any]:
    """A workload entry: ``pairs`` with the medians, quartiles, digests,
    per-metric change wins and correctness over all of them."""
    stats: dict[str, Any] = {}
    for side in ("parent", "change"):
        stats[side] = {
            m: summary([p[side][m] for p in pairs if p[side][m] is not None]) for m in METRICS
        }
        stats[side]["digests"] = sorted({p[side]["digest"] for p in pairs})
    wins = {
        m: sum(
            1
            for p in pairs
            if None not in (p["parent"][m], p["change"][m]) and p["change"][m] < p["parent"][m]
        )
        for m in METRICS
    }
    return {
        "seeds": [p["seed"] for p in pairs],
        "seconds": seconds,
        "pairs": pairs,
        **stats,
        "change_wins": wins,
        "correct": all(p[s]["correct"] for p in pairs for s in ("parent", "change")),
    }


def incompatible(
    row: dict[str, Any] | None, workload: str, *, seconds: float, parent_sha: str
) -> str | None:
    """Why new pairs for ``workload`` cannot join ``row`` (``None`` when
    they can): every workload of a row is measured against one parent,
    and the pairs of one workload with one run length."""
    if not (row or {}).get("workloads"):
        return None
    if row.get("parent_sha") != parent_sha:
        return f"row {row['label']!r} was recorded against parent {row.get('parent_sha')}"
    entry = row["workloads"].get(workload)
    if entry is not None and entry["seconds"] != seconds:
        return f"{workload!r} was recorded with --seconds {entry['seconds']}"
    return None


def merge_workload(
    row: dict[str, Any],
    workload: str,
    pairs: list[dict[str, Any]],
    *,
    seconds: float,
    parent_sha: str,
) -> dict[str, Any]:
    """Add ``pairs`` to ``row``'s entry for ``workload`` and recompute
    its summary over every pair, old and new."""
    problem = incompatible(row, workload, seconds=seconds, parent_sha=parent_sha)
    if problem is not None:
        raise ValueError(problem)
    earlier = row["workloads"].get(workload, {}).get("pairs", [])
    entry = row["workloads"][workload] = summarize(earlier + pairs, seconds)
    return entry


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="row key: one row per change")
    parser.add_argument("--parent-rev", default="HEAD", help="git revision of the parent")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-7"))
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--work-dir", type=Path, default=None)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_verify.json")
    args = parser.parse_args(argv)

    parent_sha = git("rev-parse", args.parent_rev)
    trajectory = (
        json.loads(args.out.read_text(encoding="utf-8"))
        if args.out.exists()
        else {"schema": SCHEMA, "rows": []}
    )
    row = next((r for r in trajectory["rows"] if r["label"] == args.label), None)
    problem = incompatible(
        row, args.workload, seconds=args.seconds, parent_sha=parent_sha
    )
    if problem is not None:
        print(f"record_verifybench: {problem}; use another --label", file=sys.stderr)
        return 2

    work = args.work_dir or Path(tempfile.mkdtemp(prefix="record-verifybench-"))
    parent = work / "parent"
    if parent.exists():
        shutil.rmtree(parent)
    parent.mkdir(parents=True)
    try:
        export(args.parent_rev, parent)
        pairs = record(args, parent)
    finally:
        shutil.rmtree(parent, ignore_errors=True)
        if args.work_dir is None:
            shutil.rmtree(work, ignore_errors=True)

    head = git("rev-parse", "HEAD")
    dirty = bool(git("status", "--porcelain", "--", "src"))
    if row is None:
        row = {"label": args.label, "workloads": {}}
        trajectory["rows"].append(row)
    result = merge_workload(
        row, args.workload, pairs, seconds=args.seconds, parent_sha=parent_sha
    )
    row.update(
        {
            "recorded": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
            "parent_sha": parent_sha,
            # the change's own commit, or (src/ dirty) the commit it was measured over
            "change_sha": head,
            "change_src_dirty": dirty,
            "cores": os.cpu_count(),
            "python": platform.python_version(),
        }
    )
    args.out.write_text(json.dumps(trajectory, indent=1) + "\n", encoding="utf-8")
    for side in ("parent", "change"):
        wall = result[side]["wall_s"]
        print(
            f"{side}: wall_s median {wall['median']:.3f} "
            f"(q1 {wall['q1']:.3f}, q3 {wall['q3']:.3f}) digests {result[side]['digests']}"
        )
    print(
        f"change won wall_s in {result['change_wins']['wall_s']}/"
        f"{len(result['pairs'])} pairs"
    )
    print(f"wrote {args.out}")
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
