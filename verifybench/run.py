"""The repository's verification benchmark.

    python3 verifybench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every sample is a fresh interpreter
(``worker.py``) over the checkout's ``src/``; everything is serial, one
child at a time.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  See
``README.md`` beside this file for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

sys.dont_write_bytecode = True  # keep the benchmark's directory free of caches
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import answers as answers_mod  # noqa: E402
import layers  # noqa: E402
from hostrec import RunRecord, tree_digest, tree_stat  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".verifybench-work"
WORKER = HERE / "worker.py"

#: Hard per-run limit; children get what is left of it.
RUN_LIMIT_S = 170.0

COLD_LIGHT_ROWS = [
    "CAS-lock",
    "Ticketed lock",
    "CG increment",
    "CG allocator",
    "Pair snapshot",
    "Spanning tree",
    "Seq. stack",
    "FC-stack",
    "Prod/Cons",
    "Two-lock demo",
    "Unfair lock demo",
]
#: Flat combiner is left out: with it a cold-heavy pass takes 67-95 s on
#: a 2-vCPU host, which 26 cold-heavy runs cannot afford (see README).
COLD_HEAVY_ROWS = ["Treiber stack"]
#: The rows that have a ``structures.<row>.wall_s`` metric.
MEASURED_ROWS = COLD_LIGHT_ROWS[:5] + COLD_HEAVY_ROWS + COLD_LIGHT_ROWS[5:]

#: workload -> (kind, registry rows it verifies)
WORKLOADS = {
    "cold-heavy": ("cold", COLD_HEAVY_ROWS),
    "cold-light": ("cold", COLD_LIGHT_ROWS),
    "warm-edit": ("warm", COLD_LIGHT_ROWS),
}

#: Set-up-only interpreters per cold run, on top of each pass's own.
COLD_SETUP_SAMPLES = 5
#: Daemons per warm-edit run; each measures edit cycles for ``--seconds``.
WARM_SETUPS = 2

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def slug(program: str) -> str:
    return re.sub(r"[^A-Za-z0-9-]+", "_", program).strip("_")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name -> unit, in report order."""
    units: dict[str, str] = {}
    with_calls = {
        "core.protocol_closure", "core.check_concurroid", "core.check_action",
        "core.check_stability", "core.check_triple", "semantics.explore",
        "analysis.prepass", "engine.program_fingerprint", "engine.build_depgraph",
        "engine.cache.load", "engine.cache.store",
    }
    extra = {
        "core.protocol_closure": ["states"],
        "semantics.explore": ["explored", "deduped", "dedupe_ratio"],
        "analysis.prepass": ["discharged", "hit_ratio"],
        "engine.cache.load": ["hits"],
        "serve.reload": ["reloaded"],
        "serve.cycle": ["count", "stale_programs", "reverified", "total", "reverified_ratio"],
        "core.obligation": [f"{c}_s" for c in layers.CATEGORIES],
    }
    for span in layers.TARGETS:
        if span in with_calls:
            units[f"{span}.calls"] = "count"
        for name in extra.get(span, []):
            units[f"{span}.{name}"] = (
                "ratio" if name.endswith("ratio") else "s" if name.endswith("_s") else "count"
            )
        units[f"{span}.self_s"] = "s"
    for program in MEASURED_ROWS:
        units[f"structures.{slug(program)}.wall_s"] = "s"
    units.update(
        {"obs.traced_wall_s": "s", "obs.unattributed_s": "s", "obs.trace_overhead_ratio": "ratio"}
    )
    return units


# -- children ------------------------------------------------------------------


class ChildError(Exception):
    pass


def child_env(pythonpath: Path) -> dict[str, str]:
    """The children's environment: no ``REPRO_*`` overrides, and a
    bytecode cache kept in the work dir (never next to the sources) and
    always written, so every sample imports cached bytecode as an
    installed checkout would, whatever the caller's environment says."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(pythonpath)
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    return env


def spawn(
    mode: str, cfg: dict, *, pythonpath: Path, cwd: Path, deadline: float, log: Path
) -> tuple[float, dict, dict | None]:
    """Run one worker; return ``(setup seconds, ready line, result line)``.

    Set-up is timed from spawn until the worker's ready line arrives."""
    started = time.perf_counter()
    with open(log, "ab") as err:
        proc = subprocess.Popen(
            [sys.executable, str(WORKER), mode, json.dumps(cfg)],
            stdout=subprocess.PIPE,
            stderr=err,
            cwd=cwd,
            env=child_env(pythonpath),
        )
        try:
            lines: list[dict] = []
            ready_at = None
            buf = b""
            fd = proc.stdout.fileno()
            while True:
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    raise ChildError(f"{mode} worker exceeded the run limit")
                readable, _, _ = select.select([fd], [], [], remaining)
                if not readable:
                    continue
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    break
                buf += chunk
                while b"\n" in buf:
                    line, buf = buf.split(b"\n", 1)
                    try:
                        lines.append(json.loads(line))
                    except json.JSONDecodeError:
                        continue  # stray output of the program under test
                    if ready_at is None and lines[-1].get("ready"):
                        ready_at = time.perf_counter()
            code = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            raise ChildError(f"{mode} worker did not exit") from None
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
    if code != 0 or ready_at is None:
        raise ChildError(f"{mode} worker exited {code}; see {log}")
    result = lines[-1] if len(lines) > 1 else None
    return ready_at - started, lines[0], result


# -- workloads -----------------------------------------------------------------


class Run:
    """One run of one workload: samples, scoring, metrics."""

    def __init__(self, args: argparse.Namespace, answers: dict) -> None:
        self.args = args
        self.answers = answers
        self.kind, self.rows = WORKLOADS[args.workload]
        self.trace = bool(args.trace)
        self.rng = random.Random(args.seed)
        self.record = RunRecord(ROOT, args)
        self.dir = WORK / f"run-{os.getpid()}"
        self.log = WORK / "children.log"  # stderr of the last run's children
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        #: digests of every operation's behaviour image (a set: the run
        #: digest must not depend on order or on how many passes ran)
        self.behaviour: set[str] = set()
        self.setups: list[float] = []
        self.peaks: list[float] = []

    def op(self, reason: str | None, image: Any) -> None:
        self.attempted += 1
        self.behaviour.add(answers_mod.digest(image))
        if reason is not None:
            self.failed += 1
            self.reasons.append(reason)

    def spawn(self, kind: str, mode: str, cfg: dict, **kw: Any) -> tuple[float, dict, dict | None]:
        kw.setdefault("pythonpath", SRC)
        kw.setdefault("cwd", self.dir)
        return self.record.sample(
            kind,
            lambda: spawn(mode, cfg, deadline=self.deadline, log=self.log, **kw),
        )

    def score(self, images: list[dict], exit_code: int) -> None:
        reasons = answers_mod.score_pass(
            self.answers, self.args.workload, self.rows, images, exit_code
        )
        by_name = {i["program"]: i for i in images}
        for name, reason in zip(self.rows, reasons):
            self.op(reason, [exit_code, by_name.get(name)])

    # cold ---------------------------------------------------------------------

    def cold(self) -> dict[str, float]:
        cfg = {"rows": self.rows}
        # untimed: compiles the bytecode cache and warms the file cache
        spawn("setup", cfg, pythonpath=SRC, cwd=self.dir, deadline=self.deadline, log=self.log)
        for _ in range(COLD_SETUP_SAMPLES):
            self.setups.append(self.spawn("setup", "setup", cfg)[0])
        passes: list[dict] = []
        started = time.perf_counter()
        while not passes or time.perf_counter() - started < self.args.seconds:
            order = list(self.rows)
            self.rng.shuffle(order)
            cache_dir = self.dir / f"cache-{len(passes)}"
            pcfg = {"rows": order, "cache_dir": str(cache_dir), "trace": self.trace}
            try:
                setup, _, result = self.spawn("pass", "cold", pcfg)
            except ChildError as exc:
                self.score([], -1)
                self.reasons.append(str(exc))
                return {}
            shutil.rmtree(cache_dir, ignore_errors=True)
            self.setups.append(setup)
            self.peaks.append(result["peak_rss_mb"])
            self.score(result["programs"], result["exit"])
            passes.append(result)
        if not self.trace:
            return {
                "wall_s": statistics.median(p["wall_s"] for p in passes),
                "setup_s": statistics.median(self.setups),
                "peak_rss_mb": max(self.peaks),
            }
        return layer_metrics(
            passes, len(passes), sum(p["wall_s"] for p in passes), cycles=[]
        )

    # warm ---------------------------------------------------------------------

    def warm(self) -> dict[str, float]:
        sessions: list[dict] = []
        src_digest = tree_digest(SRC)
        for k in range(WARM_SETUPS):
            # A fixed home (not per run): the copy keeps its path and the
            # sources' mtimes, so its bytecode cache stays valid between
            # runs, as a user's would.
            home = WORK / f"warm-{k}"
            shutil.rmtree(home, ignore_errors=True)
            home.mkdir()
            copy = home / "src"
            shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
            subprocess.run(
                [sys.executable, "-m", "compileall", "-q", str(copy)],
                env=child_env(copy), check=True,
                timeout=max(1.0, self.deadline - time.perf_counter()),
            )
            cfg = {
                "rows": self.rows,
                "cache_dir": "cache",
                "socket": "daemon.sock",
                "report": "cycles.ndjson",
                "seed": self.args.seed * WARM_SETUPS + k,
                "seconds": self.args.seconds,
                "trace": self.trace,
            }
            try:
                setup, ready, result = self.spawn(
                    "session", "warm", cfg, pythonpath=copy, cwd=home
                )
            except ChildError as exc:
                self.score([], -1)
                self.reasons.append(str(exc))
                return {}
            self.setups.append(setup)
            self.peaks.append(result["peak_rss_mb"])
            self.score(ready["fill_programs"], ready["fill_exit"])
            for cycle in result["cycles"]:
                image = cycle["image"]
                self.op(answers_mod.score_cycle(self.answers, image), image)
            for problem in result["problems"]:
                self.op(problem, problem)
            if tree_digest(copy) != src_digest:
                self.op(f"session {k}: the private src/ copy was not restored", None)
            sessions.append(result)
        cycles = [c for s in sessions for c in s["cycles"]]
        if not self.trace:
            by_target: dict[str, list[float]] = {}
            for c in cycles:
                by_target.setdefault(c["image"]["target"], []).append(c["seconds"])
            return {
                "wall_s": sum(statistics.median(v) for v in by_target.values()),
                "setup_s": statistics.median(self.setups),
                "peak_rss_mb": max(self.peaks),
            }
        return layer_metrics(
            sessions,
            sum(s["rounds"] for s in sessions),
            sum(c["seconds"] for c in cycles),
            cycles=cycles,
        )

    # the run ------------------------------------------------------------------

    def execute(self) -> dict[str, Any]:
        repo_cache = ROOT / ".repro-cache"
        before = (tree_digest(SRC), tree_stat(SRC), tree_stat(repo_cache))
        self.dir.mkdir(parents=True)
        self.log.write_bytes(b"")
        try:
            values = self.cold() if self.kind == "cold" else self.warm()
        finally:
            shutil.rmtree(self.dir, ignore_errors=True)
        if (tree_digest(SRC), tree_stat(SRC), tree_stat(repo_cache)) != before:
            self.op("the checkout's src/ or .repro-cache/ changed during the run", None)
        units = per_layer_units() if self.trace else END_TO_END
        missing = sorted(set(units) - set(values))
        if missing:
            self.reasons.append(f"metrics not measured: {missing}")
        return {
            "correct": self.failed == 0 and not missing,
            "attempted": max(self.attempted, 1),
            "failed": self.failed,
            "metrics": {
                name: {"value": values[name], "unit": unit}
                for name, unit in units.items()
                if name in values
            },
        }


def layer_metrics(
    samples: list[dict], n: int, traced_wall: float, *, cycles: list[dict]
) -> dict[str, float]:
    """Per-layer metrics per pass (cold) or per round of the edit pool
    (warm): totals over the run's ``samples`` divided by ``n``."""
    calls = {k: sum(s["layers"]["calls"][k] for s in samples) for k in layers.TARGETS}
    self_s = {k: sum(s["layers"]["self_s"][k] for s in samples) for k in layers.TARGETS}
    counts: dict[str, float] = {}
    for s in samples:
        for key, value in s["layers"]["counts"].items():
            counts[key] = counts.get(key, 0) + value
    values = {key: total / n for key, total in counts.items()}
    for span in layers.TARGETS:
        values[f"{span}.calls"] = calls[span] / n
        values[f"{span}.self_s"] = self_s[span] / n
    explored = counts["semantics.explore.explored"]
    deduped = counts["semantics.explore.deduped"]
    values["semantics.explore.dedupe_ratio"] = (
        deduped / (explored + deduped) if explored + deduped else 0.0
    )
    prepass_calls = calls["analysis.prepass"]
    values["analysis.prepass.hit_ratio"] = (
        counts["analysis.prepass.discharged"] / prepass_calls if prepass_calls else 0.0
    )
    images = [c["image"] for c in cycles]
    reverified = sum(i["reverified"] for i in images)
    total = sum(i["total"] for i in images)
    values["serve.cycle.count"] = len(images) / n
    values["serve.cycle.stale_programs"] = sum(len(i["stale"]) for i in images) / n
    values["serve.cycle.reverified"] = reverified / n
    values["serve.cycle.total"] = total / n
    values["serve.cycle.reverified_ratio"] = reverified / total if total else 0.0
    program_seconds: dict[str, float] = {}
    for sample in cycles or samples:
        for program, seconds in sample["program_seconds"].items():
            program_seconds[program] = program_seconds.get(program, 0.0) + seconds
    for program in MEASURED_ROWS:
        values[f"structures.{slug(program)}.wall_s"] = program_seconds.get(program, 0.0) / n
    traced = traced_wall / n
    overhead = statistics.median(s["per_call_overhead_s"] for s in samples)
    overhead_s = overhead * sum(calls.values()) / n
    values["obs.traced_wall_s"] = traced
    values["obs.unattributed_s"] = traced - sum(self_s.values()) / n
    values["obs.trace_overhead_ratio"] = traced / max(traced - overhead_s, 1e-9)
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"verifybench: no sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    run = Run(args, answers_mod.load_answers())
    result = run.execute()
    digest = answers_mod.digest(sorted(run.behaviour))
    data = run.record.finish(result=result, reasons=run.reasons, digest=digest)
    records = WORK / "records"
    records.mkdir(exist_ok=True)
    path = records / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{int(data['started'])}.json"
    )
    path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    for reason in run.reasons:
        print(f"failed: {reason}")
    print(f"digest: {digest}")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
