"""One benchmark child process: a fresh interpreter per sample.

``python3 worker.py MODE CONFIG_JSON`` with ``PYTHONPATH`` pointing at
the sources under test.  Every mode prints one ``{"ready": ...}`` line
once set-up is over (the parent times spawn -> ready as ``setup_s``) and
then one result line.

* ``setup``: import ``repro``, resolve the workload's registry rows, stop.
* ``cold``: the same set-up, then one cold serial ``run_sweep`` into an
  empty private cache directory.
* ``warm``: start a resident daemon, warm-fill it through its socket,
  take the fingerprint baseline; then run rounds of seed-ordered edits,
  each edit and its undo pushed through ``Watcher.handle_change``.
"""

from __future__ import annotations

import ast
import json
import os
import random
import resource
import sys
import time
from pathlib import Path

# Bytecode (of repro and of these files) is cached under the
# PYTHONPYCACHEPREFIX the parent sets, never next to the sources.
sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
from answers import cycle_image, program_image  # noqa: E402

#: Behaviour-neutral edits for ``warm-edit``: name -> (module, how).
#: ``("method", "Class.meth")`` inserts a comment as the method's first
#: body line; ``("trailing", None)`` appends a comment line to the file.
EDITS = {
    "ticketed-leaf": ("repro.structures.locks.ticketed", ("method", "TicketWriteResAction.step")),
    "caslock-shared": ("repro.structures.locks.caslock", ("method", "CASLock.acquire")),
    "trailing-comment": ("repro.structures.locks.ticketed", ("trailing", None)),
}


def emit(obj: dict) -> None:
    print(json.dumps(obj), flush=True)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def edited_text(text: str, how: tuple[str, str | None]) -> str:
    kind, qualname = how
    if kind == "trailing":
        return text + "# benchmark edit: trailing comment\n"
    cls_name, method = qualname.split(".")
    for node in ast.parse(text).body:
        if isinstance(node, ast.ClassDef) and node.name == cls_name:
            for child in node.body:
                if isinstance(child, ast.FunctionDef) and child.name == method:
                    first = child.body[0]
                    lines = text.splitlines(keepends=True)
                    indent = " " * first.col_offset
                    lines.insert(first.lineno - 1, f"{indent}# benchmark edit\n")
                    return "".join(lines)
    raise LookupError(f"{qualname} not found")


def run_cold(cfg: dict) -> dict:
    from repro.engine import run_sweep

    started = time.perf_counter()
    result = run_sweep(cfg["rows"], jobs=1, cache_dir=cfg["cache_dir"])
    wall = time.perf_counter() - started
    return {
        "wall_s": wall,
        "exit": result.exit_code(),
        "programs": [program_image(o.to_dict()) for o in result.outcomes],
        "program_seconds": {o.name: o.seconds for o in result.outcomes},
        "peak_rss_mb": peak_rss_mb(),
    }


class _Writer:
    """Writes one source file of the private copy, each write with a
    strictly larger mtime: the watcher polls ``(mtime, size)`` and
    bytecode caches are validated by mtime, so two versions of a file
    must never share one."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self.original = path.read_bytes()
        self.mtime_ns = path.stat().st_mtime_ns
        self.writes = 0

    def write(self, data: bytes) -> None:
        self.writes += 1
        self.path.write_bytes(data)
        os.utime(self.path, ns=(self.mtime_ns + self.writes * 10**9,) * 2)


def run_warm(cfg: dict, rec: layers.Recorder | None) -> dict:
    import importlib.util

    from repro.serve import DaemonServer, Session, Watcher, call

    session = Session(cache_dir=cfg["cache_dir"])
    server = DaemonServer(session, socket_path=cfg["socket"])
    server.start()
    try:
        fill = call(
            "verify", {"programs": cfg["rows"]}, socket_path=cfg["socket"], timeout=170
        )
        session.refresh_fingerprints()  # the watcher's baseline

        class RecordingWatcher(Watcher):
            """Keeps the verify frame of each cycle: its per-program
            results are what the known answers check."""

            last_frame: dict | None = None

            def _verify(self, stale):
                self.last_frame = super()._verify(stale)
                return self.last_frame

        watcher = RecordingWatcher(server, report_path=cfg["report"])
        writers = {
            module: _Writer(Path(importlib.util.find_spec(module).origin))
            for module, __ in EDITS.values()
        }
        emit(
            {
                "ready": True,
                "fill_exit": fill.get("exit_code"),
                "fill_programs": [
                    program_image(p) for p in (fill.get("payload") or {}).get("programs", [])
                ],
            }
        )
        if rec is not None:
            rec.reset()
        rng = random.Random(cfg["seed"])
        cycles: list[dict] = []
        problems: list[str] = []
        rounds = 0
        deadline = time.perf_counter() + cfg["seconds"]
        while rounds == 0 or time.perf_counter() < deadline:
            order = list(EDITS)
            rng.shuffle(order)
            for name in order:
                module, how = EDITS[name]
                writer = writers[module]
                original = writer.original
                for target, data in (
                    (name, edited_text(original.decode("utf-8"), how).encode("utf-8")),
                    (f"{name}/undo", original),
                ):
                    writer.write(data)
                    watcher.last_frame = None
                    started = time.perf_counter()
                    code = watcher.handle_change([str(writer.path)])
                    seconds = time.perf_counter() - started
                    with open(cfg["report"], encoding="utf-8") as fh:
                        record = json.loads(fh.readlines()[-1])
                    if record["exit_code"] != code:
                        problems.append(f"{target}: record/exit mismatch")
                    payload = (watcher.last_frame or {}).get("payload") or {}
                    cycles.append(
                        {
                            "image": cycle_image(target, record, watcher.last_frame),
                            "seconds": seconds,
                            "program_seconds": {
                                p["program"]: p["seconds"] for p in payload.get("programs", [])
                            },
                        }
                    )
                if writer.path.read_bytes() != original:
                    problems.append(f"{name}: undo did not restore the source")
            rounds += 1
        return {
            "cycles": cycles,
            "rounds": rounds,
            "problems": problems,
            "peak_rss_mb": peak_rss_mb(),
        }
    finally:
        server.stop()


def main() -> int:
    mode, cfg = sys.argv[1], json.loads(sys.argv[2])
    rec = layers.Recorder() if cfg.get("trace") else None
    if mode == "warm":
        import repro.serve  # noqa: F401  (bound before tracing rebinds aliases)
    from repro.engine import resolve_programs

    resolve_programs(cfg["rows"])
    uninstall = layers.install(rec) if rec is not None else None
    if mode == "warm":
        out = run_warm(cfg, rec)
    else:
        emit({"ready": True})
        if mode == "setup":
            return 0
        out = run_cold(cfg)
    if rec is not None:
        out["layers"] = rec.snapshot()
        uninstall()
        out["per_call_overhead_s"] = layers.per_call_overhead()
    emit(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
