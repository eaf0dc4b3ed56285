"""Known answers, the behaviour digest, and operation scoring.

``known_answers.json`` is written by hand from what each registry row
is designed to do: per row the verdict and the failing obligations; per
workload the exit code of a whole cold pass (for ``warm-edit``: of its
warm fill); per warm-edit target the stale programs, the re-verified and
total obligation counts and the cycle's exit code.  Each row also pins
the digest of its behaviour image (below), so a changed issue string or
witness kind fails the row even when its verdict holds.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any

ANSWERS_PATH = Path(__file__).resolve().parent / "known_answers.json"


def load_answers(path: Path = ANSWERS_PATH) -> dict[str, Any]:
    return json.loads(path.read_text(encoding="utf-8"))


def digest(value: Any) -> str:
    """Canonical hash of a JSON-able value."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def program_image(outcome: dict[str, Any]) -> dict[str, Any]:
    """The behaviour of one program, from ``ProgramOutcome.to_dict()`` or
    the per-program entry of a daemon ``verify`` frame (same shape):
    status, obligation counts per category, and each failing
    obligation's name, category, issue strings and witness kinds."""
    return {
        "program": outcome["program"],
        "status": outcome["status"],
        "obligations": dict(sorted((outcome.get("obligations") or {}).items())),
        "failures": sorted(
            [
                f["name"],
                f["category"],
                list(f.get("issues", [])),
                [w.get("kind") for w in f.get("witnesses", [])],
            ]
            for f in outcome.get("failures", [])
        ),
    }


def check_program(answers: dict[str, Any], image: dict[str, Any]) -> str | None:
    """Why one program's behaviour disagrees with its known answer."""
    name = image["program"]
    want = answers["programs"].get(name)
    if want is None:
        return f"{name}: no known answer"
    failing = sorted(f[0] for f in image["failures"])
    if image["status"] != want["verdict"] or failing != sorted(want["failing"]):
        return (
            f"{name}: {image['status']} {failing}, "
            f"expected {want['verdict']} {sorted(want['failing'])}"
        )
    got = digest(image)
    if got != want["digest"]:
        return f"{name}: behaviour digest {got}, expected {want['digest']}"
    return None


def score_pass(
    answers: dict[str, Any],
    workload: str,
    rows: list[str],
    images: list[dict[str, Any]],
    exit_code: int,
) -> list[str | None]:
    """One entry per row of a pass: ``None`` when the row's operation
    passed, else why it failed.  A wrong pass exit code fails every row."""
    want_exit = answers["passes"][workload]
    by_name = {i["program"]: i for i in images}
    reasons = []
    for name in rows:
        image = by_name.get(name)
        reason = f"{name}: no outcome" if image is None else check_program(answers, image)
        if reason is None and exit_code != want_exit:
            reason = f"{name}: pass exit {exit_code}, expected {want_exit}"
        reasons.append(reason)
    return reasons


def cycle_image(target: str, record: dict[str, Any], frame: dict[str, Any] | None) -> dict[str, Any]:
    """One warm-edit cycle's behaviour: the watcher's cycle record plus
    the images of the programs its re-verify reported."""
    payload = (frame or {}).get("payload") or {}
    return {
        "target": target,
        "exit": record["exit_code"],
        "stale": sorted(record["stale"]),
        "reverified": record.get("reverified", 0),
        "total": record.get("total", 0),
        "programs": sorted(
            (program_image(p) for p in payload.get("programs", [])),
            key=lambda p: p["program"],
        ),
    }


def score_cycle(answers: dict[str, Any], image: dict[str, Any]) -> str | None:
    """Why one cycle disagrees with its known answer, or ``None``."""
    want = answers["edits"][image["target"]]
    got = {k: image[k] for k in ("exit", "stale", "reverified", "total")}
    expect = {k: want[k] for k in ("exit", "stale", "reverified", "total")}
    expect["stale"] = sorted(expect["stale"])
    if got != expect:
        return f"{image['target']}: {got}, expected {expect}"
    for program in image["programs"]:
        reason = check_program(answers, program)
        if reason is not None:
            return f"{image['target']}: {reason}"
    return None
