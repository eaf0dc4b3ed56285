"""The durable sweep journal (``.repro-cache/journal/sweep.jsonl``).

A sweep killed hard — kill -9, the OOM-killer, power loss — used to lose
every in-flight verdict: the obligation cache persists only *completed*
program stores, and the ``SweepResult`` lives in the dying process.  The
journal closes that gap with an append-only, fsync'd record of every
work unit's lifecycle:

* ``sweep:start`` — the unit ids, per-program content fingerprints and
  verdict-relevant flags of a fresh sweep (the file is truncated first:
  one journal per cache directory, covering the most recent sweep);
* ``sweep:resume`` — a resumed sweep appends instead of truncating, so
  a resume that itself crashes remains resumable;
* ``unit:leased`` — a unit was handed to a worker, with its attempt
  number and lease length (the supervisor's per-attempt deadline); a
  lease that never reaches ``unit:done`` is exactly what resume
  re-executes;
* ``unit:done`` — a unit finished with a verdict payload (the
  serialized :class:`~repro.core.verify.VerificationReport`, partial for
  an incremental unit), or was replayed from the obligation cache
  (``via="cache"``);
* ``unit:failed`` — a unit ended in an infrastructure status
  (``error``/``timeout``/``crashed``): recorded for forensics, but
  *re-executed* on resume — a quarantine is not a verdict;
* ``sweep:end`` / ``sweep:interrupted`` — the terminal record with the
  exit code; its absence is how ``--resume`` knows the previous sweep
  died mid-flight.

Durability and self-healing
---------------------------

Every line is ``<crc32> <json>\\n``; the CRC is verified on read and the
payload is fsync'd before the append returns, so the journal survives
the very crash it exists to describe.  A crash mid-append leaves a torn
final line (or a line whose CRC does not match): :func:`read_journal`
drops such lines instead of failing — a torn tail costs one unit's
re-execution, never the journal.

A journal write that raises (full disk — injectable via the ``diskfull``
fault kind) flips the journal into a *broken* state: subsequent appends
become no-ops, the sweep completes without durability, and the engine
surfaces one warning.  Losing the journal must never lose the sweep.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..obs.tracer import instant as _trace_instant
from .faults import maybe_diskfull, maybe_sigkill

#: Bump when the record layout changes; a journal with a different
#: schema is ignored by ``--resume`` (full re-run, never a misparse).
JOURNAL_SCHEMA_VERSION = 1

#: Journal location inside a cache directory.
JOURNAL_DIRNAME = "journal"
JOURNAL_FILENAME = "sweep.jsonl"


def journal_path(cache_root: Path | str) -> Path:
    """Where the sweep journal lives for a given cache directory."""
    return Path(cache_root) / JOURNAL_DIRNAME / JOURNAL_FILENAME


def _encode(record: dict[str, Any]) -> str:
    text = json.dumps(record, separators=(",", ":"), sort_keys=True)
    crc = zlib.crc32(text.encode("utf-8")) & 0xFFFFFFFF
    return f"{crc:08x} {text}\n"


def _decode(line: str) -> dict[str, Any] | None:
    """One parsed record, or ``None`` for a torn/corrupt line."""
    head, sep, text = line.rstrip("\n").partition(" ")
    if not sep:
        return None
    try:
        if int(head, 16) != (zlib.crc32(text.encode("utf-8")) & 0xFFFFFFFF):
            return None
        record = json.loads(text)
    except (ValueError, OverflowError):
        return None
    return record if isinstance(record, dict) else None


def read_journal(path: Path | str) -> list[dict[str, Any]]:
    """All intact records of ``path`` (missing file: ``[]``).

    Torn or corrupt lines are dropped, not fatal: the journal's job is
    to survive crashes, including crashes of its own writer.
    """
    path = Path(path)
    try:
        raw = path.read_text(encoding="utf-8")
    except OSError:
        return []
    records = []
    for line in raw.splitlines():
        if not line.strip():
            continue
        record = _decode(line)
        if record is not None and record.get("schema") == JOURNAL_SCHEMA_VERSION:
            records.append(record)
    return records


class SweepJournal:
    """Append-side handle: one instance per sweep, owned by the parent.

    All methods are crash-safe *for the sweep*: an append that raises
    marks the journal broken (``broken`` carries the reason) and every
    later call no-ops.  The engine turns ``broken`` into one warning.
    """

    def __init__(self, path: Path | str):
        self.path = Path(path)
        self.broken: str | None = None
        self._fh = None

    # -- plumbing --------------------------------------------------------------

    def _append(self, record: dict[str, Any], *, truncate: bool = False) -> None:
        if self.broken is not None:
            return
        record = {"schema": JOURNAL_SCHEMA_VERSION, **record}
        try:
            maybe_diskfull(str(record.get("program", "")), "journal")
            if self._fh is None or truncate:
                if self._fh is not None:
                    self._fh.close()
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._fh = open(
                    self.path, "w" if truncate else "a", encoding="utf-8"
                )
            self._fh.write(_encode(record))
            self._fh.flush()
            os.fsync(self._fh.fileno())
        except OSError as exc:
            self.broken = f"{type(exc).__name__}: {exc}"
            try:
                if self._fh is not None:
                    self._fh.close()
            except OSError:
                pass
            self._fh = None
            _trace_instant("journal:broken", "journal", reason=self.broken)
            return
        _trace_instant("journal:append", "journal", event=record.get("event"))

    def close(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:
                pass
            self._fh = None

    # -- lifecycle records -----------------------------------------------------

    def begin(
        self,
        fingerprints: dict[str, str],
        units: list[str],
        *,
        resume: bool = False,
        flags: dict[str, Any] | None = None,
    ) -> None:
        """Open the sweep: truncating ``sweep:start``, or an appended
        ``sweep:resume`` that updates fingerprints without discarding
        the previous sweep's unit records."""
        self._append(
            {
                "event": "sweep:resume" if resume else "sweep:start",
                "fingerprints": fingerprints,
                "units": units,
                "flags": flags or {},
            },
            truncate=not resume,
        )

    def unit_leased(
        self,
        unit_id: str,
        program: str,
        *,
        attempt: int,
        lease_seconds: float | None,
    ) -> None:
        """A unit went in-flight.  Leases are advisory forensics: resume
        re-executes any unit whose lease never reached ``unit:done``,
        and the supervisor enforces expiry (its per-attempt deadline)
        by killing and re-dispatching the worker."""
        self._append(
            {
                "event": "unit:leased",
                "unit": unit_id,
                "program": program,
                "attempt": attempt,
                "lease_seconds": lease_seconds,
            }
        )

    def unit_done(
        self,
        unit_id: str,
        program: str,
        status: str,
        *,
        payload: dict[str, Any] | None = None,
        error: dict[str, Any] | None = None,
        retries: int = 0,
        seconds: float = 0.0,
        via: str = "run",
    ) -> None:
        """One unit reached a terminal state.  ``status`` ``report`` /
        ``failed-verdict``-bearing payloads are replayable; infra
        statuses are recorded with ``event=unit:failed`` and re-executed
        on resume.  After a verdict-bearing append the ``sigkill`` fault
        point fires — the deterministic stand-in for a hard crash."""
        verdict = status == "report"
        self._append(
            {
                "event": "unit:done" if verdict else "unit:failed",
                "unit": unit_id,
                "program": program,
                "status": status,
                "payload": payload if verdict else None,
                "error": error,
                "retries": retries,
                "seconds": seconds,
                "via": via,
            }
        )
        if verdict:
            maybe_sigkill(program)

    def finish(self, exit_code: int, *, interrupted: bool = False) -> None:
        self._append(
            {
                "event": "sweep:interrupted" if interrupted else "sweep:end",
                "exit_code": exit_code,
            }
        )
        self.close()


# -- the replay side -----------------------------------------------------------


@dataclass
class JournalImage:
    """What ``--resume`` reconstructs from the on-disk journal."""

    #: Last-seen fingerprint per program (``sweep:start`` + resumes).
    fingerprints: dict[str, str] = field(default_factory=dict)
    #: Last verdict-bearing record per unit id.
    done: dict[str, dict[str, Any]] = field(default_factory=dict)
    #: True when a terminal ``sweep:end`` record exists (clean finish).
    completed: bool = False
    #: True when any sweep-level record was found at all.
    exists: bool = False

    def replayable(self, unit_id: str, program: str, fingerprint: str):
        """The journaled record for ``unit_id``, iff its program's
        fingerprint still matches (an edited program re-runs fresh)."""
        if self.fingerprints.get(program) != fingerprint:
            return None
        return self.done.get(unit_id)


def load_image(path: Path | str) -> JournalImage:
    """Fold the journal into the latest-wins :class:`JournalImage`."""
    image = JournalImage()
    for record in read_journal(path):
        event = record.get("event")
        if event in ("sweep:start", "sweep:resume"):
            image.exists = True
            image.completed = False
            fingerprints = record.get("fingerprints")
            if isinstance(fingerprints, dict):
                image.fingerprints.update(fingerprints)
            if event == "sweep:start":
                image.done.clear()
        elif event == "unit:done":
            unit = record.get("unit")
            if isinstance(unit, str) and record.get("payload") is not None:
                image.done[unit] = record
        elif event == "unit:failed":
            unit = record.get("unit")
            if isinstance(unit, str):
                # A quarantine is not a verdict: forget any earlier
                # payload so the unit re-executes on resume.
                image.done.pop(unit, None)
        elif event == "sweep:end":
            image.completed = True
    return image
