"""The sweep work queue: (program, obligation-group) units.

The supervisor's timeout/retry/backoff/quarantine machinery is generic
over "anything with a ``name``" — ROADMAP's verification-as-a-service
item asks that it supervise a *work queue of (program, obligation)
units* rather than whole programs.  This module provides that
decomposition:

* In the default ``program`` mode a unit is one whole case study —
  exactly the pre-existing behaviour, unit id == program name.
* In ``group`` mode (``repro verify --split-obligations``) each program
  fans out into one unit per obligation category (Libs/Conc/Acts/Stab/
  Main).  A unit re-runs the verifier with its group installed as the
  obligation filter (:class:`repro.core.verify.VerifyOptions`), so
  only its group's obligations execute; the engine merges the
  partial reports back and the merged verdicts are gated for equality
  with the monolithic run.  The payoff is fault granularity: a
  pathological ``Main`` obligation times out and retries *alone*, its
  program's ``Libs`` lemmas keep their verdicts (and their retry
  budget).

Units are also the journal's replay granularity: each carries a stable
``unit_id`` (``program`` or ``program::Group``) under which its terminal
record is journaled and replayed on ``--resume``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from ..core.verify import CATEGORIES, VerificationReport
from ..structures.registry import ProgramInfo

#: Separator between program name and group in a unit id.  Registry
#: names never contain it (they are Table 1 row labels).
UNIT_SEP = "::"

#: Order infra statuses win a program's merged status (worst first).
_INFRA_PRIORITY = ("crashed", "timeout", "error", "interrupted")


@dataclass(frozen=True)
class WorkUnit:
    """One schedulable/journalable/retryable slice of a sweep.

    Duck-type-compatible with the supervisor's task descriptors (it
    exposes ``name``) and picklable (``ProgramInfo`` already crosses the
    pool boundary for whole-program dispatch).
    """

    info: ProgramInfo
    #: Obligation-category group, or ``None`` for the whole program.
    group: str | None = None
    #: Incremental mode (fcsl-deps): the exact obligation *names* this
    #: unit re-executes — every other obligation of the program replays
    #: from its cached per-obligation fingerprint.  Mutually exclusive
    #: with ``group``.
    names: frozenset[str] | None = None
    #: Collect-while-verifying (fcsl-deps, cold incremental entries):
    #: the worker records the obligation plan as it executes and ships
    #: the per-obligation fingerprint map home in its payload, so the
    #: verifier's setup runs once instead of once per phase.  Only
    #: meaningful on whole-program units.
    collect_deps: bool = False

    @property
    def program(self) -> str:
        return self.info.name

    @property
    def name(self) -> str:
        """The unit id (supervisor key + journal key).

        Incremental units key on a digest of their sorted stale-name
        set: deterministic for a given edit, so ``--resume`` after a
        crash recomputes the same stale set and replays the same unit.
        """
        if self.names is not None:
            digest = hashlib.sha256(
                "\x1f".join(sorted(self.names)).encode("utf-8")
            ).hexdigest()[:8]
            return f"{self.info.name}{UNIT_SEP}inc-{digest}"
        if self.group is None:
            return self.info.name
        return f"{self.info.name}{UNIT_SEP}{self.group}"


def unit_mode(split: bool) -> str:
    return "group" if split else "program"


def decompose(
    programs: Sequence[ProgramInfo], *, split: bool = False
) -> list[WorkUnit]:
    """The work queue for ``programs``: one unit per program, or one per
    (program, obligation-category) when ``split``.

    Group units are emitted in ``CATEGORIES`` order so the merged
    report's obligations are deterministically ordered.
    """
    if not split:
        return [WorkUnit(info) for info in programs]
    return [
        WorkUnit(info, group)
        for info in programs
        for group in CATEGORIES
    ]


def units_for(info: ProgramInfo, *, split: bool = False) -> list[WorkUnit]:
    return decompose([info], split=split)


@dataclass
class UnitRecord:
    """One unit's terminal state, from live execution or journal replay."""

    unit: WorkUnit
    #: ``report`` (verdict payload exists) or an infra status.
    status: str
    payload: dict[str, Any] | None = None
    error: dict[str, Any] | None = None
    retries: int = 0
    seconds: float = 0.0
    #: True iff this record was replayed from the sweep journal.
    replayed: bool = False


@dataclass
class ProgramMerge:
    """A program's outcome folded back together from its units."""

    report: VerificationReport | None
    #: ``ok``/``failed`` (verdict) or the worst infra status.
    status: str
    retries: int = 0
    seconds: float = 0.0
    error: dict[str, Any] | None = None
    units: int = 0
    replayed_units: int = 0


def merge_program(
    info: ProgramInfo, records: Iterable[UnitRecord]
) -> ProgramMerge:
    """Fold a program's unit records into one outcome.

    Every unit must carry a verdict payload for the program to have a
    report; any infra unit quarantines the whole program (report
    ``None`` — a partial verdict is not a verdict), keeping the
    engine's pre-unit contract.  Retries and wall seconds are summed
    across units.
    """
    records = list(records)
    retries = sum(r.retries for r in records)
    seconds = sum(r.seconds for r in records)
    replayed = sum(1 for r in records if r.replayed)
    infra = [r for r in records if r.status != "report"]
    if infra:
        worst = min(
            infra,
            key=lambda r: (
                _INFRA_PRIORITY.index(r.status)
                if r.status in _INFRA_PRIORITY
                else len(_INFRA_PRIORITY)
            ),
        )
        return ProgramMerge(
            report=None,
            status=worst.status,
            retries=retries,
            seconds=seconds,
            error=worst.error,
            units=len(records),
            replayed_units=replayed,
        )
    merged = VerificationReport(info.name)
    for record in records:
        partial = VerificationReport.from_dict(record.payload["report"])
        merged.obligations.extend(partial.obligations)
    return ProgramMerge(
        report=merged,
        status="ok" if merged.ok else "failed",
        retries=retries,
        seconds=seconds,
        units=len(records),
        replayed_units=replayed,
    )
