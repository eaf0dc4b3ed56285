"""The sweep work queue: one work unit per program.

The supervisor's timeout/retry/backoff/quarantine machinery is generic
over "anything with a ``name``"; a :class:`WorkUnit` is what the engine
hands it.  A program's unit is one of:

* the whole program (unit id == program name) — the default;
* its incremental unit (fcsl-deps): only the obligations whose
  dependency cone contains an edit execute (``names``), and the engine
  splices the cached verdicts of the rest back in plan order;
* its collect-while-verifying unit (``collect_deps``): a full run that
  also records the obligation plan, for a cold incremental entry.

Units are also the journal's replay granularity: each carries a stable
unit id under which its terminal record is journaled, and a
whole-program record is replayed on ``--resume``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any

from ..structures.registry import ProgramInfo


@dataclass(frozen=True)
class WorkUnit:
    """One schedulable/journalable/retryable program run.

    Duck-type-compatible with the supervisor's task descriptors (it
    exposes ``name``) and picklable (``ProgramInfo`` crosses the pool
    boundary).
    """

    info: ProgramInfo
    #: Incremental mode (fcsl-deps): the exact obligation *names* this
    #: unit re-executes — every other obligation of the program replays
    #: from its cached per-obligation fingerprint.
    names: frozenset[str] | None = None
    #: Collect-while-verifying (fcsl-deps, cold incremental entries):
    #: the worker records the obligation plan as it executes and ships
    #: the per-obligation fingerprint map home in its payload, so the
    #: verifier's setup runs once instead of once per phase.
    collect_deps: bool = False
    #: Incremental units under a closure snapshot table: the cone key of
    #: each setup protocol closure, in call order
    #: (:func:`repro.engine.depgraph.closure_keys`).
    closure_keys: tuple[str | None, ...] | None = None

    @property
    def program(self) -> str:
        return self.info.name

    @property
    def name(self) -> str:
        """The unit id (supervisor key + journal key).

        Incremental units key on a digest of their sorted stale-name
        set, never on the bare program name: their payload is a partial
        report, which ``--resume`` must not replay as the program's
        verdict.
        """
        if self.names is None:
            return self.info.name
        digest = hashlib.sha256(
            "\x1f".join(sorted(self.names)).encode("utf-8")
        ).hexdigest()[:8]
        return f"{self.info.name}::inc-{digest}"


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
