"""repro.engine — the parallel, cached, supervised verification engine.

``python -m repro verify`` and the evaluation's Table 1 sweep both run
through :func:`run_sweep`: each registry case study is one work unit,
and the units fan out across a process pool (one worker per case
study, fcsl-lint pre-pass installed per worker) under a fault-tolerant
supervisor — or run in-process through the supervisor's one serial
runner under ``--jobs 1`` — and verdicts are replayed from a persistent
on-disk obligation cache keyed by content fingerprint.  See :mod:`repro.engine.engine` for the orchestration,
:mod:`repro.engine.supervisor` for timeouts/retries/worker isolation,
:mod:`repro.engine.faults` for the deterministic fault-injection
(chaos) layer, :mod:`repro.engine.cache` for the self-healing cache
layout and :mod:`repro.engine.fingerprint` for the invalidation rules.

Durability (``--resume`` after a hard crash) is provided by
:mod:`repro.engine.journal` (the fsync'd sweep journal),
:mod:`repro.engine.queue` (the per-program work units the journal
replays) and :mod:`repro.engine.watchdog` (soft resource budgets with
graceful degradation).
"""

from .cache import (
    CORRUPT_DIRNAME,
    DEFAULT_CACHE_DIR,
    ENV_CACHE_DIR,
    ObligationCache,
    default_cache_dir,
    report_checksum,
)
from .engine import (
    EXIT_INFRA,
    ProgramOutcome,
    SweepResult,
    default_jobs,
    resolve_programs,
    run_sweep,
    sweep,
)
from .faults import (
    ENV_FAULTS,
    FaultPlan,
    FaultSpec,
    FaultSpecError,
    InjectedFault,
)
from .fingerprint import (
    CACHE_SCHEMA_VERSION,
    framework_digest,
    module_source,
    program_fingerprint,
)
from .journal import (
    JOURNAL_SCHEMA_VERSION,
    JournalImage,
    SweepJournal,
    journal_path,
    load_image,
    read_journal,
)
from .queue import UnitRecord, WorkUnit
from .supervisor import (
    INFRA_STATUSES,
    SupervisionOutcome,
    Supervisor,
    SupervisorConfig,
    TaskResult,
)
from .watchdog import (
    LEVEL_NAMES,
    SHED_AT,
    SHRINK_AT,
    STOP_AT,
    ResourceWatchdog,
    dir_bytes,
    tree_rss_bytes,
)

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CORRUPT_DIRNAME",
    "DEFAULT_CACHE_DIR",
    "ENV_CACHE_DIR",
    "ENV_FAULTS",
    "EXIT_INFRA",
    "FaultPlan",
    "FaultSpec",
    "FaultSpecError",
    "INFRA_STATUSES",
    "InjectedFault",
    "JOURNAL_SCHEMA_VERSION",
    "JournalImage",
    "LEVEL_NAMES",
    "ObligationCache",
    "ProgramOutcome",
    "ResourceWatchdog",
    "SHED_AT",
    "SHRINK_AT",
    "STOP_AT",
    "SupervisionOutcome",
    "Supervisor",
    "SupervisorConfig",
    "SweepJournal",
    "SweepResult",
    "TaskResult",
    "UnitRecord",
    "WorkUnit",
    "default_cache_dir",
    "default_jobs",
    "dir_bytes",
    "framework_digest",
    "journal_path",
    "load_image",
    "module_source",
    "program_fingerprint",
    "read_journal",
    "report_checksum",
    "resolve_programs",
    "run_sweep",
    "sweep",
    "tree_rss_bytes",
]
