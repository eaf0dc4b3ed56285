"""fcsl-lint: static analysis of concurroid/action/PCM/spec/program
definitions, plus the verifier pre-pass built on its facts.

Entry points:

* :func:`repro.analysis.runner.lint_registry` — sweep the Table 1 case
  studies (the ``python -m repro lint`` CLI).
* :func:`repro.analysis.race.race_registry` — the race/interference
  rules alone (the ``python -m repro race`` CLI).
* :func:`repro.analysis.liveness.live_registry` — lock-order, deadlock
  and bounded-liveness rules (FCSL050+, the ``python -m repro live``
  CLI), with :mod:`repro.analysis.lockorder` supplying the static
  lock-order graph.
* :func:`repro.analysis.interference.action_footprint` — the per-action
  footprint probe the race and lock-order rules build on.
* :func:`repro.analysis.prepass.static_prepass` — context manager that
  lets the dynamic verifiers skip provably-redundant stability
  obligations.
"""

from .deps import (
    Definition,
    DependencyAnalysis,
    DependencyCone,
    analyze_obligations,
    deps_registry,
)
from .diagnostics import (
    CODES,
    Diagnostic,
    SelectorError,
    Severity,
    render_json,
    render_text,
    select,
    worst_severity,
)
from .interference import Footprint, action_footprint, footprints_conflict
from .liveness import (
    FAIRNESS_CLAIMS,
    check_fairness,
    fairness_issues,
    find_live_cycles,
    live_registry,
    live_target,
)
from .lockorder import LockOrderGraph, build_lock_order, lockorder_target
from .prepass import StaticPrepass, static_prepass
from .race import race_registry, race_target
from .runner import lint_registry, lint_target

__all__ = [
    "CODES",
    "Definition",
    "DependencyAnalysis",
    "DependencyCone",
    "Diagnostic",
    "FAIRNESS_CLAIMS",
    "Footprint",
    "LockOrderGraph",
    "SelectorError",
    "Severity",
    "StaticPrepass",
    "action_footprint",
    "analyze_obligations",
    "build_lock_order",
    "check_fairness",
    "deps_registry",
    "fairness_issues",
    "find_live_cycles",
    "footprints_conflict",
    "lint_registry",
    "lint_target",
    "live_registry",
    "live_target",
    "lockorder_target",
    "race_registry",
    "race_target",
    "render_json",
    "render_text",
    "select",
    "static_prepass",
    "worst_severity",
]
