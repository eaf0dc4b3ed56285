"""Diagnostic core of fcsl-lint.

Every rule in :mod:`repro.analysis` reports through this module: a
:class:`Diagnostic` carries a *stable* code (``FCSL001``..), a severity,
the object it fired on, a human message and — when the offending object
is ordinary Python (a transition's ``requires``, an action's ``step``, a
spec's ``post``) — the source location of that definition.

The code table is append-only: codes are part of the tool's interface
(``--select FCSL010``, CI baselines), so renumbering is a breaking
change.  New rules take the next free number in their block:

* ``FCSL00x`` — protocol (concurroid) rules
* ``FCSL01x`` — atomic-action rules
* ``FCSL02x`` — spec / assertion rules
* ``FCSL03x`` — program (DSL) rules
* ``FCSL04x`` — PCM algebra rules (040-044), race/interference rules (045-)
* ``FCSL05x`` — liveness / lock-order rules (fcsl-live)

Selectors (``--select``) are uniform across every tool (lint, race,
live): an exact code (``FCSL050``), a prefix (``FCSL05``), an ``x``
wildcard per digit (``FCSL05x``), or an inclusive range
(``FCSL050-059`` / ``FCSL050-FCSL059``).
"""

from __future__ import annotations

import enum
import inspect
import json
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence


class Severity(enum.IntEnum):
    """Ordered so that ``max`` over diagnostics picks the worst."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    def __str__(self) -> str:  # "error", not "Severity.ERROR"
        return self.name.lower()


@dataclass(frozen=True)
class SourceLoc:
    """Where the offending definition lives (best effort)."""

    file: str
    line: int

    def __str__(self) -> str:
        return f"{self.file}:{self.line}"


#: code -> (severity, slug, one-line description)
CODES: dict[str, tuple[Severity, str, str]] = {
    # -- protocol (concurroids) -------------------------------------------------
    "FCSL001": (
        Severity.ERROR,
        "vacuous-coherence",
        "the coherence predicate rejects every modelled state",
    ),
    "FCSL002": (
        Severity.WARNING,
        "dead-transition",
        "a declared transition is enabled in no reachable modelled state",
    ),
    "FCSL003": (
        Severity.ERROR,
        "reserved-idle-name",
        "a transition is explicitly named 'idle' (idle is implicit in correspondence)",
    ),
    "FCSL004": (
        Severity.ERROR,
        "duplicate-transition-name",
        "two transitions of one concurroid share a name",
    ),
    "FCSL005": (
        Severity.ERROR,
        "unmodelled-label",
        "an owned label appears in no modelled state",
    ),
    "FCSL006": (
        Severity.WARNING,
        "inert-entangled-part",
        "an entangled component is never changed by any transition",
    ),
    # -- atomic actions ---------------------------------------------------------
    "FCSL010": (
        Severity.ERROR,
        "footprint-escape",
        "an action's step touches heap cells outside its declared footprint",
    ),
    "FCSL011": (
        Severity.ERROR,
        "undeclared-allocation",
        "an action changes the real heap domain without declaring allocates=True",
    ),
    "FCSL012": (
        Severity.ERROR,
        "no-corresponding-transition",
        "an action's step matches neither idle nor any declared transition",
    ),
    "FCSL013": (
        Severity.WARNING,
        "dead-action",
        "an action is safe in no modelled state (never executable)",
    ),
    "FCSL014": (
        Severity.WARNING,
        "anonymous-action",
        "an action kept the default name; reports will be unreadable",
    ),
    # -- specs / assertions -----------------------------------------------------
    "FCSL020": (
        Severity.WARNING,
        "brute-forced-self-framed",
        "an opaque assertion is observably self-framed; route it through "
        "self_framed() for free stability instead of closure exploration",
    ),
    "FCSL021": (
        Severity.INFO,
        "unread-snapshot",
        "the postcondition binds the pre-state snapshot but never reads it",
    ),
    "FCSL022": (
        Severity.WARNING,
        "vacuous-precondition",
        "the precondition rejects every modelled state; the triple checks nothing",
    ),
    # -- programs (the prog DSL) ------------------------------------------------
    "FCSL030": (
        Severity.ERROR,
        "actless-loop",
        "a recursive (ffix) body performs no atomic action: guaranteed divergence",
    ),
    "FCSL031": (
        Severity.WARNING,
        "aliased-par",
        "both par branches are the same program object (shared self component)",
    ),
    "FCSL032": (
        Severity.ERROR,
        "hide-collision",
        "hide installs a label that is already present in the enclosing scope",
    ),
    "FCSL033": (
        Severity.ERROR,
        "unscoped-action",
        "a program acts on a concurroid whose labels the scope does not provide",
    ),
    # -- PCM algebra ------------------------------------------------------------
    "FCSL040": (
        Severity.ERROR,
        "non-commutative-join",
        "join is observably non-commutative on the sample",
    ),
    "FCSL041": (
        Severity.ERROR,
        "non-associative-join",
        "join is observably non-associative on the sample",
    ),
    "FCSL042": (
        Severity.ERROR,
        "broken-unit",
        "the declared unit is not a (valid) identity for join",
    ),
    "FCSL043": (
        Severity.INFO,
        "degenerate-sample",
        "the PCM sample has fewer than two elements; algebra laws are vacuous",
    ),
    "FCSL044": (
        Severity.ERROR,
        "validity-not-monotone",
        "a valid join has an invalid sub-element (validity must be monotone)",
    ),
    # -- races / interference (fcsl-race) ----------------------------------------
    "FCSL045": (
        Severity.ERROR,
        "non-atomic-rmw",
        "a joint-heap cell is read and later written non-atomically while the "
        "protocol lets the environment change it in between",
    ),
    "FCSL046": (
        Severity.WARNING,
        "stale-read-no-recheck",
        "a value read from an interference-prone cell guards later writes but "
        "no downstream action's guard ever rechecks the cell",
    ),
    "FCSL047": (
        Severity.ERROR,
        "unstable-other-assertion",
        "an assertion sensitive to other-thread state is not closed under the "
        "declared concurroid transitions",
    ),
    "FCSL048": (
        Severity.ERROR,
        "foreign-footprint",
        "an action's observed heap footprint escapes its own concurroid's "
        "labelled components",
    ),
    # -- liveness / lock order (fcsl-live) ----------------------------------------
    "FCSL050": (
        Severity.ERROR,
        "deadlock-cycle",
        "the lock-order graph has a cycle: a schedule exists where each "
        "thread holds one lock of the cycle while acquiring the next",
    ),
    "FCSL051": (
        Severity.WARNING,
        "acquire-without-release",
        "a program path acquires a lock and no sequentially later action "
        "on that path ever releases it",
    ),
    "FCSL052": (
        Severity.ERROR,
        "self-acquire-under-hold",
        "a program path re-acquires a lock it already holds; for a "
        "non-reentrant lock this is guaranteed self-deadlock",
    ),
    "FCSL053": (
        Severity.INFO,
        "unordered-lock-pair",
        "parallel branches acquire two locks with no nesting edge either "
        "way: deadlock-free, but no ordering discipline is established",
    ),
    "FCSL054": (
        Severity.WARNING,
        "non-progressing-loop",
        "a recursive loop spins on cells no environment transition can "
        "change: entered unsatisfied, it can never exit",
    ),
    "FCSL055": (
        Severity.ERROR,
        "livelock-cycle",
        "bounded exploration found a schedule revisiting a configuration "
        "family with threads stepping but none progressing",
    ),
    "FCSL056": (
        Severity.ERROR,
        "fairness-violation",
        "a lock claiming FIFO fairness admits a bounded schedule where a "
        "continuously waiting thread is bypassed arbitrarily often",
    ),
    "FCSL057": (
        Severity.INFO,
        "liveness-analysis-incomplete",
        "instance collection did not complete; lock-order facts for this "
        "program are partial and cycle absence is not established",
    ),
    "FCSL059": (
        Severity.INFO,
        "fairness-confirmed",
        "bounded exploration confirmed the declared fairness claim: no "
        "bypass or livelock cycle exists within the explored bounds",
    ),
    # -- dependency hygiene (fcsl-deps) -------------------------------------------
    "FCSL060": (
        Severity.WARNING,
        "mutable-global-dependency",
        "an obligation reads a mutable module global; its contents are "
        "invisible to content fingerprints, so edits to it cannot "
        "trigger re-verification",
    ),
    "FCSL061": (
        Severity.WARNING,
        "escaped-dependency-closure",
        "an obligation's dependency closure reaches a definition outside "
        "the repro package; its source is not covered by any fingerprint",
    ),
    "FCSL062": (
        Severity.INFO,
        "dynamic-dispatch-fallback",
        "an obligation dispatches dynamically (getattr/exec or an "
        "unindexable definition); a conservative whole-module dependency "
        "edge was recorded in its place",
    ),
    "FCSL063": (
        Severity.INFO,
        "protocol-client-cycle",
        "the definition-level dependency graph has a cycle between "
        "modules (typically a protocol and its client spec); edits to "
        "either side re-verify both",
    ),
    "FCSL064": (
        Severity.INFO,
        "monolithic-dependency-cone",
        "an obligation's dependency cone spans every tracked definition "
        "of its program; incremental re-verification cannot skip it",
    ),
    "FCSL065": (
        Severity.WARNING,
        "ambiguous-obligation-name",
        "two obligations of one program share a name; per-obligation "
        "fingerprints collide and the program falls back to full "
        "re-verification",
    ),
    "FCSL066": (
        Severity.INFO,
        "deps-analysis-incomplete",
        "the dependency walk exhausted its budget (or obligation "
        "collection failed); the obligation conservatively keys on the "
        "whole-program fingerprint",
    ),
}


@dataclass(frozen=True)
class Diagnostic:
    """One finding of one rule on one object."""

    code: str
    message: str
    subject: str = ""  # the program/structure the sweep was linting
    obj: str = ""  # the concrete object (transition name, action name, ...)
    loc: SourceLoc | None = None
    extra: dict[str, Any] = field(default=None, compare=False, hash=False)  # type: ignore[assignment]

    @property
    def severity(self) -> Severity:
        return CODES[self.code][0]

    @property
    def slug(self) -> str:
        return CODES[self.code][1]

    def render(self) -> str:
        where = f" [{self.loc}]" if self.loc else ""
        scope = f"{self.subject}: " if self.subject else ""
        return f"{self.code} {self.severity} ({self.slug}) {scope}{self.message}{where}"

    def to_json(self) -> dict[str, Any]:
        out = {
            "code": self.code,
            "severity": str(self.severity),
            "slug": self.slug,
            "subject": self.subject,
            "object": self.obj,
            "message": self.message,
        }
        if self.loc is not None:
            out["file"] = self.loc.file
            out["line"] = self.loc.line
        return out


def diag(
    code: str,
    message: str,
    *,
    subject: str = "",
    obj: str = "",
    loc: SourceLoc | None = None,
) -> Diagnostic:
    """Build a diagnostic, checking the code exists in the table."""
    if code not in CODES:
        raise KeyError(f"unknown diagnostic code {code!r}")
    return Diagnostic(code, message, subject=subject, obj=obj, loc=loc)


def loc_of(obj: Any) -> SourceLoc | None:
    """Best-effort source location of a callable / class / instance."""
    for candidate in (obj, getattr(obj, "__func__", None), type(obj)):
        if candidate is None:
            continue
        try:
            file = inspect.getsourcefile(candidate)
            __, line = inspect.getsourcelines(candidate)
        except (TypeError, OSError):
            continue
        if file:
            return SourceLoc(file, line)
    code = getattr(obj, "__code__", None)
    if code is not None:
        return SourceLoc(code.co_filename, code.co_firstlineno)
    return None


# -- filtering & rendering ----------------------------------------------------------------------


_CODE_RE = re.compile(r"^FCSL\d+$")


class SelectorError(ValueError):
    """A ``--select`` selector that cannot match any known code.

    Raised instead of silently matching nothing: ``--select FCSL07x``
    after a typo used to produce an empty (deceptively clean) report.
    The CLI maps this to exit code 2 with the message below.
    """


def _known_blocks() -> str:
    """Human summary of the populated code blocks, for error messages."""
    prefixes = sorted({code[:6] for code in CODES})
    return ", ".join(f"{p}x" for p in prefixes)


def _selector_matcher(selector: str) -> Callable[[str], bool]:
    """One selector -> a code predicate.  Forms (shared verbatim by every
    tool that takes ``--select``):

    * exact code: ``FCSL050``
    * prefix: ``FCSL05`` (the whole block)
    * digit wildcard: ``FCSL05x`` (``x`` matches any single digit)
    * inclusive range: ``FCSL050-059`` or ``FCSL050-FCSL059``
    """
    sel = selector.strip().upper()
    lo, dash, hi = sel.partition("-")
    if dash and lo and hi:
        if not hi.startswith("FCSL"):
            hi = "FCSL" + hi
        if _CODE_RE.match(lo) and _CODE_RE.match(hi):
            return lambda code, lo=lo, hi=hi: lo <= code <= hi

    def match(code: str, pat: str = sel) -> bool:
        if len(pat) > len(code):
            return False
        for pc, cc in zip(pat, code):
            if pc == "X":
                if not cc.isdigit():
                    return False
            elif pc != cc:
                return False
        return True

    return match


def select(
    diagnostics: Iterable[Diagnostic],
    codes: Sequence[str] | None = None,
) -> list[Diagnostic]:
    """Keep diagnostics matching any selector (see
    :func:`_selector_matcher` for the accepted forms; plain prefixes like
    ``FCSL01`` keep their historical meaning)."""
    diagnostics = list(diagnostics)
    if not codes:
        return diagnostics
    matchers = []
    for selector in codes:
        matcher = _selector_matcher(selector)
        if not any(matcher(code) for code in CODES):
            raise SelectorError(
                f"selector {selector!r} matches no known diagnostic code; "
                f"known blocks: {_known_blocks()}"
            )
        matchers.append(matcher)
    return [d for d in diagnostics if any(m(d.code) for m in matchers)]


def worst_severity(diagnostics: Iterable[Diagnostic]) -> Severity | None:
    return max((d.severity for d in diagnostics), default=None)


def run_diagnostics(
    sweep: Callable[..., Iterable[Diagnostic]],
    *,
    names: Sequence[str] | None = None,
    codes: Sequence[str] | None = None,
    strict: bool = False,
) -> tuple[list[Diagnostic], int]:
    """The one diagnostics driver, shared by the ``lint``/``race``/
    ``live``/``deps`` subcommands and the daemon ops of the same names:
    sweep ``names`` (all programs when empty), keep the ``codes``
    selection, and fail on errors (on warnings too with ``strict``).

    Returns the kept diagnostics and the exit code (0 clean, 1
    findings).  A :class:`KeyError` (unknown program) or
    :class:`SelectorError` propagates as a usage error; anything else
    the sweep raises is an analyzer crash.  Callers only render and map
    those errors.
    """
    kept = select(sweep(names=names or None), codes=codes or None)
    worst = worst_severity(kept)
    threshold = Severity.WARNING if strict else Severity.ERROR
    return kept, int(worst is not None and worst >= threshold)


def dependency_graph(info: Any) -> tuple[Any, list[Diagnostic], int]:
    """``deps PROGRAM``: the program's per-obligation dependency graph,
    its dependency-hygiene diagnostics and the exit code.  The graph is
    ``None`` (exit 3) when per-obligation fingerprints are unusable: the
    program then verifies fully."""
    from ..engine.depgraph import depgraph_from_analysis
    from .deps import analyze_obligations

    analysis = analyze_obligations(info)
    graph = depgraph_from_analysis(info, analysis)
    return graph, analysis.diagnostics(), 0 if graph is not None else 3


def render_text(diagnostics: Sequence[Diagnostic], *, tool: str = "fcsl-lint") -> str:
    """The human report: one line per finding plus a summary line."""
    lines = [d.render() for d in diagnostics]
    counts = {sev: 0 for sev in Severity}
    for d in diagnostics:
        counts[d.severity] += 1
    summary = ", ".join(
        f"{n} {sev}(s)" for sev, n in sorted(counts.items(), reverse=True) if n
    )
    lines.append(f"{tool}: {summary or 'clean'}")
    return "\n".join(lines)


def render_json(diagnostics: Sequence[Diagnostic], *, tool: str = "fcsl-lint") -> str:
    """The machine report: a JSON object with findings and counts."""
    counts = {str(sev): 0 for sev in Severity}
    for d in diagnostics:
        counts[str(d.severity)] += 1
    return json.dumps(
        {
            "tool": tool,
            "diagnostics": [d.to_json() for d in diagnostics],
            "counts": counts,
        },
        indent=2,
        sort_keys=True,
    )
