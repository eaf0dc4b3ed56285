"""The full evaluation run: every table and figure in one report.

``python -m repro.eval.report`` regenerates the paper's §6 artifacts —
Table 1, Table 2, Figure 2, Figure 5 — prints them, and summarizes the
comparison with the paper.  This is the programmatic backing of
EXPERIMENTS.md.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .figure2 import check_figure2_invariants, replay_figure2
from .figure2 import render as render_figure2
from .figure5 import diff_against_paper as figure5_diff
from .figure5 import is_dag, figure5_edges
from .figure5 import render as render_figure5
from .loc import framework_loc, repository_loc, structures_loc
from .table1 import build_table1, check_shape
from .table1 import render as render_table1
from .table2 import diff_against_paper as table2_diff
from .table2 import render as render_table2


@dataclass
class EvaluationReport:
    """The aggregated outcome of a full evaluation run."""

    table1_text: str = ""
    table2_text: str = ""
    figure2_text: str = ""
    figure5_text: str = ""
    lint_text: str = ""
    live_text: str = ""
    hotspots_text: str = ""
    issues: list[str] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.issues

    def render(self) -> str:
        parts = [
            "FCSL reproduction — full evaluation run",
            "=" * 72,
            "",
            "Table 1 (verification statistics)",
            "-" * 72,
            self.table1_text,
            "",
            "Table 2 (concurroid reuse)",
            "-" * 72,
            self.table2_text,
            "",
            "Figure 2 (spanning-tree stages)",
            "-" * 72,
            self.figure2_text,
            "",
            "Figure 5 (library dependencies)",
            "-" * 72,
            self.figure5_text,
            "",
            "fcsl-lint (static registry sweep)",
            "-" * 72,
            self.lint_text,
            "",
            "fcsl-live (lock-order graphs and fairness verdicts)",
            "-" * 72,
            self.live_text,
            "",
            "verification hotspots (slowest obligations across the sweep)",
            "-" * 72,
            self.hotspots_text,
            "",
            "-" * 72,
            f"total wall time: {self.seconds:.1f}s",
            "status: " + ("ALL ARTIFACTS REPRODUCED" if self.ok else f"ISSUES: {self.issues}"),
        ]
        return "\n".join(parts)


def _hotspots_section(sweep, limit: int = 10) -> str:
    """The slowest obligations across the sweep's reports — where the
    verification time actually goes (``repro profile`` gives the
    span-level version; this one needs no tracing session because every
    obligation already carries its wall time)."""
    rows = [
        (o.seconds, outcome.name, o)
        for outcome in sweep.outcomes
        if outcome.report is not None
        for o in outcome.report.obligations
    ]
    if not rows:
        return "(no obligations ran)"
    rows.sort(key=lambda r: r[0], reverse=True)
    lines = [f"{'program':<16} {'obligation':<34} {'cat':<5} {'seconds':>8}"]
    for seconds, program, obligation in rows[:limit]:
        lines.append(
            f"{program:<16} {obligation.name[:34]:<34} "
            f"{obligation.category:<5} {seconds:>7.3f}s"
        )
    total = sum(r[0] for r in rows)
    shown = sum(r[0] for r in rows[:limit])
    share = shown / total if total else 0.0
    lines.append(
        f"top {min(limit, len(rows))} of {len(rows)} obligation(s): "
        f"{shown:.3f}s of {total:.3f}s ({share:.0%})"
    )
    return "\n".join(lines)


def _live_section(issues: list[str]) -> str:
    """The fcsl-live sweep, summarized: per-program lock-order graph
    sizes, deadlock cycles, and fairness verdicts.  The demo rows are
    *expected* positives — the section asserts they flag errors rather
    than reporting them as issues; a liveness error on one of the
    paper's case studies, by contrast, is an issue."""
    from ..analysis import Severity, live_target, worst_severity
    from ..analysis.targets import target_for
    from ..structures.registry import registry_programs

    lines = [
        f"{'program':<18} {'locks':>5} {'edges':>5} {'cycles':>6}  verdict"
    ]
    demo_errors = 0
    for info in registry_programs():
        graph, diags = live_target(target_for(info.name))
        cycles = graph.cycles()
        worst = worst_severity(diags)
        errors = sorted(
            {d.code for d in diags if d.severity >= Severity.ERROR}
        )
        if errors:
            verdict = ",".join(errors)
        elif any(d.code == "FCSL059" for d in diags):
            verdict = "FCSL059 (fairness confirmed)"
        else:
            verdict = "clean"
        lines.append(
            f"{info.name:<18} {len(graph.nodes):>5} "
            f"{len(graph.edges):>5} {len(cycles):>6}  {verdict}"
        )
        if worst is not None and worst >= Severity.ERROR:
            if info.demo:
                demo_errors += 1
            else:
                issues.append(
                    f"fcsl-live: {info.name} has liveness error(s): {errors}"
                )
    if demo_errors < 2:
        issues.append(
            "fcsl-live: the demo rows failed to flag their planted "
            f"liveness defects ({demo_errors} of 2 flagged)"
        )
    return "\n".join(lines)


def run_evaluation(
    *,
    verbose: bool = False,
    jobs: int | None = 1,
    cache: bool = False,
    cache_dir: str | None = None,
    timeout: float | None = None,
    retries: int = 1,
) -> EvaluationReport:
    """Regenerate everything (runs all 11 verifications through the engine).

    The Table 1 sweep goes through :func:`repro.engine.run_sweep`:
    ``jobs`` fans the case studies out across worker processes (``1``,
    the default here, is the serial in-process path; ``None`` means one
    worker per case study) and ``cache`` replays verdicts from the
    persistent obligation cache.  The CLI (``python -m repro eval``)
    defaults to parallel + cached; direct callers — the tests — default
    to serial + uncached for determinism.
    """
    from ..engine import run_sweep

    report = EvaluationReport()
    started = time.perf_counter()

    if verbose:
        print(
            "building Table 1 (verifying all 11 programs via the engine)...",
            flush=True,
        )
    sweep = run_sweep(
        jobs=jobs, cache=cache, cache_dir=cache_dir, timeout=timeout, retries=retries
    )
    # A quarantined program (worker crash/timeout/interrupt) has no
    # report: Table 1 is built from the verdicts that exist and every
    # missing row becomes an explicit issue — never a silent omission.
    reports = sweep.reports()
    from ..structures.registry import all_programs

    covered = tuple(info for info in all_programs() if info.name in reports)
    # (build_table1 treats an empty programs tuple as "all", so guard it)
    rows = build_table1(programs=covered, reports=reports) if covered else []
    report.table1_text = render_table1(rows)
    report.issues.extend(check_shape(rows))
    for outcome in sweep.quarantined():
        report.issues.append(
            f"table 1: {outcome.name} has no verdict "
            f"(status={outcome.status}, retries={outcome.retries})"
        )
    if sweep.degraded:
        report.issues.append(
            "table 1: sweep degraded to serial (worker pool unavailable)"
        )
    if verbose and sweep.hits:
        print(
            f"  ({sweep.hits} of {len(sweep.outcomes)} verdicts replayed "
            "from the obligation cache)",
            flush=True,
        )
    report.hotspots_text = _hotspots_section(sweep)

    if verbose:
        print("building Table 2...", flush=True)
    report.table2_text = render_table2()
    report.issues.extend(table2_diff())

    if verbose:
        print("replaying Figure 2...", flush=True)
    stages, post_ok = replay_figure2()
    report.figure2_text = render_figure2(stages)
    if not post_ok:
        report.issues.append("figure 2: span_root_tp failed")
    report.issues.extend(check_figure2_invariants(stages))

    if verbose:
        print("linting the registry (fcsl-lint sweep)...", flush=True)
    from ..analysis import Severity, lint_registry, render_text, worst_severity

    diagnostics = lint_registry()
    report.lint_text = render_text(diagnostics)
    worst = worst_severity(diagnostics)
    if worst is not None and worst >= Severity.WARNING:
        report.issues.append(
            f"fcsl-lint found {sum(1 for d in diagnostics if d.severity >= Severity.WARNING)} "
            "warning(s)/error(s) in the registry sweep"
        )

    if verbose:
        print("running the fcsl-live liveness sweep...", flush=True)
    report.live_text = _live_section(report.issues)

    if verbose:
        print("deriving Figure 5...", flush=True)
    report.figure5_text = render_figure5()
    missing, extra = figure5_diff()
    if missing or extra:
        report.issues.append(f"figure 5 edges differ: -{sorted(missing)} +{sorted(extra)}")
    if not is_dag(figure5_edges()):
        report.issues.append("figure 5: dependency graph has a cycle")

    report.seconds = time.perf_counter() - started
    return report


def main(
    *,
    jobs: int | None = None,
    cache: bool = True,
    cache_dir: str | None = None,
    timeout: float | None = None,
    retries: int = 1,
) -> int:
    """CLI body: returns the exit code instead of raising ``SystemExit``
    (callers — ``python -m repro`` — own the process exit)."""
    report = run_evaluation(
        verbose=True,
        jobs=jobs,
        cache=cache,
        cache_dir=cache_dir,
        timeout=timeout,
        retries=retries,
    )
    print()
    print(report.render())
    print()
    areas = repository_loc()
    print(f"repository size: {areas} "
          f"(framework {framework_loc()}, case studies {structures_loc()})")
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
