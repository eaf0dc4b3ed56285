"""Integration tests: the registry sweep, the verifier pre-pass, the CLI.

The sweep contract: every Table 1 case study has a lint target, and the
whole registry lints with no errors or warnings (the single FCSL021
*info* on Prod/Cons is a deliberate demonstration of the rule on real
code — its postcondition genuinely ignores the pre-state).
"""

from __future__ import annotations

import json

import pytest

from repro.analysis import (
    Severity,
    StaticPrepass,
    lint_registry,
    worst_severity,
)
from repro.analysis.runner import missing_targets
from repro.analysis.specs import probe_self_framed
from repro.analysis.targets import TARGET_BUILDERS, bounded_closure, target_for
from repro.core.concurroid import state_graph
from repro.core.stability import check_stability
from repro.core.verify import ReportBuilder, VerifyOptions, options_installed
from repro.structures.registry import registry_programs

from .helpers import CELL, LABEL, CounterConcurroid, counter_state


# -- the registry sweep -----------------------------------------------------------------------


def test_every_registry_program_has_a_lint_target():
    assert missing_targets() == []
    names = {info.name for info in registry_programs()}
    assert set(TARGET_BUILDERS) == names


def test_registry_sweep_is_clean():
    diagnostics = lint_registry()
    worst = worst_severity(diagnostics)
    assert worst is None or worst < Severity.WARNING, [
        d.render() for d in diagnostics
    ]
    # The lone expected finding: Prod/Cons's unread pre-state snapshot.
    assert {d.code for d in diagnostics} <= {"FCSL021"}


def test_lint_registry_name_filter():
    assert lint_registry(names=["CAS-lock"]) == []
    with pytest.raises(KeyError):
        lint_registry(names=["No such program"])


def test_targets_mirror_verifier_models():
    target = target_for("CAS-lock")
    assert target.exhaustive and len(target.states) > 100
    assert target.actions and target.specs and target.programs and target.pcms


# -- the verifier pre-pass --------------------------------------------------------------------


@pytest.fixture()
def counter_family():
    conc = CounterConcurroid()
    states, exhaustive = bounded_closure(conc, [counter_state(conc)])
    assert exhaustive
    return conc, states


def _with_prepass(fn, prepass=None):
    """Run ``fn`` as one obligation under a pre-pass; returns what ``fn``
    returned and the obligation's skip count."""
    out = []
    options = VerifyOptions(prepass=prepass or StaticPrepass())
    with options_installed(options):
        result = ReportBuilder("demo").obligation(
            "stab", "Stab", lambda: out.append(fn()) or []
        )
    return out[0], result.prepass_skips


def test_prepass_discharges_self_framed_assertion(counter_family):
    conc, states = counter_family
    assertion = lambda s: s.self_of(LABEL) == 0  # noqa: E731
    baseline = check_stability(assertion, "self-zero", conc, states)
    assert baseline == []
    graph = state_graph(conc, states)
    skipped, skips = _with_prepass(
        lambda: check_stability(assertion, "self-zero", conc, graph)
    )
    assert skipped == baseline
    assert skips == 1
    # the env sweep's verdict is kept on the graph it describes
    assert graph.env_verdict is True


def test_prepass_never_discharges_joint_dependent_assertion(counter_family):
    conc, states = counter_family
    assertion = lambda s: s.joint_of(LABEL)[CELL] == 0  # noqa: E731
    framed, __ = probe_self_framed(assertion, states)
    assert not framed
    baseline = check_stability(assertion, "cell-zero", conc, states)
    assert baseline  # genuinely unstable under env bumps
    issues, skips = _with_prepass(
        lambda: check_stability(assertion, "cell-zero", conc, states)
    )
    assert [str(i) for i in issues] == [str(i) for i in baseline]
    assert skips == 0


def test_prepass_consumes_iterators_safely(counter_family):
    conc, states = counter_family
    assertion = lambda s: s.joint_of(LABEL)[CELL] == 0  # noqa: E731
    issues, __ = _with_prepass(
        lambda: check_stability(assertion, "cell-zero", conc, iter(states))
    )
    # The pre-pass materializes the family; the BFS still sees every state.
    assert issues == check_stability(assertion, "cell-zero", conc, states)


def test_broken_prepass_never_fails_a_proof(counter_family):
    conc, states = counter_family

    class Exploding:
        def discharges(self, *args):
            raise RuntimeError("bad prepass")

    issues, skips = _with_prepass(
        lambda: check_stability(
            lambda s: s.self_of(LABEL) == 0, "self-zero", conc, states
        ),
        Exploding(),
    )
    assert issues == [] and skips == 0


def test_prepass_skips_are_reported():
    info = next(i for i in registry_programs() if i.name == "CAS-lock")
    with options_installed(VerifyOptions(prepass=StaticPrepass())):
        report = info.verifier()
    assert report.ok and report.prepass_skips >= 1
    assert "statically discharged" in report.pretty()
    baseline = info.verifier()
    assert baseline.prepass_skips == 0
    assert {o.name: o.ok for o in report.obligations} == {
        o.name: o.ok for o in baseline.obligations
    }


# -- the CLI ----------------------------------------------------------------------------------


def run_cli(capsys, *argv: str) -> tuple[int, str]:
    from repro.__main__ import main

    rc = main(list(argv))
    return rc, capsys.readouterr().out


def test_cli_lint_exits_zero_and_renders_text(capsys):
    rc, out = run_cli(capsys, "lint")
    assert rc == 0
    assert "fcsl-lint:" in out


def test_cli_lint_json_format(capsys):
    rc, out = run_cli(capsys, "lint", "--format", "json", "--program", "Prod/Cons")
    assert rc == 0
    payload = json.loads(out)
    assert payload["tool"] == "fcsl-lint"
    assert [d["code"] for d in payload["diagnostics"]] == ["FCSL021"]


def test_cli_lint_select_filters_codes(capsys):
    rc, out = run_cli(capsys, "lint", "--select", "FCSL03", "--program", "Prod/Cons")
    assert rc == 0
    assert "clean" in out


def test_cli_lint_exit_codes_follow_severity(capsys, monkeypatch):
    import repro.analysis as analysis
    from repro.analysis.diagnostics import diag

    monkeypatch.setattr(
        analysis, "lint_registry", lambda names=None: [diag("FCSL010", "injected")]
    )
    rc, out = run_cli(capsys, "lint")
    assert rc == 1 and "FCSL010" in out

    monkeypatch.setattr(
        analysis, "lint_registry", lambda names=None: [diag("FCSL002", "injected")]
    )
    rc, __ = run_cli(capsys, "lint")
    assert rc == 0  # warnings don't fail by default...
    rc, __ = run_cli(capsys, "lint", "--strict")
    assert rc == 1  # ...unless --strict


def test_cli_lint_unknown_program_is_a_clean_error(capsys):
    from repro.__main__ import main

    rc = main(["lint", "--program", "No such program"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "unknown registry program" in captured.err
    assert "Traceback" not in captured.err
