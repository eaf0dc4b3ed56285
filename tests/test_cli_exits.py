"""The CLI exit-code contract: lint, race, live, verify, profile and
explain agree.

The subcommands share one mapping — 0 all clean / verified / nothing to
explain, 1 findings (diagnostic past the severity threshold, failed
verdict, counterexample witness), 2 usage (unknown program, malformed
flag), 3 infrastructure (the analysis crashed, a program was
quarantined, the sweep degraded).  CI and scripting depend on the
distinction: a 1 is a defect in the code under analysis, a 3 is a
defect in the analyzer.
"""

from __future__ import annotations

import pytest

from repro.__main__ import main
from repro.analysis.diagnostics import Diagnostic


def _error_diag() -> Diagnostic:
    return Diagnostic("FCSL045", "synthetic rmw race", subject="fake", obj="a;b")


def _warning_diag() -> Diagnostic:
    return Diagnostic("FCSL046", "synthetic stale read", subject="fake", obj="a")


# -- usage errors: exit 2 ---------------------------------------------------------------


@pytest.mark.parametrize("cmd", ["lint", "race", "live"])
def test_unknown_program_is_usage_error(cmd, capsys):
    assert main([cmd, "--program", "No such program"]) == 2
    assert "No such program" in capsys.readouterr().err


def test_verify_unknown_program_is_usage_error(capsys):
    assert main(["verify", "--program", "No such program"]) == 2


def test_verify_bad_fault_spec_is_usage_error(capsys):
    assert main(["verify", "--inject", "not-a-spec"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--por"],
        ["verify", "--symmetry"],
        ["verify", "--explore-jobs", "2"],
        ["profile", "--por"],
        ["verify", "--split-obligations"],
        ["serve", "--http", "0"],
        ["watch", "--http", "0"],
    ],
    ids=[
        "verify-por",
        "verify-symmetry",
        "verify-explore-jobs",
        "profile-por",
        "verify-split",
        "serve-http",
        "watch-http",
    ],
)
def test_removed_exploration_flags_are_usage_errors(argv, capsys):
    # Partial-order reduction, symmetry reduction, sharded exploration,
    # per-obligation-group work units and the daemon's HTTP transport are
    # gone; their flags are unknown arguments, rejected before any sweep
    # or daemon starts.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_profile_unknown_program_is_usage_error(capsys):
    assert main(["profile", "--program", "No such program"]) == 2
    assert "No such program" in capsys.readouterr().err


def test_explain_unknown_program_is_usage_error(capsys):
    assert main(["explain", "No such program"]) == 2
    assert "No such program" in capsys.readouterr().err


# -- findings vs clean vs infra (patched sweeps: the real registry is clean
# and must stay that way, so severity paths are driven synthetically) ------------------


@pytest.fixture
def patched(monkeypatch):
    def patch(cmd: str, fn) -> None:
        name = {
            "lint": "lint_registry",
            "race": "race_registry",
            "live": "live_registry",
        }[cmd]
        monkeypatch.setattr(f"repro.analysis.{name}", fn)

    return patch


@pytest.mark.parametrize("cmd", ["lint", "race", "live"])
def test_clean_sweep_exits_zero(cmd, patched, capsys):
    patch = patched
    patch(cmd, lambda names=None: [])
    assert main([cmd]) == 0
    tool = {"lint": "fcsl-lint", "race": "fcsl-race", "live": "fcsl-live"}[cmd]
    assert f"{tool}: clean" in capsys.readouterr().out


@pytest.mark.parametrize("cmd", ["lint", "race", "live"])
def test_error_finding_exits_one(cmd, patched, capsys):
    patched(cmd, lambda names=None: [_error_diag()])
    assert main([cmd]) == 1
    assert "FCSL045" in capsys.readouterr().out


@pytest.mark.parametrize("cmd", ["lint", "race", "live"])
def test_warning_needs_strict_to_fail(cmd, patched, capsys):
    patched(cmd, lambda names=None: [_warning_diag()])
    assert main([cmd]) == 0
    assert main([cmd, "--strict"]) == 1


@pytest.mark.parametrize("cmd", ["lint", "race", "live"])
def test_analysis_crash_is_infra(cmd, patched, capsys):
    def boom(names=None):
        raise RuntimeError("synthetic analyzer bug")

    patched(cmd, boom)
    assert main([cmd]) == 3
    assert "internal error" in capsys.readouterr().err


# -- verify mirrors the same contract via SweepResult.exit_code() ----------------------


class _FakeSweep:
    def __init__(self, code: int):
        self._code = code

    def exit_code(self) -> int:
        return self._code

    def to_dict(self) -> dict:
        return {"outcomes": []}

    def render(self) -> str:
        return "fake sweep"


@pytest.mark.parametrize("code", [0, 1, 3])
def test_verify_propagates_sweep_exit_code(code, monkeypatch, capsys):
    monkeypatch.setattr(
        "repro.engine.run_sweep", lambda **kwargs: _FakeSweep(code)
    )
    assert main(["verify"]) == code


# -- profile mirrors verify (patched sweep; the tracing session is real) ---------------


@pytest.mark.parametrize("code", [0, 1, 3])
def test_profile_propagates_sweep_exit_code(code, monkeypatch, capsys):
    monkeypatch.setattr(
        "repro.engine.run_sweep", lambda **kwargs: _FakeSweep(code)
    )
    assert main(["profile"]) == code
    # a fake sweep emits no spans, but the hotspot table still renders
    assert "(no spans recorded)" in capsys.readouterr().out


# -- explain: 0 nothing to explain, 1 witnesses rendered, 3 verifier crash -------------


class _FakeReport:
    def __init__(self, ok: bool):
        self.ok = ok

    def pretty(self) -> str:
        return "fake failing report"


class _FakeInfo:
    """Just enough of ProgramInfo for _run_explain: name + run_verifier."""

    name = "fake"

    def __init__(self, verifier):
        self._verifier = verifier

    def run_verifier(self):
        return self._verifier()


def _patch_program(monkeypatch, verifier) -> None:
    monkeypatch.setattr(
        "repro.structures.registry.program",
        lambda name: _FakeInfo(verifier),
    )


def test_explain_clean_program_exits_zero(monkeypatch, capsys):
    _patch_program(monkeypatch, lambda: _FakeReport(ok=True))
    assert main(["explain", "fake"]) == 0
    assert "no witness to explain" in capsys.readouterr().out


def test_explain_failure_without_witness_exits_zero(monkeypatch, capsys):
    """A non-schedule failure (e.g. a shape check) has nothing to replay:
    explain reports that and defers to the plain report, exit 0."""
    _patch_program(monkeypatch, lambda: _FakeReport(ok=False))
    assert main(["explain", "fake"]) == 0
    out = capsys.readouterr().out
    assert "no witness to explain" in out
    assert "fake failing report" in out


def test_explain_recorded_witness_exits_one(monkeypatch, capsys):
    from repro.obs.witness import Witness, record

    def verifier():
        record(
            Witness(
                scenario="s",
                kind="postcondition",
                message="synthetic violation",
                meta={"unreplayable": True},
            )
        )
        return _FakeReport(ok=False)

    _patch_program(monkeypatch, verifier)
    assert main(["explain", "fake"]) == 1
    out = capsys.readouterr().out
    assert "counterexample witness" in out
    assert "synthetic violation" in out


def test_explain_verifier_crash_is_infra(monkeypatch, capsys):
    def boom():
        raise RuntimeError("synthetic verifier bug")

    _patch_program(monkeypatch, boom)
    assert main(["explain", "fake"]) == 3
    assert "crashed" in capsys.readouterr().err


# -- the real registry is clean end-to-end --------------------------------------------


def test_race_clean_on_real_registry(capsys):
    """Zero false positives: the race rules on the actual case studies."""
    assert main(["race", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert '"tool": "fcsl-race"' in out


def test_live_flags_demo_rows_on_real_registry(capsys):
    """The full liveness sweep exits 1 *by design*: the demo rows exist
    to keep the FCSL05x positive cases in-tree (two-lock deadlock cycle,
    unfair-lock fairness refutation)."""
    assert main(["live", "--format", "json"]) == 1
    out = capsys.readouterr().out
    assert '"tool": "fcsl-live"' in out
    assert "FCSL050" in out
    assert "FCSL056" in out


def test_live_clean_on_ticketed_lock(capsys):
    """Restricted to a paper case study, the sweep is error-free and the
    ticketed lock's FIFO fairness claim is mechanically confirmed."""
    assert main(["live", "--program", "Ticketed lock"]) == 0
    out = capsys.readouterr().out
    assert "FCSL059" in out
    assert "fairness-confirmed" in out
