"""Chaos suite: the supervised engine under deterministic fault injection.

Covers the ISSUE 3 acceptance surface: for every injected fault class
(worker crash, hang past timeout, worker exception, torn cache write)
the sweep returns an outcome for *all* requested programs, non-injected
verdicts are identical to a clean run, recovery via retries is
transparent, exhausted retries quarantine instead of raising, pool
creation failure degrades to serial, KeyboardInterrupt yields a partial
result, and the CLI maps it all to exit codes 0/1/2/3.

Every pool-based test uses second-scale timeouts and fast synthetic
registry rows, so the suite is bounded even if supervision were broken.
"""

from __future__ import annotations

import json

import pytest

from repro.core.verify import ReportBuilder
from repro.engine import (
    EXIT_INFRA,
    FaultPlan,
    FaultSpec,
    FaultSpecError,
    ObligationCache,
    ProgramOutcome,
    SweepResult,
    sweep,
)
from repro.engine.faults import ENV_FAULTS, active_plan, plan_installed
from repro.engine.supervisor import Supervisor
from repro.structures.registry import ProgramInfo

#: Supervision knobs shared by the fast chaos sweeps.
FAST = dict(cache=False, prepass=False, backoff=0.05)


# -- synthetic case studies (module-level: workers unpickle by reference) ------


def _ok_verifier(**kwargs):
    builder = ReportBuilder(kwargs.get("label", "ok"))
    builder.obligation("trivial", "Libs", lambda: [])
    builder.obligation("main", "Main", lambda: [])
    return builder.build()


def _failing_verifier(**kwargs):
    builder = ReportBuilder("failing")
    builder.obligation("bad", "Main", lambda: ["postcondition violated"])
    return builder.build()


def _buggy_verifier(**kwargs):
    raise ValueError("verifier bug: unhandled model state")


def _ki_verifier(**kwargs):
    raise KeyboardInterrupt()


def _mk(name: str, verifier=_ok_verifier) -> ProgramInfo:
    return ProgramInfo(
        name=name,
        concurroids={},
        modules=(),
        verifier=verifier,
        verifier_kwargs={"label": name},
    )


ALPHA, BETA, GAMMA = _mk("Alpha"), _mk("Beta"), _mk("Gamma")
TRIO = (ALPHA, BETA, GAMMA)


def _verdicts(result, names=None):
    """Everything that must match a clean run, per program."""
    return {
        o.name: (
            o.status,
            {
                ob.name: (ob.ok, tuple(ob.issues))
                for ob in (o.report.obligations if o.report else [])
            },
        )
        for o in result.outcomes
        if names is None or o.name in names
    }


# -- fault plan parsing --------------------------------------------------------


class TestFaultSpecs:
    def test_parse_render_round_trip(self):
        text = "CAS-lock:crash@1;Ticketed lock:hang@*;Fake:torn@2;X:raise@3"
        plan = FaultPlan.parse(text)
        assert plan.render() == text
        assert FaultPlan.parse(plan.render()).specs == plan.specs

    def test_default_attempt_is_one(self):
        spec = FaultSpec.parse("Beta:crash")
        assert spec.attempt == 1
        assert spec.matches("Beta", "verify", 1)
        assert not spec.matches("Beta", "verify", 2)

    def test_star_matches_every_attempt(self):
        spec = FaultSpec.parse("Beta:hang@*")
        assert all(spec.matches("Beta", "verify", n) for n in (1, 2, 7))

    def test_torn_is_a_cache_site_fault(self):
        spec = FaultSpec.parse("Beta:torn")
        assert spec.site == "cache"
        assert spec.matches("Beta", "cache", 1)
        assert not spec.matches("Beta", "verify", 1)

    def test_durability_kinds_have_their_own_sites(self):
        assert FaultSpec.parse("X:corrupt").site == "cache"
        assert FaultSpec.parse("X:diskfull").site == "disk"
        assert FaultSpec.parse("X:sigkill").site == "journal"

    def test_durability_kinds_round_trip(self):
        text = "X:corrupt@1;Y:diskfull@*;Z:sigkill@2"
        assert FaultPlan.parse(text).render() == text

    def test_store_fault_counts_attempts_per_program(self):
        plan = FaultPlan.parse("X:torn@2;Y:corrupt@1")
        assert plan.store_fault("X") is None  # attempt 1: not yet
        assert plan.store_fault("Y") == "corrupt"  # independent counter
        assert plan.store_fault("X") == "torn"  # attempt 2 fires
        assert plan.store_fault("X") is None

    def test_disk_fault_counts_attempts_per_write_path(self):
        import errno

        plan = FaultPlan.parse("X:diskfull@1")
        with pytest.raises(OSError) as excinfo:
            plan.disk_fault("X", "journal")
        assert excinfo.value.errno == errno.ENOSPC
        # The cache write path has its own attempt counter, so the
        # same @1 spec fires there too — whichever path comes first.
        with pytest.raises(OSError):
            plan.disk_fault("X", "cache")
        plan.disk_fault("X", "journal")  # attempt 2: no fault

    @pytest.mark.parametrize(
        "bad", ["", "no-colon", "X:frobnicate", "X:crash@zero", "X:crash@0", ":crash"]
    )
    def test_bad_specs_raise(self, bad):
        with pytest.raises(FaultSpecError):
            FaultSpec.parse(bad)

    def test_plan_crosses_the_environment(self, monkeypatch):
        import os

        monkeypatch.delenv(ENV_FAULTS, raising=False)
        plan = FaultPlan.parse("Beta:crash@1")
        with plan_installed(plan):
            assert os.environ[ENV_FAULTS] == "Beta:crash@1"
            assert active_plan() is plan
        assert ENV_FAULTS not in os.environ
        assert active_plan() is None


# -- the chaos sweeps ----------------------------------------------------------


class TestChaosSweeps:
    def clean(self):
        return sweep(TRIO, jobs=1, **FAST)

    @pytest.mark.parametrize(
        "fault,timeout",
        [("Beta:crash@1", 30), ("Beta:hang@1", 2), ("Beta:raise@1", 30)],
        ids=["crash", "hang", "raise"],
    )
    def test_fault_recovers_transparently(self, fault, timeout):
        result = sweep(TRIO, jobs=2, timeout=timeout, retries=2, faults=fault, **FAST)
        assert [o.name for o in result.outcomes] == ["Alpha", "Beta", "Gamma"]
        assert result.ok and result.exit_code() == 0
        beta = result.outcome("Beta")
        assert beta.status == "ok" and beta.retries > 0
        assert _verdicts(result) == _verdicts(self.clean())
        payload = result.to_dict()
        by_name = {p["program"]: p for p in payload["programs"]}
        assert by_name["Beta"]["retries"] == beta.retries
        assert by_name["Beta"]["status"] == "ok"

    @pytest.mark.parametrize(
        "fault,timeout,status,exc_type",
        [
            ("Beta:crash@*", 30, "crashed", "WorkerCrash"),
            ("Beta:hang@*", 1, "timeout", None),
            ("Beta:raise@*", 30, "error", "InjectedFault"),
        ],
        ids=["crash", "hang", "raise"],
    )
    def test_retries_exhausted_quarantines(self, fault, timeout, status, exc_type):
        result = sweep(TRIO, jobs=2, timeout=timeout, retries=1, faults=fault, **FAST)
        # The sweep completes and reports every requested program.
        assert [o.name for o in result.outcomes] == ["Alpha", "Beta", "Gamma"]
        beta = result.outcome("Beta")
        assert beta.status == status
        assert beta.report is None and beta.quarantined
        if exc_type is not None:
            assert beta.error["type"] == exc_type
        # Non-injected programs: verdicts identical to a clean run.
        others = {"Alpha", "Gamma"}
        assert _verdicts(result, others) == _verdicts(self.clean(), others)
        assert not result.ok
        assert result.exit_code() == EXIT_INFRA

    def test_hang_timeout_is_enforced_not_waited_out(self):
        import time

        started = time.monotonic()
        result = sweep(
            TRIO, jobs=2, timeout=1, retries=0, faults="Beta:hang@*", **FAST
        )
        # Far below the 600s injected hang: the supervisor killed it.
        assert time.monotonic() - started < 30
        assert result.outcome("Beta").status == "timeout"

    def test_worker_exception_reported_identically_serial_and_parallel(self):
        buggy = (_mk("Alpha"), _mk("Buggy", _buggy_verifier), _mk("Gamma"))
        serial = sweep(buggy, jobs=1, **FAST)
        parallel = sweep(buggy, jobs=2, timeout=30, retries=1, **FAST)
        for result in (serial, parallel):
            outcome = result.outcome("Buggy")
            assert outcome.status == "error"
            assert outcome.error["type"] == "ValueError"
            assert "verifier bug" in outcome.error["message"]
            assert "Traceback" in outcome.error["traceback"]
            assert result.exit_code() == EXIT_INFRA
        # In-worker captured errors are deterministic verifier bugs: no retry.
        assert parallel.outcome("Buggy").retries == 0
        assert _verdicts(serial) == _verdicts(parallel)

    def test_verification_failure_is_not_an_infra_error(self):
        failing = (_mk("Alpha"), _mk("Failing", _failing_verifier))
        result = sweep(failing, jobs=2, timeout=30, **FAST)
        outcome = result.outcome("Failing")
        assert outcome.status == "failed"
        assert outcome.report is not None and not outcome.quarantined
        assert not result.ok
        assert result.exit_code() == 1


class TestTornCacheWrites:
    def test_torn_write_never_yields_a_verdict(self, tmp_path):
        cache_dir = tmp_path / "cache"
        first = sweep(TRIO, jobs=1, cache_dir=cache_dir, prepass=False,
                      faults="Beta:torn@1")
        assert first.ok
        path = ObligationCache(cache_dir).path_for("Beta")
        with pytest.raises(Exception):
            json.loads(path.read_text())
        # Corruption costs a recomputation, not a verdict...
        second = sweep(TRIO, jobs=1, cache_dir=cache_dir, prepass=False)
        assert not second.outcome("Beta").cached
        assert second.outcome("Alpha").cached
        assert _verdicts(second) == _verdicts(first)
        # ...and the healed entry replays on the next run.
        third = sweep(TRIO, jobs=1, cache_dir=cache_dir, prepass=False)
        assert third.outcome("Beta").cached

    def test_corrupted_then_retried_entry_is_never_stale(self, tmp_path, monkeypatch):
        """An edit + a torn write of the new verdict must never resurrect
        the pre-edit verdict on later runs."""
        import textwrap

        module = tmp_path / "chaos_stale_probe.py"
        module.write_text(textwrap.dedent('"""Probe."""\nVALUE = 1\n'))
        monkeypatch.syspath_prepend(str(tmp_path))
        info = ProgramInfo(
            name="Stale probe",
            concurroids={},
            modules=("chaos_stale_probe",),
            verifier=_ok_verifier,
        )
        cache_dir = tmp_path / "cache"
        sweep([info], jobs=1, cache_dir=cache_dir, prepass=False)
        stale_entry = json.loads(
            ObligationCache(cache_dir).path_for("Stale probe").read_text()
        )
        module.write_text(module.read_text().replace("VALUE = 1", "VALUE = 2"))
        torn = sweep([info], jobs=1, cache_dir=cache_dir, prepass=False,
                     faults="Stale probe:torn@1")
        assert not torn.outcome("Stale probe").cached
        after = sweep([info], jobs=1, cache_dir=cache_dir, prepass=False)
        outcome = after.outcome("Stale probe")
        # Recomputed under the *new* fingerprint — not replayed from the
        # pre-edit entry, whose fingerprint no longer matches.
        assert not outcome.cached
        assert outcome.fingerprint != stale_entry["fingerprint"]


class TestDegradedPool:
    def test_pool_creation_failure_degrades_to_serial(self, monkeypatch):
        import multiprocessing

        def no_pool(*args, **kwargs):
            raise OSError("semaphore exhaustion")

        monkeypatch.setattr(multiprocessing, "Pool", no_pool)
        result = sweep(TRIO, jobs=2, timeout=30, **FAST)
        assert [o.name for o in result.outcomes] == ["Alpha", "Beta", "Gamma"]
        assert all(o.status == "ok" for o in result.outcomes)
        assert result.degraded
        assert result.exit_code() == EXIT_INFRA
        assert any("pool creation failed" in w for w in result.warnings)

    def test_degraded_sweep_honours_no_prepass(self, monkeypatch):
        import multiprocessing

        from repro.core.verify import VerifyOptions, options_installed
        from repro.engine import run_sweep

        def no_pool(*args, **kwargs):
            raise OSError("semaphore exhaustion")

        monkeypatch.setattr(multiprocessing, "Pool", no_pool)
        # Two programs, so jobs=2 really asks for a pool (one program
        # would clamp to the serial path without degrading).
        consulted = []

        class Counting:
            def discharges(self, *args):
                consulted.append(args[1])
                return True

        with options_installed(VerifyOptions(prepass=Counting())):
            result = run_sweep(
                ["CAS-lock", "Ticketed lock"],
                jobs=2,
                cache=False,
                journal=False,
                prepass=False,
            )
        assert result.degraded
        assert consulted == []
        assert [o.to_dict()["prepass_skips"] for o in result.outcomes] == [0, 0]
        assert all(o.report is not None and o.report.ok for o in result.outcomes)


class TestKeyboardInterrupt:
    def test_serial_interrupt_returns_partial_result(self):
        programs = (_mk("Alpha"), _mk("Interrupting", _ki_verifier), _mk("Gamma"))
        result = sweep(programs, jobs=1, **FAST)
        assert result.interrupted
        assert result.outcome("Alpha").status == "ok"
        assert result.outcome("Interrupting").status == "interrupted"
        assert result.outcome("Gamma").status == "interrupted"
        assert result.exit_code() == EXIT_INFRA

    def test_pool_interrupt_keeps_completed_verdicts(self, monkeypatch):
        def interrupt_after_alpha(self, active, waiting, results):
            if "Alpha" in results:
                raise KeyboardInterrupt()

        monkeypatch.setattr(Supervisor, "_check_deadlines", interrupt_after_alpha)
        result = sweep(
            TRIO, jobs=2, retries=0, faults="Beta:hang@*;Gamma:hang@*", **FAST
        )
        assert result.interrupted
        assert result.outcome("Alpha").status == "ok"
        assert result.outcome("Beta").status == "interrupted"
        assert result.outcome("Gamma").status == "interrupted"
        assert result.exit_code() == EXIT_INFRA


class TestCLI:
    def test_bad_inject_spec_exits_2(self, capsys):
        from repro.__main__ import main

        assert main(["verify", "--inject", "nonsense", "--no-cache"]) == 2
        assert "fault" in capsys.readouterr().err

    def test_infra_fault_exits_3_not_traceback(self, monkeypatch, capsys):
        import repro.engine as engine_pkg
        from repro.__main__ import main

        crafted = SweepResult(
            outcomes=[
                ProgramOutcome("Alpha", _ok_verifier(), "f", False, 0.1),
                ProgramOutcome(
                    "Beta", None, "f", False, 0.1, status="crashed", retries=2,
                    error={"type": "WorkerCrash", "message": "gone", "traceback": ""},
                ),
            ],
            jobs=2,
        )
        monkeypatch.setattr(engine_pkg, "run_sweep", lambda **kw: crafted)
        code = main(["verify", "--no-cache", "--format", "json"])
        assert code == EXIT_INFRA
        payload = json.loads(capsys.readouterr().out)
        assert payload["exit_code"] == EXIT_INFRA
        by_name = {p["program"]: p for p in payload["programs"]}
        assert by_name["Beta"]["status"] == "crashed"
        assert by_name["Beta"]["retries"] == 2
        assert by_name["Beta"]["error"]["type"] == "WorkerCrash"

    def test_render_marks_quarantined_programs(self):
        crafted = SweepResult(
            outcomes=[
                ProgramOutcome(
                    "Beta", None, "f", False, 0.1, status="timeout", retries=1
                ),
            ],
            jobs=2,
        )
        text = crafted.render()
        assert "timeout" in text
        assert "TIMEOUT Beta" in text

    @pytest.mark.slow
    def test_cli_inject_smoke_recovers(self, capsys, tmp_path):
        """End-to-end: a real registry program crashed once and retried."""
        from repro.__main__ import main

        # Two programs keep the sweep on the pool path: with a single
        # pending program jobs degenerate to 1 (serial, in-process) and
        # an injected crash would take the test process down with it.
        code = main(
            [
                "verify",
                "--program", "CG increment",
                "--program", "CAS-lock",
                "--jobs", "2",
                "--retries", "2",
                "--timeout", "300",
                "--inject", "CG increment:crash@1",
                "--format", "json",
                "--cache-dir", str(tmp_path / "cache"),
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        by_name = {p["program"]: p for p in payload["programs"]}
        assert by_name["CG increment"]["status"] == "ok"
        assert by_name["CG increment"]["retries"] >= 1
        assert by_name["CAS-lock"]["status"] == "ok"
