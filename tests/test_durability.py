"""Durable-sweep chaos suite: crash recovery via the sweep journal,
cache self-healing, disk-full degradation and the watchdog checkpoint.

The headline test runs a sweep in a *subprocess*, SIGKILLs it mid-flight
at a deterministic point (the injected ``sigkill`` fault fires right
after the first ``unit:done`` journal append), resumes, and asserts the
resumed verdicts — including the failing program's issues — are
identical to an uninterrupted run, with at least one unit replayed from
the journal rather than re-executed.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.verify import ReportBuilder
from repro.engine import (
    EXIT_INFRA,
    ObligationCache,
    ResourceWatchdog,
    load_image,
    program_fingerprint,
    sweep,
)
from repro.structures.registry import ProgramInfo

DRIVER = Path(__file__).resolve().parent / "_durability_driver.py"

FAST = dict(cache=False, prepass=False, backoff=0.05)


def _run_driver(cache_dir, *extra):
    proc = subprocess.run(
        [sys.executable, str(DRIVER), str(cache_dir), *extra],
        capture_output=True,
        text=True,
        timeout=120,
    )
    return proc


def _ok_verifier(**kwargs):
    builder = ReportBuilder(kwargs.get("label", "ok"))
    builder.obligation("trivial", "Libs", lambda: [])
    builder.obligation("main", "Main", lambda: [])
    return builder.build()


ENV_KI = "REPRO_TEST_INTERRUPT"


def _env_gated_ki_verifier(**kwargs):
    if os.environ.get(ENV_KI):
        raise KeyboardInterrupt()
    return _ok_verifier(**kwargs)


def _mk(name: str, verifier=_ok_verifier) -> ProgramInfo:
    return ProgramInfo(
        name=name,
        concurroids={},
        modules=(),
        verifier=verifier,
        verifier_kwargs={"label": name},
    )


# -- kill -9 mid-sweep, then --resume ------------------------------------------


class TestHardCrashResume:
    def test_sigkill_then_resume_matches_uninterrupted_run(self, tmp_path):
        crashed = _run_driver(
            tmp_path / "cache", "--faults", "Alpha:sigkill@1"
        )
        # The injected fault hard-kills the sweep process itself.
        assert crashed.returncode == -signal.SIGKILL
        # The journal survived the crash and records Alpha's verdict but
        # no terminal sweep record.
        image = load_image(tmp_path / "cache" / "journal" / "sweep.jsonl")
        assert image.exists and not image.completed
        assert "Alpha" in image.done

        resumed = _run_driver(tmp_path / "cache", "--resume")
        reference = _run_driver(tmp_path / "reference")
        out = json.loads(resumed.stdout)
        ref = json.loads(reference.stdout)
        # Verdicts (including the failing program's issue text) and the
        # exit code are provably identical to an uninterrupted run.
        assert out["verdicts"] == ref["verdicts"]
        assert out["exit_code"] == ref["exit_code"] == resumed.returncode
        # ...and at least one unit truly came from the journal.
        assert out["replayed_units"] >= 1
        assert ref["replayed_units"] == 0

    def test_sigkill_resume_with_split_obligations(self, tmp_path):
        crashed = _run_driver(
            tmp_path / "cache",
            "--split",
            "--faults", "Alpha:sigkill@2",
        )
        assert crashed.returncode == -signal.SIGKILL
        resumed = _run_driver(tmp_path / "cache", "--split", "--resume")
        reference = _run_driver(tmp_path / "reference", "--split")
        out = json.loads(resumed.stdout)
        ref = json.loads(reference.stdout)
        assert out["verdicts"] == ref["verdicts"]
        assert out["exit_code"] == ref["exit_code"]
        # Two group units were journaled before the kill on attempt 2.
        assert out["replayed_units"] >= 2

    def test_resume_without_journal_warns_and_runs_fully(self, tmp_path):
        proc = _run_driver(tmp_path / "cache", "--resume")
        out = json.loads(proc.stdout)
        assert out["replayed_units"] == 0
        assert any("resume" in w for w in out["warnings"])
        assert proc.returncode == out["exit_code"]

    def test_edited_program_reruns_fresh_on_resume(self, tmp_path, monkeypatch):
        programs = (_mk("Alpha"), _mk("Beta"))
        sweep(programs, jobs=1, cache_dir=tmp_path, **FAST)
        # Same journal, but Beta's fingerprint changed (edited kwargs):
        # resume must replay Alpha alone and re-execute Beta.
        edited = (
            programs[0],
            ProgramInfo(
                name="Beta",
                concurroids={},
                modules=(),
                verifier=_ok_verifier,
                verifier_kwargs={"label": "Beta", "budget": 2},
            ),
        )
        result = sweep(
            edited, jobs=1, cache_dir=tmp_path, resume=True, **FAST
        )
        assert result.outcome("Alpha").replayed_units == 1
        assert result.outcome("Beta").replayed_units == 0
        assert result.ok


# -- KeyboardInterrupt leaves a resumable journal ------------------------------


class TestInterruptResume:
    def test_ctrl_c_partial_sweep_is_resumable(self, tmp_path, monkeypatch):
        programs = (
            _mk("Alpha"),
            _mk("Interrupting", _env_gated_ki_verifier),
            _mk("Gamma"),
        )
        monkeypatch.setenv(ENV_KI, "1")
        first = sweep(programs, jobs=1, cache_dir=tmp_path, **FAST)
        assert first.interrupted
        assert first.exit_code() == EXIT_INFRA
        assert first.outcome("Alpha").status == "ok"
        # The partial result was journaled before returning: Alpha's
        # verdict is on disk, the terminal record says interrupted.
        image = load_image(Path(first.journal_path))
        assert "Alpha" in image.done
        assert not image.completed

        monkeypatch.delenv(ENV_KI)
        second = sweep(
            programs, jobs=1, cache_dir=tmp_path, resume=True, **FAST
        )
        assert second.ok and second.exit_code() == 0
        assert second.outcome("Alpha").replayed_units == 1
        assert second.outcome("Interrupting").replayed_units == 0
        assert second.replayed == 1


# -- cache self-healing --------------------------------------------------------


class TestCacheSelfHealing:
    def test_corrupt_entry_quarantined_and_recomputed(self, tmp_path):
        info = _mk("Fake")
        # Populate, with the stored entry byte-flipped post-write.
        sweep(
            [info], jobs=1, cache=True, cache_dir=tmp_path,
            prepass=False, faults="Fake:corrupt@1", journal=False,
        )
        store = ObligationCache(tmp_path)
        fingerprint = program_fingerprint(info)
        # The flipped entry must never load as a verdict...
        report, warning = store.load_verified("Fake", fingerprint)
        assert report is None
        assert warning is not None and "checksum" in warning
        # ...and was quarantined out of the way, not left in place.
        assert not store.path_for("Fake").exists()
        assert list(store.corrupt_dir.iterdir())

        # A follow-up sweep recomputes with a warning — never a crash,
        # never a stale verdict.
        result = sweep(
            [info], jobs=1, cache=True, cache_dir=tmp_path,
            prepass=False, journal=False,
        )
        outcome = result.outcome("Fake")
        assert outcome.status == "ok" and not outcome.cached
        # The recomputed entry is intact again (self-healed).
        assert store.load("Fake", fingerprint) is not None

    def test_quarantine_is_observable_in_sweep_warnings(self, tmp_path):
        info = _mk("Fake")
        sweep(
            [info], jobs=1, cache=True, cache_dir=tmp_path,
            prepass=False, faults="Fake:corrupt@1", journal=False,
        )
        result = sweep(
            [info], jobs=1, cache=True, cache_dir=tmp_path,
            prepass=False, journal=False,
        )
        assert any("corrupt" in w for w in result.warnings)
        assert result.exit_code() == 0

    def test_hand_mangled_entry_is_also_healed(self, tmp_path):
        # Not just the injected flavor: truncate the file by hand.
        info = _mk("Fake")
        sweep(
            [info], jobs=1, cache=True, cache_dir=tmp_path,
            prepass=False, journal=False,
        )
        store = ObligationCache(tmp_path)
        path = store.path_for("Fake")
        path.write_text(path.read_text()[: 40])
        result = sweep(
            [info], jobs=1, cache=True, cache_dir=tmp_path,
            prepass=False, journal=False,
        )
        assert result.outcome("Fake").status == "ok"
        assert not result.outcome("Fake").cached
        assert any("corrupt" in w for w in result.warnings)


# -- disk-full degradation -----------------------------------------------------


class TestDiskFull:
    def test_journal_diskfull_degrades_with_warning(self, tmp_path):
        result = sweep(
            [_mk("Fake")], jobs=1, cache_dir=tmp_path,
            faults="Fake:diskfull@*", **FAST,
        )
        assert result.outcome("Fake").status == "ok"
        assert result.exit_code() == 0
        assert any("journal disabled" in w for w in result.warnings)

    def test_cache_diskfull_degrades_with_warning(self, tmp_path):
        result = sweep(
            [_mk("Fake")], jobs=1, cache=True, cache_dir=tmp_path,
            prepass=False, faults="Fake:diskfull@*", journal=False,
        )
        assert result.outcome("Fake").status == "ok"
        assert result.exit_code() == 0
        assert any("cache store failed" in w for w in result.warnings)
        # Nothing half-written: the slot is a clean miss, not corruption.
        assert ObligationCache(tmp_path).load(
            "Fake", program_fingerprint(_mk("Fake"))
        ) is None


# -- watchdog checkpoint end-to-end --------------------------------------------


class TestWatchdogCheckpoint:
    @pytest.fixture()
    def synchronous_watchdog(self, monkeypatch):
        """Sample immediately at start() instead of on a timer, so fast
        sweeps still observe the breach deterministically."""

        def start_and_sample(self):
            self.sample_once()
            return self

        monkeypatch.setattr(ResourceWatchdog, "start", start_and_sample)

    def test_disk_budget_checkpoint_exits_3_and_resumes(
        self, tmp_path, synchronous_watchdog
    ):
        # Blow the disk budget before the sweep starts: rung 3 at the
        # first sample, every unit checkpointed as interrupted.
        big = tmp_path / "preexisting.bin"
        big.write_bytes(b"x" * (2 * 2**20))
        programs = (_mk("Alpha"), _mk("Beta"))
        first = sweep(
            programs, jobs=1, cache_dir=tmp_path, max_disk_mb=1, **FAST
        )
        assert first.interrupted
        assert first.exit_code() == EXIT_INFRA
        assert all(o.status == "interrupted" for o in first.outcomes)
        assert any("watchdog" in w for w in first.warnings)

        # Resume without the budget: the sweep completes.
        big.unlink()
        second = sweep(
            programs, jobs=1, cache_dir=tmp_path, resume=True, **FAST
        )
        assert second.ok and second.exit_code() == 0

    def test_shed_rung_does_not_degrade_the_sweep(
        self, tmp_path, monkeypatch, synchronous_watchdog
    ):
        monkeypatch.setattr(
            "repro.engine.watchdog.tree_rss_bytes", lambda: 75
        )
        result = sweep(
            [_mk("Alpha")], jobs=1, cache_dir=tmp_path,
            max_rss_mb=100 / 2**20, **FAST,
        )
        assert result.ok and result.exit_code() == 0
        assert not result.degraded
        assert any("shed" in w for w in result.warnings)

    def test_shrink_rung_marks_degraded(
        self, tmp_path, monkeypatch, synchronous_watchdog
    ):
        from repro.core.verify import current_options

        seen = {}

        def spy_verifier(**kwargs):
            seen["scale"] = current_options().cap_scale
            return _ok_verifier(**kwargs)

        monkeypatch.setattr(
            "repro.engine.watchdog.tree_rss_bytes", lambda: 90
        )
        result = sweep(
            [_mk("Alpha", spy_verifier)], jobs=1, cache_dir=tmp_path,
            max_rss_mb=100 / 2**20, **FAST,
        )
        assert result.degraded
        assert result.exit_code() == EXIT_INFRA
        # The cap shrink was in force while the verifier ran...
        assert seen["scale"] == 0.5
        # ...and was restored after the sweep.
        assert current_options().cap_scale == 1.0
