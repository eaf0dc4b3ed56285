"""Unit tests for the durability layer: the sweep journal, the work
unit and its outcome, and the resource watchdog ladder.

The journal is exercised at the record level (CRC framing, torn-tail
tolerance, latest-wins image folding) without running sweeps; sweeps
over the journal live in tests/test_durability.py.  The watchdog is
driven synchronously through ``sample_once`` with monkeypatched
usage probes — no threads, no real memory pressure.
"""

from __future__ import annotations

import pytest

from repro.core.verify import ReportBuilder, VerificationReport
from repro.engine import (
    JOURNAL_SCHEMA_VERSION,
    ProgramOutcome,
    SweepJournal,
    UnitRecord,
    WorkUnit,
    journal_path,
    load_image,
    read_journal,
)
from repro.engine.journal import _decode, _encode
from repro.engine.watchdog import (
    LEVEL_NAMES,
    ResourceWatchdog,
    dir_bytes,
)
from repro.structures.registry import ProgramInfo


def _noop_verifier(**kwargs):
    return None


def _mk(name: str) -> ProgramInfo:
    return ProgramInfo(
        name=name, concurroids={}, modules=(), verifier=_noop_verifier
    )


def _report(program: str, ok: bool = True) -> VerificationReport:
    builder = ReportBuilder(program)
    builder.obligation("one", "Libs", lambda: [] if ok else ["broken"])
    return builder.build()


# -- record framing ------------------------------------------------------------


class TestRecordFraming:
    def test_encode_decode_round_trip(self):
        record = {"event": "unit:done", "unit": "Alpha", "n": 3}
        assert _decode(_encode(record)) == record

    def test_corrupt_crc_is_dropped(self):
        line = _encode({"event": "x"})
        bad = ("0" * 8) + line[8:]
        assert _decode(bad) is None

    def test_torn_line_is_dropped(self):
        line = _encode({"event": "x", "payload": "y" * 100})
        assert _decode(line[: len(line) // 2]) is None

    def test_read_journal_survives_torn_tail(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        good = _encode({"schema": JOURNAL_SCHEMA_VERSION, "event": "a"})
        torn = _encode({"schema": JOURNAL_SCHEMA_VERSION, "event": "b"})
        path.write_text(good + torn[: len(torn) - 7])
        records = read_journal(path)
        assert [r["event"] for r in records] == ["a"]

    def test_wrong_schema_is_ignored(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        path.write_text(
            _encode({"schema": JOURNAL_SCHEMA_VERSION + 1, "event": "a"})
        )
        assert read_journal(path) == []

    def test_missing_file_is_empty(self, tmp_path):
        assert read_journal(tmp_path / "absent.jsonl") == []
        image = load_image(tmp_path / "absent.jsonl")
        assert not image.exists and not image.completed


# -- the append side + image folding -------------------------------------------


class TestJournalLifecycle:
    def _begin(self, sj, *, resume=False):
        sj.begin(
            {"Alpha": "f-a", "Beta": "f-b"},
            ["Alpha", "Beta"],
            resume=resume,
        )

    def test_done_units_are_replayable(self, tmp_path):
        sj = SweepJournal(tmp_path / "j.jsonl")
        self._begin(sj)
        sj.unit_leased("Alpha", "Alpha", attempt=1, lease_seconds=5.0)
        sj.unit_done(
            "Alpha", "Alpha", "report",
            payload={"report": _report("Alpha").to_dict()},
        )
        image = load_image(sj.path)
        assert image.exists and not image.completed
        assert image.fingerprints == {"Alpha": "f-a", "Beta": "f-b"}
        rec = image.replayable("Alpha", "Alpha", "f-a")
        assert rec is not None and rec["event"] == "unit:done"
        # Beta never completed: pending on resume.
        assert image.replayable("Beta", "Beta", "f-b") is None

    def test_fingerprint_mismatch_blocks_replay(self, tmp_path):
        sj = SweepJournal(tmp_path / "j.jsonl")
        self._begin(sj)
        sj.unit_done(
            "Alpha", "Alpha", "report",
            payload={"report": _report("Alpha").to_dict()},
        )
        image = load_image(sj.path)
        assert image.replayable("Alpha", "Alpha", "different") is None

    def test_infra_failure_forgets_earlier_verdict(self, tmp_path):
        sj = SweepJournal(tmp_path / "j.jsonl")
        self._begin(sj)
        sj.unit_done(
            "Alpha", "Alpha", "report",
            payload={"report": _report("Alpha").to_dict()},
        )
        sj.unit_done("Alpha", "Alpha", "crashed", error={"type": "X"})
        image = load_image(sj.path)
        assert image.replayable("Alpha", "Alpha", "f-a") is None

    def test_fresh_start_truncates_previous_sweep(self, tmp_path):
        sj = SweepJournal(tmp_path / "j.jsonl")
        self._begin(sj)
        sj.unit_done(
            "Alpha", "Alpha", "report",
            payload={"report": _report("Alpha").to_dict()},
        )
        sj.close()
        sj2 = SweepJournal(sj.path)
        self._begin(sj2)  # not a resume: truncates
        image = load_image(sj.path)
        assert image.done == {}

    def test_resume_keeps_previous_records(self, tmp_path):
        sj = SweepJournal(tmp_path / "j.jsonl")
        self._begin(sj)
        sj.unit_done(
            "Alpha", "Alpha", "report",
            payload={"report": _report("Alpha").to_dict()},
        )
        sj.close()
        sj2 = SweepJournal(sj.path)
        self._begin(sj2, resume=True)
        image = load_image(sj.path)
        assert image.replayable("Alpha", "Alpha", "f-a") is not None

    def test_finish_marks_completed(self, tmp_path):
        sj = SweepJournal(tmp_path / "j.jsonl")
        self._begin(sj)
        sj.finish(0)
        assert load_image(sj.path).completed

    def test_interrupted_finish_is_not_completed(self, tmp_path):
        sj = SweepJournal(tmp_path / "j.jsonl")
        self._begin(sj)
        sj.finish(3, interrupted=True)
        assert not load_image(sj.path).completed

    def test_write_failure_breaks_not_raises(self, tmp_path, monkeypatch):
        sj = SweepJournal(tmp_path / "j.jsonl")
        self._begin(sj)
        import os as _os

        def boom(fd):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(_os, "fsync", boom)
        sj.unit_leased("Alpha", "Alpha", attempt=1, lease_seconds=None)
        assert sj.broken is not None
        # Subsequent appends are silent no-ops.
        sj.unit_done("Alpha", "Alpha", "report", payload={"report": {}})
        sj.finish(0)


# -- the work queue ------------------------------------------------------------


class TestWorkQueue:
    def test_program_mode_is_identity(self):
        units = [WorkUnit(_mk("Alpha")), WorkUnit(_mk("Beta"), collect_deps=True)]
        assert [u.name for u in units] == ["Alpha", "Beta"]
        assert [u.program for u in units] == ["Alpha", "Beta"]

    def test_any_infra_unit_quarantines_the_program(self):
        record = UnitRecord(
            WorkUnit(_mk("Alpha")), "timeout", error={"type": "Timeout"},
            retries=1, seconds=0.5,
        )
        outcome = ProgramOutcome.from_record(record, "f-a")
        assert outcome.report is None and outcome.quarantined
        assert outcome.status == "timeout"
        assert outcome.error == {"type": "Timeout"}
        assert outcome.retries == 1
        assert outcome.seconds == pytest.approx(0.5)

    def test_failed_verdict_is_not_infra(self):
        record = UnitRecord(
            WorkUnit(_mk("Alpha")), "report",
            payload={"report": _report("Alpha", ok=False).to_dict()},
        )
        outcome = ProgramOutcome.from_record(record, "f-a")
        assert outcome.status == "failed" and not outcome.quarantined
        assert outcome.report is not None and not outcome.report.ok
        assert outcome.error is None

    def test_replayed_units_are_counted(self):
        record = UnitRecord(
            WorkUnit(_mk("Alpha")), "report",
            payload={"report": _report("Alpha").to_dict()},
            replayed=True,
        )
        outcome = ProgramOutcome.from_record(record, "f-a")
        assert outcome.status == "ok"
        assert outcome.replayed_units == 1 and outcome.replayed
        assert "units" not in outcome.to_dict()


# -- the resource watchdog -----------------------------------------------------


class TestWatchdog:
    def _dog(self, monkeypatch, frac, **kwargs):
        """A watchdog whose RSS probe reports ``frac`` of a 100-byte
        budget (mutable through the returned setter)."""
        state = {"rss": int(frac * 100)}
        monkeypatch.setattr(
            "repro.engine.watchdog.tree_rss_bytes", lambda: state["rss"]
        )
        dog = ResourceWatchdog(max_rss_bytes=100, **kwargs)

        def set_frac(f):
            state["rss"] = int(f * 100)

        return dog, set_frac

    def test_nominal_below_shed(self, monkeypatch):
        dog, __ = self._dog(monkeypatch, 0.5)
        assert dog.sample_once() == 0
        assert dog.throttle(8)() == 8
        assert dog.stop_reason() is None
        assert not dog.degraded

    def test_shed_halves_the_window(self, monkeypatch):
        dog, __ = self._dog(monkeypatch, 0.75)
        assert dog.sample_once() == 1
        assert dog.throttle(8)() == 4
        assert dog.throttle(1)() == 1  # never below one
        assert not dog.degraded

    def test_shrink_marks_degraded(self, monkeypatch):
        dog, __ = self._dog(monkeypatch, 0.90)
        assert dog.sample_once() == 2
        assert dog.degraded
        assert dog.stop_reason() is None

    def test_stop_at_budget(self, monkeypatch):
        dog, __ = self._dog(monkeypatch, 1.2)
        assert dog.sample_once() == 3
        reason = dog.stop_reason()
        assert reason is not None and "budget" in reason

    def test_ladder_is_a_ratchet(self, monkeypatch):
        dog, set_frac = self._dog(monkeypatch, 0.90)
        assert dog.sample_once() == 2
        set_frac(0.1)  # pressure released...
        assert dog.sample_once() == 2  # ...but the ladder never descends
        assert dog.degraded

    def test_every_rung_fires_once(self, monkeypatch):
        fired = []
        dog, set_frac = self._dog(
            monkeypatch, 0.0, on_level=lambda lvl, why: fired.append(lvl)
        )
        dog.sample_once()
        set_frac(1.5)  # jump straight past every threshold
        dog.sample_once()
        dog.sample_once()  # staying high re-fires nothing
        assert fired == [1, 2, 3]
        assert set(LEVEL_NAMES) == {0, 1, 2, 3}

    def test_disk_budget_walks_the_cache_dir(self, tmp_path):
        (tmp_path / "entry.json").write_bytes(b"x" * 600)
        sub = tmp_path / "journal"
        sub.mkdir()
        (sub / "sweep.jsonl").write_bytes(b"y" * 600)
        assert dir_bytes(tmp_path) == 1200
        dog = ResourceWatchdog(max_disk_bytes=1000, disk_root=tmp_path)
        assert dog.sample_once() == 3
        assert "disk" in dog.stop_reason()

    def test_thread_lifecycle_is_safe_without_budgets(self):
        dog = ResourceWatchdog()
        assert dog.start() is dog  # no budget: no thread
        dog.stop()

    def test_journal_path_lives_under_cache_root(self, tmp_path):
        assert journal_path(tmp_path) == tmp_path / "journal" / "sweep.jsonl"

    def test_workunit_pickles(self):
        import pickle

        unit = WorkUnit(_mk("Alpha"), names=frozenset({"one"}))
        clone = pickle.loads(pickle.dumps(unit))
        assert clone.name == unit.name and clone.name.startswith("Alpha::inc-")
        assert clone.names == frozenset({"one"})
