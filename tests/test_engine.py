"""Tests of the parallel cached verification engine (repro.engine).

Covers the ISSUE 2 acceptance surface: parallel/serial equivalence,
cache hit/invalidation/corruption behaviour, the serial degeneration of
``--jobs 1``, the CLI exit conventions, and the re-entrant pre-pass skip
accounting the engine depends on.
"""

from __future__ import annotations

import json
import sys
import textwrap
from pathlib import Path

import pytest

from repro.core.verify import (
    ObligationResult,
    ReportBuilder,
    VerificationReport,
    set_prepass,
)
from repro.engine import (
    ObligationCache,
    program_fingerprint,
    resolve_programs,
    run_sweep,
    sweep,
)
from repro.structures.registry import ProgramInfo

#: Fast registry rows: enough for equivalence without minutes of wall time.
FAST_PROGRAMS = ("CAS-lock", "Ticketed lock", "CG increment")

ROOT = Path(__file__).resolve().parent.parent


def _verdicts(result):
    """Everything that must be identical across execution strategies."""
    return {
        o.name: (
            o.report.ok,
            {
                ob.name: (ob.ok, tuple(ob.issues), ob.prepass_skips)
                for ob in o.report.obligations
            },
            o.report.counts_by_category(),
        )
        for o in result.outcomes
    }


# -- a tiny synthetic case study for cache-behaviour tests ---------------------

FAKE_MODULE = "engine_cache_probe"

_CALLS: list[str] = []


def _fake_verifier(**kwargs) -> VerificationReport:
    _CALLS.append("run")
    builder = ReportBuilder("Fake")
    builder.obligation("trivial", "Libs", lambda: [])
    return builder.build()


@pytest.fixture()
def fake_program(tmp_path, monkeypatch):
    """A registry-shaped program whose single module lives in tmp_path."""
    module = tmp_path / f"{FAKE_MODULE}.py"
    module.write_text(
        textwrap.dedent(
            '''
            """Synthetic module backing the engine cache tests."""
            VALUE = 1
            '''
        )
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    importlib_invalidate()
    _CALLS.clear()
    info = ProgramInfo(
        name="Fake",
        concurroids={},
        modules=(FAKE_MODULE,),
        verifier=_fake_verifier,
    )
    yield info, module
    importlib_invalidate()


def importlib_invalidate():
    import importlib

    importlib.invalidate_caches()
    sys.modules.pop(FAKE_MODULE, None)


class TestCache:
    def test_cold_then_warm_hit(self, fake_program, tmp_path):
        info, __ = fake_program
        cache_dir = tmp_path / "cache"
        cold = sweep([info], jobs=1, cache_dir=cache_dir)
        assert not cold.outcome("Fake").cached
        assert _CALLS == ["run"]
        warm = sweep([info], jobs=1, cache_dir=cache_dir)
        assert warm.outcome("Fake").cached
        assert _CALLS == ["run"], "warm rerun must not re-verify"
        assert _verdicts(cold) == _verdicts(warm)

    def test_module_source_edit_invalidates(self, fake_program, tmp_path):
        info, module = fake_program
        cache_dir = tmp_path / "cache"
        before = program_fingerprint(info)
        sweep([info], jobs=1, cache_dir=cache_dir)
        module.write_text(module.read_text().replace("VALUE = 1", "VALUE = 2"))
        assert program_fingerprint(info) != before
        again = sweep([info], jobs=1, cache_dir=cache_dir)
        assert not again.outcome("Fake").cached
        assert _CALLS == ["run", "run"]

    def test_kwargs_change_invalidates(self, fake_program):
        from dataclasses import replace

        info, __ = fake_program
        rebudgeted = replace(info, verifier_kwargs={"env_budget": 3})
        assert program_fingerprint(info) != program_fingerprint(rebudgeted)

    def test_corrupted_cache_falls_back_to_recompute(self, fake_program, tmp_path):
        info, __ = fake_program
        cache_dir = tmp_path / "cache"
        sweep([info], jobs=1, cache_dir=cache_dir)
        path = ObligationCache(cache_dir).path_for("Fake")
        path.write_text("{ this is not json")
        again = sweep([info], jobs=1, cache_dir=cache_dir)
        assert not again.outcome("Fake").cached
        assert _CALLS == ["run", "run"]
        # ...and the entry is healed for the next run.
        assert json.loads(path.read_text())["program"] == "Fake"
        healed = sweep([info], jobs=1, cache_dir=cache_dir)
        assert healed.outcome("Fake").cached

    def test_no_cache_never_touches_disk(self, fake_program, tmp_path):
        info, __ = fake_program
        cache_dir = tmp_path / "cache"
        sweep([info], jobs=1, cache=False, cache_dir=cache_dir, journal=False)
        assert not cache_dir.exists()

    def test_no_cache_writes_journal_but_no_entries(self, fake_program, tmp_path):
        # cache=False still journals (resume must work with the cache
        # off) but must never write cache *entries*.
        info, __ = fake_program
        cache_dir = tmp_path / "cache"
        result = sweep([info], jobs=1, cache=False, cache_dir=cache_dir)
        assert Path(result.journal_path).is_file()
        assert list(cache_dir.glob("*.json")) == []

    def test_colliding_program_names_get_distinct_files(self, tmp_path):
        # "CAS-lock" and "CAS lock" slugify to the same readable stem;
        # without the name digest one would evict the other's entry.
        cache = ObligationCache(tmp_path / "cache")
        assert cache.path_for("CAS-lock") != cache.path_for("CAS lock")
        assert cache.path_for("Fake!") != cache.path_for("fake?")

    def test_store_failure_cleans_up_its_temp_file(self, fake_program, tmp_path, monkeypatch):
        info, __ = fake_program
        cache_dir = tmp_path / "cache"
        result = sweep([info], jobs=1, cache=False)
        report = result.outcome("Fake").report
        cache = ObligationCache(cache_dir)

        def torn_replace(src, dst):
            raise OSError("disk full")

        import os as os_mod

        monkeypatch.setattr(os_mod, "replace", torn_replace)
        with pytest.raises(OSError):
            cache.store("Fake", "fp", report)
        leftovers = [p.name for p in cache_dir.iterdir()]
        assert not any(".tmp." in name for name in leftovers), leftovers

    def test_store_failure_does_not_kill_the_sweep(self, fake_program, tmp_path, monkeypatch):
        info, __ = fake_program
        cache_dir = tmp_path / "cache"

        def no_store(self, *args, **kwargs):
            raise OSError("read-only filesystem")

        monkeypatch.setattr(ObligationCache, "store", no_store)
        result = sweep([info], jobs=1, cache_dir=cache_dir)
        assert result.ok
        assert any("cache store failed" in w for w in result.warnings)

    def test_clear_removes_only_cache_entries(self, fake_program, tmp_path):
        info, __ = fake_program
        cache_dir = tmp_path / "cache"
        # journal=False: the journal dir is clear()'s business too and is
        # covered below — this test isolates the entry/foreign-file rule.
        sweep([info], jobs=1, cache_dir=cache_dir, journal=False)
        foreign = cache_dir / "notes.json"
        foreign.write_text(json.dumps({"todo": "keep me"}))
        invalid = cache_dir / "broken.json"
        invalid.write_text("{ not json")
        cache = ObligationCache(cache_dir)
        assert cache.clear() == 1
        assert foreign.exists()
        assert invalid.exists()
        assert not cache.path_for("Fake").exists()

    def test_clear_also_removes_corrupt_and_journal_dirs(self, fake_program, tmp_path):
        from repro.engine.journal import JOURNAL_DIRNAME

        info, __ = fake_program
        cache_dir = tmp_path / "cache"
        sweep([info], jobs=1, cache_dir=cache_dir)  # entry + journal
        cache = ObligationCache(cache_dir)
        corrupt = cache.corrupt_dir
        corrupt.mkdir(parents=True, exist_ok=True)
        (corrupt / "old-entry.json.1").write_text("{ quarantined")
        (corrupt / "old-entry.json.2").write_text("{ quarantined again")
        journal = cache_dir / JOURNAL_DIRNAME
        journal_files = [p for p in journal.rglob("*") if p.is_file()]
        assert journal_files, "sweep should have journaled"
        # 1 entry + 2 quarantined + the journal files, all counted.
        assert cache.clear() == 1 + 2 + len(journal_files)
        assert not corrupt.exists()
        assert not journal.exists()
        # Idempotent: nothing of ours is left.
        assert cache.clear() == 0

    def test_report_round_trips_through_dict(self):
        report = VerificationReport(
            "demo",
            [
                ObligationResult("a", "Libs", True, [], 0.25, prepass_skips=2),
                ObligationResult("b", "Main", False, ["bad"], 1.5),
            ],
        )
        clone = VerificationReport.from_dict(report.to_dict())
        assert clone.program == report.program
        assert [o.to_dict() for o in clone.obligations] == [
            o.to_dict() for o in report.obligations
        ]


class TestSweep:
    def test_jobs_1_degenerates_to_serial(self, fake_program, monkeypatch):
        import multiprocessing

        def boom(*args, **kwargs):  # pragma: no cover - must never run
            raise AssertionError("jobs=1 must not create a process pool")

        monkeypatch.setattr(multiprocessing, "Pool", boom)
        info, __ = fake_program
        result = sweep([info], jobs=1, cache=False)
        assert result.jobs == 1
        assert result.ok

    def test_unknown_program_raises_keyerror_listing_known(self):
        with pytest.raises(KeyError) as exc:
            resolve_programs(["No such thing"])
        assert "No such thing" in str(exc.value)
        assert "CAS-lock" in str(exc.value)

    @pytest.mark.slow
    def test_parallel_equals_serial_on_three_case_studies(self):
        serial = run_sweep(names=list(FAST_PROGRAMS), jobs=1, cache=False)
        parallel = run_sweep(names=list(FAST_PROGRAMS), jobs=3, cache=False)
        assert serial.jobs == 1
        assert parallel.jobs == 3
        assert _verdicts(serial) == _verdicts(parallel)
        assert serial.ok and parallel.ok

    @pytest.mark.slow
    def test_registry_cache_round_trip(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cold = run_sweep(names=["CG increment"], jobs=1, cache_dir=cache_dir)
        warm = run_sweep(names=["CG increment"], jobs=1, cache_dir=cache_dir)
        assert warm.hits == 1
        assert _verdicts(cold) == _verdicts(warm)
        # Replayed wall time is file I/O, not verification.
        assert warm.outcome("CG increment").seconds < cold.outcome("CG increment").seconds


class TestScopedSkipAccounting:
    """Regression: skip attribution must be scoped, not global-delta."""

    class _AlwaysDischarges:
        def __init__(self):
            self.skipped = []
            self.consulted = 0

        def discharges(self, assertion, name, conc, states):
            self.consulted += 1
            self.skipped.append(name)
            return True

    @pytest.fixture()
    def prepass(self):
        pp = self._AlwaysDischarges()
        set_prepass(pp)
        yield pp
        set_prepass(None)

    @staticmethod
    def _skip_one(name):
        from repro.core.stability import check_stability

        issues = check_stability(lambda s: True, name, None, [object()])
        assert issues == []

    def test_nested_obligations_attribute_to_innermost(self, prepass):
        builder = ReportBuilder("demo")

        def outer():
            self._skip_one("outer-assert")
            inner = builder.obligation(
                "inner", "Stab", lambda: self._skip_one("inner-assert") or []
            )
            # The buggy global-delta accounting charged the outer
            # obligation with the inner one's skip as well (delta = 2).
            assert inner.prepass_skips == 1
            return []

        result = builder.obligation("outer", "Stab", outer)
        assert result.prepass_skips == 1
        assert prepass.skipped == ["outer-assert", "inner-assert"]

    def test_skips_outside_any_obligation_are_not_lost_track_of(self, prepass):
        # No obligation in flight: recording is a no-op, not a crash.
        self._skip_one("floating")
        assert prepass.skipped == ["floating"]

    def test_sequential_obligations_each_count_their_own(self, prepass):
        builder = ReportBuilder("demo")
        first = builder.obligation(
            "one", "Stab", lambda: self._skip_one("a") or []
        )
        second = builder.obligation(
            "two",
            "Stab",
            lambda: (self._skip_one("b"), self._skip_one("c")) and [],
        )
        assert first.prepass_skips == 1
        assert second.prepass_skips == 2


class TestPrepassInstallation:
    """A pre-pass installed by the caller survives nested pre-passes and
    serial sweeps, and ``prepass=False`` means none is consulted."""

    def test_static_prepass_blocks_nest(self):
        from repro.analysis.prepass import static_prepass
        from repro.core.verify import get_prepass

        with static_prepass() as outer:
            with static_prepass() as inner:
                assert get_prepass() is inner
            assert get_prepass() is outer
        assert get_prepass() is None

    def test_serial_sweep_restores_the_callers_prepass(self):
        from repro.analysis.prepass import static_prepass
        from repro.core.verify import get_prepass

        with static_prepass() as outer:
            result = run_sweep(["Prod/Cons"], jobs=1, cache=False, journal=False)
            assert get_prepass() is outer
        assert result.ok

    def test_serial_sweep_without_prepass_ignores_the_callers(self):
        from repro.analysis.prepass import static_prepass
        from repro.core.verify import get_prepass

        with static_prepass() as outer:
            result = run_sweep(
                ["CAS-lock"], jobs=1, cache=False, journal=False, prepass=False
            )
            assert get_prepass() is outer
        assert result.ok
        assert result.outcome("CAS-lock").report.prepass_skips == 0
        assert outer.consulted == 0
        assert outer.skipped == []


class TestCLI:
    def test_unknown_program_exits_2_with_stderr_message(self, capsys):
        from repro.__main__ import main

        code = main(["verify", "--program", "Bogus", "--no-cache"])
        assert code == 2
        err = capsys.readouterr().err
        assert "repro-verify" in err
        assert "Bogus" in err

    def test_lint_and_verify_agree_on_unknown_program_exit(self, capsys):
        from repro.__main__ import main

        assert main(["lint", "--program", "Bogus"]) == 2
        assert main(["verify", "--program", "Bogus", "--no-cache"]) == 2

    @pytest.mark.slow
    def test_verify_json_output(self, capsys, tmp_path):
        from repro.__main__ import main

        code = main(
            [
                "verify",
                "--program",
                "CG increment",
                "--jobs",
                "1",
                "--format",
                "json",
                "--cache-dir",
                str(tmp_path / "cache"),
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["programs"][0]["program"] == "CG increment"
        assert payload["programs"][0]["cached"] is False

    def test_eval_main_returns_exit_code(self, monkeypatch, capsys):
        # Regression: eval used to raise SystemExit from deep inside the
        # report module, leaving ``python -m repro``'s return unreachable.
        import repro.eval.report as report_mod

        stub = report_mod.EvaluationReport(issues=["synthetic failure"])
        monkeypatch.setattr(
            report_mod, "run_evaluation", lambda **kwargs: stub
        )
        assert report_mod.main() == 1
        stub_ok = report_mod.EvaluationReport()
        monkeypatch.setattr(
            report_mod, "run_evaluation", lambda **kwargs: stub_ok
        )
        assert report_mod.main() == 0
        from repro.__main__ import main

        assert main(["eval", "--jobs", "1", "--no-cache"]) == 0


class TestStableDigest:
    def test_equal_structures_equal_digests_despite_distinct_ids(self):
        from repro.core.prog import act, par
        from repro.core.world import World
        from repro.semantics.interp import initial_config

        from .helpers import BumpAction, CounterConcurroid, counter_state

        def build():
            conc = CounterConcurroid(cap=3)
            world = World((conc,))
            prog = par(act(BumpAction(conc)), act(BumpAction(conc)))
            return initial_config(world, counter_state(conc), prog)

        one, two = build(), build()
        # position_key embeds ids of the (distinct) action instances...
        assert one.position_key() != two.position_key()
        # ...but the stable digest is content-addressed.
        assert one.stable_digest() == two.stable_digest()

    def test_digest_stable_across_processes(self):
        import os
        import subprocess

        script = (
            "from repro.semantics.interp import stable_digest;"
            "print(stable_digest((1, 'x', {'a': (2, 3)}, frozenset({4, 5}))))"
        )
        runs = set()
        for seed in ("0", "1"):
            env = dict(os.environ)
            env["PYTHONPATH"] = str(ROOT / "src")
            env["PYTHONHASHSEED"] = seed
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                check=True,
                env=env,
                cwd=str(ROOT),
            )
            runs.add(proc.stdout.strip())
        assert len(runs) == 1

    def test_digest_distinguishes_different_states(self):
        from repro.semantics.interp import stable_digest

        assert stable_digest((1, 2)) != stable_digest((2, 1))
