"""Unit tests for traces and events."""

from repro.core import World
from repro.core.prog import act, par, ret, seq
from repro.semantics import initial_config, run_deterministic
from repro.semantics.trace import Event, Trace

from .helpers import BumpAction, CounterConcurroid, counter_state


class TestEvent:
    def test_act_str(self):
        e = Event("act", 3, "ct.bump", (1,), True)
        assert str(e) == "t3: ct.bump(1) = True"

    def test_env_str(self):
        assert str(Event("env", -1, "ct.bump(None)")) == "env: ct.bump(None)"

    def test_crash_str(self):
        e = Event("crash", 2, "lk.release", (True,))
        assert str(e) == "t2: lk.release(True) CRASHED"

    def test_other_kinds(self):
        assert "fork" in str(Event("fork", 0, "-> t1, t2"))

    def test_events_are_frozen_and_comparable(self):
        a = Event("act", 0, "x", (1,), 2)
        b = Event("act", 0, "x", (1,), 2)
        assert a == b
        import dataclasses

        import pytest

        with pytest.raises(dataclasses.FrozenInstanceError):
            a.tid = 1


class TestTrace:
    def test_append_is_persistent(self):
        t0 = Trace()
        t1 = t0.append(Event("act", 0, "x"))
        assert len(t0) == 0
        assert len(t1) == 1

    def test_append_preserves_order(self):
        t = Trace()
        for i in range(5):
            t = t.append(Event("act", i, f"a{i}"))
        assert [e.detail for e in t] == ["a0", "a1", "a2", "a3", "a4"]

    def test_iteration_yields_events(self):
        t = Trace().append(Event("fork", 0, "")).append(Event("act", 1, "a"))
        events = list(t)
        assert len(events) == 2
        assert all(isinstance(e, Event) for e in events)
        # iteration is repeatable (backed by a tuple, not a generator)
        assert list(t) == events

    def test_empty_trace(self):
        t = Trace()
        assert len(t) == 0
        assert list(t) == []
        assert t.actions() == []
        assert t.pretty() == ""

    def test_actions_filter(self):
        t = Trace().append(Event("fork", 0, "")).append(Event("act", 0, "a"))
        assert len(t.actions()) == 1

    def test_actions_excludes_crash_and_env(self):
        t = (
            Trace()
            .append(Event("act", 0, "a"))
            .append(Event("env", -1, "bump(None)"))
            .append(Event("crash", 1, "b"))
        )
        assert [e.detail for e in t.actions()] == ["a"]

    def test_pretty(self):
        t = Trace().append(Event("act", 0, "ct.bump", (), 0))
        assert "ct.bump" in t.pretty()

    def test_pretty_one_line_per_event(self):
        t = Trace().append(Event("act", 0, "a")).append(Event("done", 0, ""))
        assert len(t.pretty().splitlines()) == 2


class TestRecordedTraces:
    def test_full_program_trace_structure(self):
        conc = CounterConcurroid(cap=10)
        world = World((conc,))
        prog = par(act(BumpAction(conc)), seq(act(BumpAction(conc)), ret("x")))
        final = run_deterministic(initial_config(world, counter_state(conc), prog))
        kinds = [e.kind for e in final.trace]
        assert kinds.count("fork") == 1
        assert kinds.count("join") == 1
        assert kinds.count("act") == 2
        assert kinds[-1] == "done"
