"""Tests of the interpreter: subjective views, forking, joining, actions."""

import pytest

from repro.core.errors import CrashError, ProgramError
from repro.core.prog import act, bind, ffix, par, ret, seq
from repro.core.world import World
from repro.semantics.explore import run_deterministic
from repro.semantics.interp import do_action, initial_config, normalize

from .helpers import CELL, BumpAction, CounterConcurroid, ReadCounterAction, counter_state


@pytest.fixture()
def conc():
    return CounterConcurroid(cap=10)


@pytest.fixture()
def world(conc):
    return World((conc,))


def bump_prog(conc):
    return act(BumpAction(conc))


class TestBasics:
    def test_ret_program(self, world, conc):
        cfg = initial_config(world, counter_state(conc), ret(42))
        assert cfg.done
        assert cfg.result == 42

    def test_bind_chains(self, world, conc):
        prog = bind(ret(1), lambda x: ret(x + 1))
        cfg = initial_config(world, counter_state(conc), prog)
        assert cfg.result == 2

    def test_seq_returns_last(self, world, conc):
        cfg = initial_config(world, counter_state(conc), seq(ret(1), ret(2), ret(3)))
        assert cfg.result == 3

    def test_single_action(self, world, conc):
        cfg = initial_config(world, counter_state(conc), bump_prog(conc))
        assert not cfg.done
        cfg2 = do_action(cfg, 0)
        assert cfg2.done
        assert cfg2.result == 0
        assert cfg2.joints[conc.label][CELL] == 1

    def test_view_reflects_env(self, world, conc):
        cfg = initial_config(world, counter_state(conc, 1, 2), ret(None))
        view = cfg.view_for(0)
        assert view.self_of(conc.label) == 1
        assert view.other_of(conc.label) == 2

    def test_deterministic_run(self, world, conc):
        prog = seq(bump_prog(conc), bump_prog(conc), act(ReadCounterAction(conc)))
        final = run_deterministic(initial_config(world, counter_state(conc), prog))
        assert final.result == 2

    def test_action_crash_on_unsafe(self, world, conc):
        small = CounterConcurroid(cap=0)
        w = World((small,))
        cfg = initial_config(w, counter_state(small), act(BumpAction(small)))
        with pytest.raises(CrashError):
            do_action(cfg, 0)


class TestForkJoin:
    def test_par_returns_pair(self, world, conc):
        prog = par(ret("l"), ret("r"))
        cfg = initial_config(world, counter_state(conc), prog)
        assert cfg.result == ("l", "r")

    def test_children_start_with_unit(self, world, conc):
        probe = {}

        class Probe(ReadCounterAction):
            def step(self, state, *args):
                probe["self"] = state.self_of(self._conc.label)
                probe["other"] = state.other_of(self._conc.label)
                return super().step(state, *args)

        prog = par(act(Probe(conc)), ret(None))
        cfg = initial_config(world, counter_state(conc, 3, 0), prog)
        run_deterministic(cfg)
        assert probe["self"] == 0  # child owns nothing yet
        assert probe["other"] == 3  # parent's contribution is its `other`

    def test_join_folds_contributions(self, world, conc):
        prog = par(bump_prog(conc), bump_prog(conc))
        final = run_deterministic(initial_config(world, counter_state(conc, 1, 0), prog))
        view = final.view_for(0)
        assert view.self_of(conc.label) == 3  # 1 + two children's bumps
        assert final.joints[conc.label][CELL] == 3

    def test_sibling_contribution_visible_as_other(self, world, conc):
        seen = []

        class Probe(ReadCounterAction):
            def step(self, state, *args):
                seen.append(state.other_of(self._conc.label))
                return super().step(state, *args)

        # Left bumps first (deterministic scheduler picks lowest tid),
        # then right observes the sibling's contribution in `other`.
        prog = par(bump_prog(conc), act(Probe(conc)))
        run_deterministic(initial_config(world, counter_state(conc), prog))
        assert seen == [1]

    def test_nested_par(self, world, conc):
        prog = par(par(ret(1), ret(2)), ret(3))
        cfg = initial_config(world, counter_state(conc), prog)
        assert cfg.result == ((1, 2), 3)


class TestRecursion:
    def test_ffix_countdown(self, world, conc):
        def gen(loop):
            def body(n):
                if n == 0:
                    return ret("done")
                return bind(act(BumpAction(conc)), lambda __: loop(n - 1))

            return body

        countdown = ffix(gen)
        final = run_deterministic(initial_config(world, counter_state(conc), countdown(3)))
        assert final.result == "done"
        assert final.joints[conc.label][CELL] == 3

    def test_pure_divergence_detected(self, world, conc):
        diverge = ffix(lambda loop: lambda: loop())
        with pytest.raises(ProgramError):
            initial_config(world, counter_state(conc), diverge())


class TestSignatures:
    def test_shared_signature_stable_under_pure_steps(self, world, conc):
        cfg = initial_config(world, counter_state(conc), act(ReadCounterAction(conc)))
        sig = cfg.shared_signature()
        cfg2 = do_action(cfg, 0)
        assert cfg2.shared_signature() == sig

    def test_shared_signature_changes_on_bump(self, world, conc):
        cfg = initial_config(world, counter_state(conc), bump_prog(conc))
        assert do_action(cfg, 0).shared_signature() != cfg.shared_signature()

    def test_pending_action_identity(self, world, conc):
        cfg = initial_config(world, counter_state(conc), bump_prog(conc))
        assert cfg.pending_action(0) is not None
        assert cfg.pending_action(99) is None


class TestCoherenceChecks:
    """Coherence is re-checked only when an action moved the shared state
    or the snapshot it starts from was never checked."""

    def test_idle_action_after_a_checked_snapshot_skips_the_check(self, world, conc, monkeypatch):
        from repro.semantics import interp

        read = initial_config(world, counter_state(conc), act(ReadCounterAction(conc)))
        bump = initial_config(world, counter_state(conc), bump_prog(conc))
        assert read.checked and bump.checked
        calls = []
        check = interp._check_coherence
        monkeypatch.setattr(interp, "_check_coherence", lambda c: calls.append(c) or check(c))
        do_action(read, 0)
        assert calls == []
        do_action(bump, 0)
        assert len(calls) == 1

    def test_incoherence_left_by_unhide_reported_on_an_idle_action(self):
        # The hidden scope reclaims a cell the environment owns: leaving
        # it moves the shared state to an incoherent snapshot without a
        # check.  The next action is a read that changes nothing, and it
        # must still report the incoherence, with the parent's trace.
        from repro.core.entangle import Priv
        from repro.core.errors import CoherenceViolation
        from repro.core.prog import HideProg
        from repro.core.state import SubjState, state_of
        from repro.heap import EMPTY, pts, ptr
        from repro.semantics.explore import explore

        hidden, visible = CounterConcurroid(label="ct"), CounterConcurroid(label="c0")
        theirs = ptr(9)
        prog = seq(
            HideProg(
                hidden,
                lambda h: ({"ct": h.restrict({CELL})}, h.remove_all({CELL})),
                {"ct": 0},
                ret(None),
                "pv",
                reclaim=lambda joints: joints["ct"].join(pts(theirs, "stolen")),
            ),
            act(ReadCounterAction(visible)),
        )
        init = state_of(
            pv=SubjState(pts(CELL, 0), EMPTY, pts(theirs, "env")),
            c0=visible.initial(),
        )
        cfg = initial_config(World((Priv("pv"), visible)), init, prog)
        assert [e.kind for e in cfg.trace] == ["hide", "unhide"]
        assert not cfg.checked
        with pytest.raises(CoherenceViolation, match="Priv incoherent"):
            do_action(cfg, 0)
        result = explore(cfg)
        [violation] = result.violations
        assert violation.kind == "CoherenceViolation"
        assert [(e.kind, e.detail) for e in violation.trace] == [
            ("hide", "ct"),
            ("unhide", "ct"),
            ("crash", "c0.read"),
        ]
