"""Tests of schedule exploration: exhaustiveness, interference, stutters."""

import random

import pytest

from repro.core.prog import act, bind, par, ret, ffix, seq
from repro.core.spec import Scenario, Spec
from repro.core.verify import ReportBuilder, check_triple, triple_issues
from repro.core.world import World
from repro.semantics.explore import explore, run_random
from repro.semantics.interp import Config, do_action, initial_config

from .helpers import BumpAction, CELL, CounterConcurroid, ReadCounterAction, counter_state


@pytest.fixture()
def conc():
    return CounterConcurroid(cap=10)


@pytest.fixture()
def world(conc):
    return World((conc,))


class TestExhaustive:
    def test_all_interleavings_reach_same_total(self, world, conc):
        prog = par(act(BumpAction(conc)), act(BumpAction(conc)))
        result = explore(initial_config(world, counter_state(conc), prog))
        assert result.ok
        assert result.terminals
        for terminal in result.terminals:
            assert terminal.joints[conc.label][CELL] == 2

    def test_interleavings_produce_different_reads(self, world, conc):
        prog = par(act(BumpAction(conc)), act(ReadCounterAction(conc)))
        result = explore(initial_config(world, counter_state(conc), prog))
        reads = {terminal.result[1] for terminal in result.terminals}
        assert reads == {0, 1}  # read before and after the sibling bump

    def test_env_interference_explored(self, world, conc):
        prog = act(ReadCounterAction(conc))
        result = explore(
            initial_config(world, counter_state(conc), prog), env_budget=2
        )
        reads = {t.result for t in result.terminals}
        assert reads == {0, 1, 2}  # env may bump 0, 1 or 2 times first

    def test_env_budget_zero_means_no_interference(self, world, conc):
        prog = act(ReadCounterAction(conc))
        result = explore(initial_config(world, counter_state(conc), prog))
        assert {t.result for t in result.terminals} == {0}

    def test_max_configs_guard(self, world, conc):
        prog = par(act(BumpAction(conc)), act(BumpAction(conc)))
        result = explore(
            initial_config(world, counter_state(conc), prog), max_configs=2
        )
        assert any(v.kind == "resource" for v in result.violations)

    def test_truncation_counts_unfinished_paths(self, world, conc):
        prog = par(act(BumpAction(conc)), act(BumpAction(conc)))
        result = explore(
            initial_config(world, counter_state(conc), prog), max_steps=1
        )
        assert result.truncated > 0
        assert not result.terminals

    def test_spin_loops_converge(self, conc):
        # A thread spinning on an always-failing CAS-like action must not
        # blow up the exploration: the retry reproduces its own position
        # key and the memoization closes the loop.
        class FailingTry(ReadCounterAction):
            def step(self, state, *args):
                return False, state

        failing = FailingTry(conc)
        spin = ffix(
            lambda loop: lambda: bind(act(failing), lambda got: ret(1) if got else loop())
        )
        world = World((conc,))
        result = explore(
            initial_config(world, counter_state(conc), spin()), max_steps=50
        )
        assert result.explored < 5  # the loop has one repeating position
        assert not result.terminals  # it genuinely never finishes
        assert not result.violations

    def test_max_configs_counts_exactly(self, world, conc):
        # Regression (off-by-one): the guard used to fire only *after*
        # expanding a (max_configs+1)-th configuration.
        prog = par(act(BumpAction(conc)), act(BumpAction(conc)))
        full = explore(initial_config(world, counter_state(conc), prog))
        total = full.explored
        assert total > 2

        # A budget exactly covering the search space is not a violation...
        exact = explore(
            initial_config(world, counter_state(conc), prog), max_configs=total
        )
        assert exact.ok
        assert exact.explored == total

        # ...one short of it is, and never explores past the bound.
        short = explore(
            initial_config(world, counter_state(conc), prog),
            max_configs=total - 1,
        )
        assert any(v.kind == "resource" for v in short.violations)
        assert short.explored == total - 1

    def test_domination_dedupe_equivalent_and_never_worse(self, world, conc):
        # Dominated dedupe against the reference tree search: the same
        # terminal results, and never more configurations expanded.
        prog = par(act(BumpAction(conc)), act(ReadCounterAction(conc)))

        def run(dedupe):
            return explore(
                initial_config(world, counter_state(conc), prog),
                env_budget=2,
                dedupe=dedupe,
            )

        tree, dominated = run(False), run(True)
        assert dominated.explored <= tree.explored
        assert tree.ok and dominated.ok
        assert {t.result for t in dominated.terminals} == {
            t.result for t in tree.terminals
        }

    def test_repeated_identical_actions_terminate(self, conc):
        # Regression (found by hypothesis): two *occurrences* of the same
        # pure action in sequence must still reach the terminal — an
        # earlier stutter-blocking heuristic wrongly suppressed this.
        read = ReadCounterAction(conc)
        prog = bind(act(read), lambda a: bind(act(read), lambda b: ret((a, b))))
        world = World((conc,))
        result = explore(initial_config(world, counter_state(conc), prog))
        assert result.ok
        assert [t.result for t in result.terminals] == [(0, 0)]


class TestFrontierPeak:
    def test_frontier_peak_tracked_on_small_explorations(self, world, conc):
        # Regression: the peak was sampled every 256 expansions, so every
        # small exploration reported 0.  It is now tracked on each push.
        prog = par(act(BumpAction(conc)), act(BumpAction(conc)))
        result = explore(initial_config(world, counter_state(conc), prog))
        assert result.frontier_peak >= 2  # both threads runnable at the root

    def test_single_thread_still_nonzero(self, world, conc):
        result = explore(
            initial_config(world, counter_state(conc), act(BumpAction(conc)))
        )
        assert result.frontier_peak > 0


class TestCompaction:
    def _prog(self, conc):
        return par(act(BumpAction(conc)), act(ReadCounterAction(conc)))

    def _run(self, world, conc, **kwargs):
        seen, anchors = {}, []
        result = explore(
            initial_config(world, counter_state(conc), self._prog(conc)),
            _seen=seen,
            _anchors=anchors,
            **kwargs,
        )
        return result, seen, anchors

    def test_compact_memo_stores_no_configs(self, world, conc):
        # Regression: the memo used to pin every visited Config (and its
        # trace).  Compact visits keep only (env_used, steps, None) and
        # anchor the thread records so fingerprint ids stay valid.
        result, seen, anchors = self._run(world, conc)
        assert result.ok
        assert seen and anchors
        assert all(cfg is None for visits in seen.values() for __, __, cfg in visits)

    def test_liveness_keeps_configs_for_lassos(self, world, conc):
        # The lasso detector compares trace prefixes at revisits, so
        # liveness mode must still store the visited configurations.
        __, seen, __ = self._run(world, conc, liveness=True)
        stored = [cfg for visits in seen.values() for __, __, cfg in visits]
        assert stored and all(cfg is not None for cfg in stored)

    def test_compact_equivalent_to_uncompacted(self, world, conc):
        # The liveness run is the one layout that still stores configs.
        compacted, __, __ = self._run(world, conc)
        pinned, __, __ = self._run(world, conc, liveness=True)
        assert compacted.explored == pinned.explored
        assert {repr(t.result) for t in compacted.terminals} == {
            repr(t.result) for t in pinned.terminals
        }

    def test_interning_shares_key_sections(self, world, conc):
        # Neighbouring positions differ in one thread's record: the
        # unchanged threads' records are the very same objects.
        table: dict = {}
        prog = par(seq(act(BumpAction(conc)), act(BumpAction(conc))), self._prog(conc))
        before = initial_config(world, counter_state(conc), prog)
        after = do_action(before, 1)  # thread 1 is still running
        one, two = before.position_key(table), after.position_key(table)
        assert one[2][1] != two[2][1]  # thread 1 moved
        assert one[2][0] is two[2][0] and one[2][2] is two[2][2]
        # Across the whole memo, equal records and equal record sections
        # are stored once, not once per key.
        __, seen, __ = self._run(world, conc)
        records = [record for key in seen for record in key[2]]
        assert len(records) > len(set(records))
        assert len({id(r) for r in records}) == len(set(records))
        sections = [s for r in set(records) for s in r if isinstance(s, tuple)]
        assert len({id(s) for s in sections}) == len(set(sections))


class TestDominationOnCaseStudy:
    """The dedupe fix must pay off on real registry machinery."""

    def test_cas_lock_explores_fewer_configs_same_verdict(self):
        from repro.analysis.scenarios import terminal_signature
        from repro.structures.locks.verify import (
            bump_client,
            lock_initial_state,
            lock_world,
            make_counter_cas_lock,
        )

        lock = make_counter_cas_lock()
        world = lock_world(lock)
        init = lock_initial_state(lock, 0, 0)
        spec = Spec(
            "par-bump",
            pre=lambda s: lock.quiescent(s),
            post=lambda r, s2, s1: (
                lock.quiescent(s2)
                and lock.client_self(s2) == lock.client_self(s1) + 2
            ),
        )

        def on_terminal(terminal):
            if not spec.check_post(terminal.result, terminal.view_for(0), init):
                return "postcondition fails"
            return None

        def run(dedupe):
            # Bounds small enough for the spinning tree search to finish.
            return explore(
                initial_config(world, init, par(bump_client(lock), bump_client(lock))),
                max_steps=12,
                env_budget=1,
                on_terminal=on_terminal,
                dedupe=dedupe,
            )

        tree, dominated = run(False), run(True)
        assert tree.ok and dominated.ok
        assert dominated.terminals
        assert dominated.explored < tree.explored
        assert terminal_signature(dominated) == terminal_signature(tree)


class TestRaisingKey:
    """A position key that raises fails closed: no silent tree search."""

    class KeyBroke(RuntimeError):
        pass

    def _break_key_on_call(self, monkeypatch, n):
        calls = []
        real = Config.position_key

        def position_key(config, table=None):
            calls.append(config)
            if len(calls) == n:
                raise self.KeyBroke(f"key {n} broke")
            return real(config, table)

        monkeypatch.setattr(Config, "position_key", position_key)
        return calls

    def test_explore_propagates(self, world, conc, monkeypatch):
        calls = self._break_key_on_call(monkeypatch, 3)
        prog = par(act(BumpAction(conc)), act(BumpAction(conc)))
        with pytest.raises(self.KeyBroke, match="key 3 broke"):
            explore(initial_config(world, counter_state(conc), prog))
        assert len(calls) == 3  # the search stopped at the broken key

    def test_check_triple_obligation_fails(self, world, conc, monkeypatch):
        self._break_key_on_call(monkeypatch, 3)
        spec = Spec("any", pre=lambda s: True, post=lambda r, s2, s1: True)
        prog = par(act(BumpAction(conc)), act(BumpAction(conc)))
        builder = ReportBuilder("counter")
        result = builder.obligation(
            "Main",
            "Main",
            lambda: triple_issues(
                check_triple(world, spec, [Scenario(counter_state(conc), prog)])
            ),
        )
        assert not result.ok
        assert result.issues == ["raised KeyBroke: key 3 broke"]


class TestCheckTriple:
    def _spec(self, conc, expect_total):
        return Spec(
            "totals",
            pre=lambda s: True,
            post=lambda r, s2, s1: s2.joint_of(conc.label)[CELL] == expect_total,
        )

    def test_passing_triple(self, world, conc):
        prog = par(act(BumpAction(conc)), act(BumpAction(conc)))
        outcomes = check_triple(
            world,
            self._spec(conc, 2),
            [Scenario(counter_state(conc), prog)],
        )
        assert not triple_issues(outcomes)
        assert outcomes[0].terminals > 0

    def test_failing_postcondition_reported(self, world, conc):
        prog = act(BumpAction(conc))
        outcomes = check_triple(
            world,
            self._spec(conc, 5),
            [Scenario(counter_state(conc), prog)],
        )
        issues = triple_issues(outcomes)
        assert issues
        assert "postcondition" in issues[0]

    def test_failing_precondition_reported(self, world, conc):
        spec = Spec("never", pre=lambda s: False, post=lambda r, s2, s1: True)
        outcomes = check_triple(world, spec, [Scenario(counter_state(conc), ret(None))])
        assert "precondition" in triple_issues(outcomes)[0]

    def test_crash_reported(self, conc):
        tiny = CounterConcurroid(cap=0)
        world = World((tiny,))
        spec = Spec("any", pre=lambda s: True, post=lambda r, s2, s1: True)
        outcomes = check_triple(
            world, spec, [Scenario(counter_state(tiny), act(BumpAction(tiny)))]
        )
        assert any("CrashError" in i for i in triple_issues(outcomes))


class TestRandom:
    def test_random_run_terminates(self, world, conc):
        prog = par(act(BumpAction(conc)), act(BumpAction(conc)))
        final, violations = run_random(
            initial_config(world, counter_state(conc), prog), random.Random(3)
        )
        assert not violations
        assert final is not None
        assert final.joints[conc.label][CELL] == 2

    def test_random_with_interference(self, world, conc):
        prog = act(ReadCounterAction(conc))
        seen = set()
        rng = random.Random(0)
        for __ in range(30):
            final, violations = run_random(
                initial_config(world, counter_state(conc), prog),
                rng,
                env_prob=0.5,
                env_budget=2,
            )
            assert not violations
            seen.add(final.result)
        assert 0 in seen and len(seen) > 1
