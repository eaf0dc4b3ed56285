"""Exploration gates: scenario coverage and cached-key equivalence.

Every registry program, *including the demo rows*, must have a
representative scenario in :mod:`repro.analysis.scenarios`: the
liveness gate, the explorer benchmarks and the equivalence gate below
run on that list, so a program without one would go unexplored by them.

The explorer caches each thread's position record, fingerprints each
continuation once and re-checks coherence only when the shared state
moved.  The equivalence gate pins that this is pure bookkeeping: every
key equals one rebuilt from scratch by the uncached formula kept here,
and the whole search (counts, terminals, violations with their traces)
equals a run that rebuilds every key from scratch and checks coherence
after every action.
"""

from __future__ import annotations

import types

import pytest

from repro.analysis.scenarios import DEMO_SCENARIOS, MAIN_SCENARIOS, run_scenario
from repro.core.prog import ActCall, Bind, Call, HideProg, Par, Ret
from repro.semantics import interp
from repro.semantics.interp import Config

SCENARIOS = MAIN_SCENARIOS + DEMO_SCENARIOS


def test_every_registry_program_has_a_scenario():
    """Adding a case study or demo row must force a gate scenario for it;
    a case study's must be a Main scenario (the list the liveness gate
    and the explorer benchmarks run on), not a demo one."""
    from repro.structures.registry import all_programs, demo_programs

    main = {s.program for s in MAIN_SCENARIOS}
    missing = [info.name for info in all_programs() if info.name not in main]
    assert not missing, f"registry programs without a Main scenario: {missing}"
    covered = main | {s.program for s in DEMO_SCENARIOS}
    missing = [info.name for info in demo_programs() if info.name not in covered]
    assert not missing, f"demo rows without an explore gate scenario: {missing}"


# -- the uncached reference ------------------------------------------------------


def reference_fingerprint(obj, seen=frozenset()):
    """The structural fingerprint, written out without caching or
    shortcuts: every non-primitive value joins the cycle guard."""
    if obj is None or isinstance(obj, (int, str, bool, float, bytes)):
        return obj
    if isinstance(obj, tuple):
        return tuple(reference_fingerprint(x, seen) for x in obj)
    if id(obj) in seen:
        return ("cycle",)
    seen = seen | {id(obj)}
    if isinstance(obj, Ret):
        return ("Ret", reference_fingerprint(obj.value, seen))
    if isinstance(obj, Bind):
        return (
            "Bind",
            reference_fingerprint(obj.first, seen),
            reference_fingerprint(obj.cont, seen),
        )
    if isinstance(obj, ActCall):
        return ("Act", id(obj.action), reference_fingerprint(obj.args, seen))
    if isinstance(obj, Par):
        return (
            "Par",
            reference_fingerprint(obj.left, seen),
            reference_fingerprint(obj.right, seen),
        )
    if isinstance(obj, Call):
        return (
            "Call",
            reference_fingerprint(obj.fn, seen),
            reference_fingerprint(obj.args, seen),
        )
    if isinstance(obj, HideProg):
        return (
            "Hide",
            id(obj.concurroid),
            reference_fingerprint(obj.donate, seen),
            tuple(
                sorted(
                    (k, reference_fingerprint(v, seen))
                    for k, v in obj.initial_selfs.items()
                )
            ),
            reference_fingerprint(obj.body, seen),
            obj.priv_label,
        )
    if isinstance(obj, interp._UnhideKont):
        return (
            "Unhide",
            id(obj.concurroid),
            obj.priv_label,
            reference_fingerprint(obj.reclaim, seen),
        )
    if isinstance(obj, types.MethodType):
        return ("method", id(obj.__func__.__code__), id(obj.__self__))
    if isinstance(obj, types.FunctionType):
        cells = []
        for c in obj.__closure__ or ():
            try:
                cells.append(reference_fingerprint(c.cell_contents, seen))
            except ValueError:
                cells.append(("empty-cell",))
        return ("fn", id(obj.__code__), tuple(cells))
    if isinstance(obj, types.BuiltinFunctionType):
        return ("builtin", id(obj))
    try:
        hash(obj)
        return obj
    except TypeError:
        return ("id", id(obj))


def scratch_key(config: Config) -> tuple:
    """The position key rebuilt from scratch: every thread's program and
    whole continuation stack fingerprinted afresh."""
    threads = tuple(
        (
            tid,
            reference_fingerprint(th.current),
            tuple(reference_fingerprint(k) for k in th.konts),
            tuple(sorted(th.selfs.items())),
            tuple(sorted(th.visible)),
            th.parent,
            th.children,
            tuple(sorted(th.results.items())),
            th.done,
            reference_fingerprint(th.result),
        )
        for tid, th in sorted(config.threads.items())
    )
    return (
        tuple(sorted(config.joints.items())),
        tuple(sorted(config.env_selfs.items())),
        threads,
    )


def search_image(result) -> tuple:
    """Everything a search reports, in the order it found it."""
    return (
        result.explored,
        result.deduped,
        result.truncated,
        result.frontier_peak,
        [(repr(c.result), c.shared_signature()) for c in result.terminals],
        [(v.kind, v.message, v.trace) for v in result.violations],
    )


@pytest.mark.parametrize("scenario", SCENARIOS, ids=[s.key for s in SCENARIOS])
def test_cached_keys_equal_scratch_keys(scenario, monkeypatch):
    keyed, stale = [], []
    cached = Config.position_key

    def checked(self, table=None):
        # Collected, not asserted, so a failure reports how many keys
        # differ and not only the first.
        key = cached(self, table)
        keyed.append(self)
        if key != scratch_key(self):
            stale.append(self)
        return key

    monkeypatch.setattr(Config, "position_key", checked)
    result = run_scenario(scenario)
    assert len(keyed) == result.explored + result.deduped
    assert not stale, f"{len(stale)} of {len(keyed)} keys differ, first {stale[0]!r}"


@pytest.mark.parametrize("scenario", SCENARIOS, ids=[s.key for s in SCENARIOS])
def test_search_equals_scratch_search(scenario, monkeypatch):
    fast = run_scenario(scenario)

    check = interp._check_coherence

    def check_every_time(config):
        check(config)
        config.checked = False  # so the next action checks again

    monkeypatch.setattr(
        Config, "position_key", lambda self, table=None: scratch_key(self)
    )
    monkeypatch.setattr(interp, "_check_coherence", check_every_time)
    scratch = run_scenario(scenario)
    assert search_image(fast) == search_image(scratch)
