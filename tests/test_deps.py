"""Tests for fcsl-deps: definition indexing, cone walks, dep graphs.

The precision assertions here are the analysis's contract with
``verify --incremental``: editing one action's ``step`` must re-verify
that action's obligation and the triples that execute it, and nothing
else.  The soundness assertions are the other half: everything an
obligation genuinely executes (including code reached only through
function-local imports or eagerly-constructed helper objects) must be
*in* its cone.
"""

import importlib
import sys

import pytest

import repro.analysis.deps as deps_mod
import repro.core.concurroid as conc_mod
from repro.analysis.deps import (
    TOPLEVEL,
    WHOLE_MODULE,
    DefIndex,
    Definition,
    DependencyCone,
    _ConeWalker,
    analyze_obligations,
    deps_registry,
)
from repro.core.verify import ReportBuilder, collecting_obligations
from repro.engine.depgraph import build_depgraph, depgraph_from_analysis
from repro.obs import tracer
from repro.structures.registry import ProgramInfo, registry_programs

from .helpers import CounterConcurroid, counter_state

TICKETED_MODULE = "repro.structures.locks.ticketed"

SOURCE = """\
X = 1


def free(n):
    return n + X


class Box:
    LIMIT = 3

    def get(self):
        return self.value

    def put(self, v):
        self.value = v


Y = 2
"""


class TestDefIndex:
    def test_segments(self):
        index = DefIndex("probe", SOURCE)
        assert set(index.digests) == {
            "free",
            "Box",
            "Box.get",
            "Box.put",
            TOPLEVEL,
            WHOLE_MODULE,
        }

    def test_method_edit_is_isolated(self):
        before = DefIndex("probe", SOURCE)
        after = DefIndex("probe", SOURCE.replace("self.value = v", "self.value = v + 1"))
        changed = {k for k in before.digests if before.digests[k] != after.digests[k]}
        assert changed == {"Box.put", WHOLE_MODULE}

    def test_toplevel_edit_hits_residue_only(self):
        before = DefIndex("probe", SOURCE)
        after = DefIndex("probe", SOURCE.replace("Y = 2", "Y = 5"))
        changed = {k for k in before.digests if before.digests[k] != after.digests[k]}
        assert changed == {TOPLEVEL, WHOLE_MODULE}

    def test_class_constant_edit_hits_class_residue(self):
        before = DefIndex("probe", SOURCE)
        after = DefIndex("probe", SOURCE.replace("LIMIT = 3", "LIMIT = 4"))
        changed = {k for k in before.digests if before.digests[k] != after.digests[k]}
        assert changed == {"Box", WHOLE_MODULE}

    def test_resolve(self):
        index = DefIndex("probe", SOURCE)
        assert index.resolve("Box.get") == "Box.get"
        assert index.resolve("free") == "free"
        assert index.resolve("free.<locals>.inner") == "free"
        assert index.resolve("Box.get.<locals>.<lambda>") == "Box.get"
        assert index.resolve("<lambda>") == TOPLEVEL
        assert index.resolve("Nope.nothing") is None


# -- synthetic tracked modules for targeted walker behaviour -------------------

PROBE = """\
class Secret:
    def step(self):
        return "secret"


class SiblingA:
    def __init__(self, owner):
        self.owner = owner

    def step(self):
        return "A"


class SiblingB:
    def __init__(self, owner):
        self.owner = owner

    def step(self):
        return "B"


class Owner:
    def __init__(self):
        self._a = SiblingA(self)
        self._b = SiblingB(self)


class Holder:
    def __init__(self):
        self.hidden = Secret()


def use_a(owner):
    return owner._a.step()


def overwrite(holder):
    holder.hidden = None
    return 0


def reveal(holder):
    return holder.hidden.step()


def dynamic_entry(obj):
    return getattr(obj, "step")()
"""

HELPER = """\
def helper():
    return 99


def unused():
    return 0
"""

IMPORTER = """\
def entry():
    from {helper} import helper

    return helper()
"""


@pytest.fixture()
def probe(tmp_path, monkeypatch):
    """Import PROBE as a module treated as a tracked case study."""
    name = "deps_probe_mod"
    (tmp_path / f"{name}.py").write_text(PROBE, encoding="utf-8")
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.setattr(deps_mod, "TRACKED_PREFIX", name)
    # Class-facts are memoized under the *real* prefix; give the
    # patched-prefix walks their own cache so neither side sees the
    # other's tracked/untracked verdicts.
    monkeypatch.setattr(deps_mod, "_CLASS_FACTS", {})
    module = importlib.import_module(name)
    yield module
    sys.modules.pop(name, None)


def _walk(fn):
    cone = DependencyCone(obligation="probe-ob", category="Main")
    _ConeWalker(cone, {}).run(fn)
    return cone


class TestConeWalker:
    def test_ctor_store_restriction_isolates_siblings(self, probe):
        # ``use_a`` loads ``_a`` and ``step``: SiblingA's methods join the
        # cone.  SiblingB is only constructed-and-stored by Owner's ctor
        # under the never-loaded attr ``_b`` — its step stays out.  (The
        # closure binds the function, not the module: capturing a whole
        # module object is a legitimate conservative whole-module edge.)
        use_a, owner = probe.use_a, probe.Owner()
        cone = _walk(lambda: use_a(owner))
        names = {d.name for d in cone.definitions if d.module == probe.__name__}
        assert "SiblingA.step" in names
        assert "Owner.__init__" in names
        assert "SiblingB.step" not in names

    def test_pure_store_does_not_unlock_expansion(self, probe):
        # ``overwrite`` only *writes* ``holder.hidden``; a store cannot
        # observe the stored object, so Secret stays restricted.
        overwrite, holder = probe.overwrite, probe.Holder()
        cone = _walk(lambda: overwrite(holder))
        names = {d.name for d in cone.definitions if d.module == probe.__name__}
        assert "Secret.step" not in names

    def test_load_unlocks_expansion(self, probe):
        reveal, holder = probe.reveal, probe.Holder()
        cone = _walk(lambda: reveal(holder))
        names = {d.name for d in cone.definitions if d.module == probe.__name__}
        assert "Secret.step" in names

    def test_dynamic_builtin_degrades_to_whole_module(self, probe):
        dynamic_entry, holder = probe.dynamic_entry, probe.Holder()
        cone = _walk(lambda: dynamic_entry(holder))
        assert Definition(probe.__name__, WHOLE_MODULE) in cone.definitions
        assert cone.dynamic

    def test_deps_opaque_instances_are_not_traversed(self, probe):
        # ``__deps_opaque__`` declares an instance to carry only derived
        # analysis facts (the ``StaticPrepass`` memo): the walker must
        # not pull its contents into cones.
        class Memo:
            __deps_opaque__ = True

            def __init__(self, fact):
                self.fact = fact

        class Plain:
            def __init__(self, fact):
                self.fact = fact

        secret = probe.Secret()
        opaque, plain = Memo(secret), Plain(secret)
        names = {
            d.name
            for d in _walk(lambda: plain.fact.step()).definitions
            if d.module == probe.__name__
        }
        assert "Secret.step" in names  # control: unmarked holder leaks
        names = {
            d.name
            for d in _walk(lambda: opaque.fact.step()).definitions
            if d.module == probe.__name__
        }
        assert "Secret.step" not in names

    def test_local_import_is_resolved(self, tmp_path, monkeypatch):
        # Function-local imports bind to locals, never ``__globals__`` —
        # the walker must still reach the imported member (this is how
        # triple obligations reach the interpreter and the action steps
        # their programs execute).
        helper_name = "deps_probe_import_helper"
        main_name = "deps_probe_import_main"
        (tmp_path / f"{helper_name}.py").write_text(HELPER, encoding="utf-8")
        (tmp_path / f"{main_name}.py").write_text(
            IMPORTER.format(helper=helper_name), encoding="utf-8"
        )
        monkeypatch.syspath_prepend(str(tmp_path))
        monkeypatch.setattr(deps_mod, "TRACKED_PREFIX", "deps_probe_import")
        try:
            helper_mod = importlib.import_module(helper_name)
            main_mod = importlib.import_module(main_name)
            cone = _walk(main_mod.entry)
            assert Definition(helper_name, "helper") in cone.definitions
            assert Definition(helper_name, "unused") not in cone.definitions
            assert helper_mod.helper() == 99
        finally:
            sys.modules.pop(helper_name, None)
            sys.modules.pop(main_name, None)


# -- registry-level precision and soundness ------------------------------------


@pytest.fixture(scope="module")
def ticketed_analysis():
    info = {i.name: i for i in registry_programs()}["Ticketed lock"]
    return info, analyze_obligations(info)


class TestRegistryCones:
    def test_usable_with_full_plan(self, ticketed_analysis):
        _, analysis = ticketed_analysis
        assert analysis.usable
        assert len(analysis.obligations) == 14
        assert not any(dep.cone.coarse for dep in analysis.obligations)

    def test_action_cone_has_exactly_its_own_step(self, ticketed_analysis):
        _, analysis = ticketed_analysis
        cone = analysis.cone_of("action-lk.draw")
        steps = {
            d.name
            for d in cone.definitions
            if d.module == TICKETED_MODULE and d.name.endswith(".step")
        }
        assert steps == {"DrawTicketAction.step"}

    def test_triple_cone_contains_executed_steps(self, ticketed_analysis):
        # Soundness: the triples run programs through the interpreter
        # (reached via local imports), so every executed action's step is
        # a dependency.
        _, analysis = ticketed_analysis
        cone = analysis.cone_of("bump-triple")
        steps = {
            d.name
            for d in cone.definitions
            if d.module == TICKETED_MODULE and d.name.endswith(".step")
        }
        assert {
            "DrawTicketAction.step",
            "ReadOwnerAction.step",
            "TicketReadResAction.step",
            "TicketWriteResAction.step",
            "TicketReleaseAction.step",
        } <= steps

    def test_affected_by_step_edit_is_the_cone(self, ticketed_analysis):
        _, analysis = ticketed_analysis
        affected = analysis.affected_by(TICKETED_MODULE, "TicketWriteResAction.step")
        assert affected == {
            "action-lk.write",
            "bump-triple",
            "mutual-exclusion-par-triple",
        }
        # The bench target: a one-action edit re-verifies <= 25% of the
        # ticketed-lock obligations.
        assert len(affected) / len(analysis.obligations) <= 0.25

    @pytest.mark.slow
    def test_fingerprints_independent_of_sibling_runs(self):
        # A sweep shares one pre-pass across its programs.  When it
        # kept a memo that pinned sibling concurroids, Ticketed's Stab
        # cones depended on which siblings ran first in the process
        # (CAS-lock first used to add six CASLockConcurroid definitions
        # to every Stab cone) — spurious staleness on the next
        # incremental diff.  The shared pre-pass must stay invisible to
        # the dependency walk.
        from repro.analysis.prepass import StaticPrepass
        from repro.core.verify import (
            VerifyOptions,
            collecting_obligations,
            options_installed,
        )

        progs = {i.name: i for i in registry_programs()}
        info, sibling = progs["Ticketed lock"], progs["CAS-lock"]
        options = VerifyOptions(prepass=StaticPrepass())

        def fingerprints(run_sibling: bool):
            with options_installed(options):
                if run_sibling:
                    sibling.run_verifier()
                with collecting_obligations(execute=True) as col:
                    info.run_verifier()
                graph = build_depgraph(info, plan=list(col))
            assert graph is not None
            return graph.fingerprints

        assert fingerprints(False) == fingerprints(True)


# -- unusable analyses and their diagnostics -----------------------------------


def _dup_verifier():
    builder = ReportBuilder("Dup")
    builder.obligation("same-name", "Libs", lambda: [])
    builder.obligation("same-name", "Libs", lambda: [])
    return builder.build()


def _crashing_verifier():
    raise RuntimeError("no obligations today")


def _fake_info(name, verifier):
    return ProgramInfo(
        name=name, concurroids={}, modules=(), verifier=verifier
    )


class TestUnusableAnalyses:
    def test_duplicate_obligation_names(self):
        analysis = analyze_obligations(_fake_info("Dup", _dup_verifier))
        assert analysis.duplicates == ("same-name",)
        assert not analysis.usable
        codes = [d.code for d in analysis.diagnostics()]
        assert "FCSL065" in codes
        info = _fake_info("Dup", _dup_verifier)
        assert depgraph_from_analysis(info, analysis) is None

    def test_collection_failure(self):
        analysis = analyze_obligations(_fake_info("Boom", _crashing_verifier))
        assert analysis.collection_failed
        assert not analysis.usable
        codes = [d.code for d in analysis.diagnostics()]
        assert codes == ["FCSL066"]

    def test_deps_registry_rejects_unknown_program(self):
        with pytest.raises(KeyError, match="unknown registry program"):
            deps_registry(["No such program"])


# -- the dep graph -------------------------------------------------------------


class TestDepGraph:
    def test_fingerprints_cover_every_obligation(self, ticketed_analysis):
        info, analysis = ticketed_analysis
        graph = depgraph_from_analysis(info, analysis)
        assert graph is not None
        assert set(graph.fingerprints) == {d.name for d in analysis.obligations}
        assert not graph.coarse

    def test_stale_obligations(self, ticketed_analysis):
        info, analysis = ticketed_analysis
        graph = depgraph_from_analysis(info, analysis)
        assert graph.stale_obligations(dict(graph.fingerprints)) == set()
        assert graph.stale_obligations({}) == set(graph.fingerprints)
        mutated = dict(graph.fingerprints)
        mutated["action-lk.draw"] = "0" * 64
        assert graph.stale_obligations(mutated) == {"action-lk.draw"}

    def test_serialization(self, ticketed_analysis):
        info, analysis = ticketed_analysis
        graph = depgraph_from_analysis(info, analysis)
        data = graph.to_dict()
        assert data["program"] == info.name
        assert set(data["obligations"]) == set(graph.fingerprints)
        for entry in data["obligations"].values():
            assert entry["fingerprint"]
            assert entry["definitions"] or entry["coarse"]
        dot = graph.to_dot()
        assert '"ob:action-lk.draw"' in dot
        assert "digraph deps" in dot

    def test_build_depgraph_unusable_returns_none(self):
        assert build_depgraph(_fake_info("Dup", _dup_verifier)) is None


# -- deferred closures in plan collection --------------------------------------


class TestDeferredPlanning:
    """Plan collection returns deferred protocol closures; the walk must
    see exactly what it sees when every closure is enumerated."""

    def test_collection_enumerates_nothing_and_forcing_changes_no_cone(
        self, monkeypatch
    ):
        created = []
        init = conc_mod._DeferredGraph.__init__

        def recording(self, *args):
            init(self, *args)
            created.append(self)

        def enumerations(records):
            return [r[-1] for r in records if r[1] == "protocol_closure"]

        monkeypatch.setattr(conc_mod._DeferredGraph, "__init__", recording)
        # the verifybench rows: every registry row but Flat combiner
        for info in registry_programs():
            if info.name == "Flat combiner":
                continue
            created.clear()
            with tracer.tracing(mirror_env=False) as tr:
                with collecting_obligations() as col:
                    info.run_verifier()
                assert enumerations(tr.records) == [], info.name
                for graph in created:
                    len(graph)  # enumerate before the walk
            spans = enumerations(tr.records)
            assert len(spans) == len(created), info.name
            assert all(span["deferred"] for span in spans)
            assert all(type(g) is conc_mod.ProtocolGraph for g in created)
            forced = build_depgraph(info, plan=list(col))
            deferred = build_depgraph(info)
            assert forced is not None and deferred is not None, info.name
            assert deferred.to_dict() == forced.to_dict(), info.name

    def test_closure_overflow_in_setup_fails_collection(self):
        def verifier():
            conc = CounterConcurroid(cap=1000)
            states = conc_mod.protocol_closure(conc, [counter_state(conc)], max_states=10)
            builder = ReportBuilder("Overflow")
            for i, __ in enumerate(states):  # set-up reads the graph
                builder.obligation(f"ob-{i}", "Stab", lambda: [])
            return builder.build()

        analysis = analyze_obligations(_fake_info("Overflow", verifier))
        assert analysis.collection_failed
