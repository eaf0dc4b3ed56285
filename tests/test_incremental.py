"""Tests for ``verify --incremental`` (fcsl-deps): per-obligation replay.

Two layers:

* a synthetic two-obligation program whose obligations depend on
  *disjoint* definitions of a tmp-path module — the engine-level replay
  mechanics (cold store, edit -> cone-only re-execution, zero-stale
  replay, map backfill on a plain hit) are asserted against an
  obligation-execution log;
* the registry equivalence gate: mutate one real definition at a time
  and assert the incremental sweep re-executes exactly the obligations
  whose cone contains it, with verdicts identical to a cold full run.
  This is the soundness contract named in the ISSUE — a missed
  dependency edge would show up here as a verdict divergence.
"""

from __future__ import annotations

import ast
import importlib
import sys
import textwrap
from pathlib import Path

import pytest

import repro.analysis.deps as deps_mod
from repro.analysis.deps import analyze_obligations
from repro.core.verify import ReportBuilder, VerificationReport
from repro.engine import ObligationCache, sweep
from repro.structures.registry import ProgramInfo, registry_programs

from .test_engine import _verdicts

INC_MODULE = "inc_probe_mod"

_OB_CALLS: list[str] = []


def _inc_verifier(**kwargs) -> VerificationReport:
    probe = importlib.import_module(INC_MODULE)
    alpha, beta = probe.alpha, probe.beta
    builder = ReportBuilder("Inc")

    def uses_alpha():
        _OB_CALLS.append("alpha")
        return [] if alpha() == 1 else [f"alpha() = {alpha()}"]

    def uses_beta():
        _OB_CALLS.append("beta")
        return [] if beta() == 2 else [f"beta() = {beta()}"]

    builder.obligation("uses-alpha", "Libs", uses_alpha)
    builder.obligation("uses-beta", "Libs", uses_beta)
    return builder.build()


@pytest.fixture()
def inc_program(tmp_path, monkeypatch):
    """A registry-shaped program with per-obligation-disjoint deps."""
    module = tmp_path / f"{INC_MODULE}.py"
    module.write_text(
        textwrap.dedent(
            '''
            """Synthetic module backing the incremental-replay tests."""


            def alpha():
                return 1


            def beta():
                return 2
            '''
        )
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    # Treat the probe module as a tracked case study so its definitions
    # get per-definition fingerprints (the real prefix only covers
    # repro.structures.*).
    monkeypatch.setattr(deps_mod, "TRACKED_PREFIX", INC_MODULE)
    importlib.invalidate_caches()
    sys.modules.pop(INC_MODULE, None)
    _OB_CALLS.clear()
    info = ProgramInfo(
        name="Inc",
        concurroids={},
        modules=(INC_MODULE,),
        verifier=_inc_verifier,
    )
    yield info, module
    sys.modules.pop(INC_MODULE, None)


def _edit(module: Path, old: str, new: str) -> None:
    text = module.read_text(encoding="utf-8")
    assert old in text
    module.write_text(text.replace(old, new), encoding="utf-8")
    importlib.invalidate_caches()
    sys.modules.pop(INC_MODULE, None)


class TestIncrementalEngine:
    def test_incremental_needs_cache(self, inc_program, tmp_path):
        info, __ = inc_program
        with pytest.raises(ValueError, match="needs the obligation cache"):
            sweep([info], jobs=1, cache=False, incremental=True)

    def test_cold_run_stores_the_obligation_map(self, inc_program, tmp_path):
        info, __ = inc_program
        cache_dir = tmp_path / "cache"
        cold = sweep([info], jobs=1, cache_dir=cache_dir, incremental=True)
        assert cold.ok
        assert not cold.outcome("Inc").cached
        assert _OB_CALLS == ["alpha", "beta"]
        entry = ObligationCache(cache_dir).load_incremental("Inc")
        assert entry is not None
        __, fingerprints = entry
        assert set(fingerprints) == {"uses-alpha", "uses-beta"}

    def test_edit_reexecutes_only_the_cone(self, inc_program, tmp_path):
        info, module = inc_program
        cache_dir = tmp_path / "cache"
        cold = sweep([info], jobs=1, cache_dir=cache_dir, incremental=True)
        _edit(module, "return 2", "value = 2\n    return value")
        again = sweep([info], jobs=1, cache_dir=cache_dir, incremental=True)
        assert again.ok
        outcome = again.outcome("Inc")
        assert not outcome.cached
        assert outcome.reverified == 1
        # Only the obligation whose cone contains ``beta`` re-executed.
        assert _OB_CALLS == ["alpha", "beta", "beta"]
        assert _verdicts(cold) == _verdicts(again)
        # The refreshed entry is a plain hit on the next run.
        warm = sweep([info], jobs=1, cache_dir=cache_dir, incremental=True)
        assert warm.outcome("Inc").cached
        assert _OB_CALLS == ["alpha", "beta", "beta"]

    def test_breaking_edit_changes_the_replayed_verdict(
        self, inc_program, tmp_path
    ):
        info, module = inc_program
        cache_dir = tmp_path / "cache"
        sweep([info], jobs=1, cache_dir=cache_dir, incremental=True)
        _edit(module, "return 2", "return 3")
        again = sweep([info], jobs=1, cache_dir=cache_dir, incremental=True)
        assert not again.ok
        report = again.outcome("Inc").report
        by_name = {ob.name: ob for ob in report.obligations}
        assert not by_name["uses-beta"].ok
        assert by_name["uses-alpha"].ok, "replayed obligation keeps verdict"
        # Equivalence with a from-scratch run of the edited module.
        cold = sweep([info], jobs=1, cache_dir=tmp_path / "cache2")
        assert _verdicts(cold) == _verdicts(again)

    def test_cone_external_edit_replays_everything(self, inc_program, tmp_path):
        # A trailing comment changes the whole-module text (so the
        # whole-program fingerprint misses) but no obligation's cone:
        # the sweep replays all verdicts without executing anything.
        info, module = inc_program
        cache_dir = tmp_path / "cache"
        sweep([info], jobs=1, cache_dir=cache_dir, incremental=True)
        module.write_text(
            module.read_text(encoding="utf-8") + "\n# trailing remark\n",
            encoding="utf-8",
        )
        again = sweep([info], jobs=1, cache_dir=cache_dir, incremental=True)
        assert again.ok
        outcome = again.outcome("Inc")
        assert outcome.reverified == 0
        assert _OB_CALLS == ["alpha", "beta"], "no obligation re-executed"
        # ...and the entry was refreshed under the new fingerprint.
        warm = sweep([info], jobs=1, cache_dir=cache_dir, incremental=True)
        assert warm.outcome("Inc").cached

    def test_plain_hit_backfills_the_map(self, inc_program, tmp_path):
        # An entry stored by a plain (non-incremental) sweep has no
        # per-obligation map; the first incremental run backfills it
        # from analysis alone — no re-verification.
        info, module = inc_program
        cache_dir = tmp_path / "cache"
        sweep([info], jobs=1, cache_dir=cache_dir)
        store = ObligationCache(cache_dir)
        assert store.load_incremental("Inc") is None
        warm = sweep([info], jobs=1, cache_dir=cache_dir, incremental=True)
        assert warm.outcome("Inc").cached
        assert _OB_CALLS == ["alpha", "beta"], "backfill is analysis-only"
        assert store.load_incremental("Inc") is not None
        # The backfilled map drives the next edit incrementally.
        _edit(module, "return 1", "result = 1\n    return result")
        again = sweep([info], jobs=1, cache_dir=cache_dir, incremental=True)
        assert again.outcome("Inc").reverified == 1
        assert _OB_CALLS == ["alpha", "beta", "alpha"]


# -- the registry equivalence gate ---------------------------------------------


def _module_path(module: str) -> Path:
    spec = importlib.util.find_spec(module)
    assert spec is not None and spec.origin is not None
    return Path(spec.origin)


def _insert_comment(path: Path, qualname: str) -> None:
    """Insert a no-op comment as the first body line of ``qualname``
    (``Class.method``): the definition's segment digest changes, its
    behaviour does not."""
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text)
    cls_name, method_name = qualname.split(".")
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == cls_name:
            for child in node.body:
                if (
                    isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and child.name == method_name
                ):
                    lines = text.splitlines(keepends=True)
                    first = child.body[0]
                    indent = " " * first.col_offset
                    lines.insert(
                        first.lineno - 1, f"{indent}# equivalence probe\n"
                    )
                    path.write_text("".join(lines), encoding="utf-8")
                    return
    raise AssertionError(f"{qualname} not found in {path}")


@pytest.mark.slow
@pytest.mark.parametrize("name", ["CAS-lock", "Ticketed lock"])
def test_registry_equivalence_gate(name, tmp_path):
    """Mutate one real definition; the incremental sweep must re-execute
    exactly the obligations whose cone contains it and agree verdict-
    for-verdict with a cold full run of the same source."""
    info = {i.name: i for i in registry_programs()}[name]
    module = info.modules[0]
    path = _module_path(module)
    original = path.read_text(encoding="utf-8")

    analysis = analyze_obligations(info)
    assert analysis.usable
    steps = sorted(
        {
            d.name
            for dep in analysis.obligations
            for d in dep.cone.definitions
            if d.module == module and d.name.endswith(".step")
        }
    )
    assert steps, f"no step definitions tracked for {name}"
    target = steps[0]
    expected = analysis.affected_by(module, target)
    assert expected, f"{target} affects no obligations"
    assert len(expected) < len(analysis.obligations), (
        f"{target} affects every obligation; the gate would be vacuous"
    )

    cache_dir = tmp_path / "cache"
    try:
        cold = sweep([info], jobs=1, cache_dir=cache_dir, incremental=True)
        assert not cold.outcome(name).cached
        _insert_comment(path, target)
        inc = sweep([info], jobs=1, cache_dir=cache_dir, incremental=True)
        outcome = inc.outcome(name)
        assert not outcome.cached
        assert outcome.reverified == len(expected), (
            f"edit to {target} re-verified {outcome.reverified} "
            f"obligations, cone says {sorted(expected)}"
        )
        assert _verdicts(cold) == _verdicts(inc)
        # A comment is behaviour-neutral, so a cold run of the edited
        # source must agree too (the full equivalence triangle).
        cold_edited = sweep([info], jobs=1, cache_dir=tmp_path / "cache2")
        assert _verdicts(cold_edited) == _verdicts(inc)
    finally:
        path.write_text(original, encoding="utf-8")
