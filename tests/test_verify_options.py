"""Verifier options travel with the work unit, never through the environment.

A verdict may depend only on the program and the options a sweep ran it
with: the obligation cache replays verdicts on exactly that assumption.
Liveness, the explorer cap scale and the obligation-group and
obligation-name filters therefore live in one :class:`VerifyOptions`
install (repro.core.verify), and the environment variables that once
mirrored them must change nothing — neither a cold sweep nor the cache
entry it stores.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

import repro
from repro.engine import run_sweep

#: The environment variables the package may still read: the cache
#: location (deployment), the chaos harness and the trace switch.
ALLOWED_ENV = frozenset({"REPRO_CACHE_DIR", "REPRO_FAULTS", "REPRO_TRACE"})

#: case -> (program, exported variables).  ``None`` stands for the name
#: of the program's first obligation.  Spanning tree's Main explores
#: more than 100 configurations, the floor a shrunk cap stops at.
EXPORTED = {
    "groups": ("CAS-lock", {"REPRO_OBLIGATION_GROUPS": "Libs"}),
    "names": ("CAS-lock", {"REPRO_OBLIGATION_NAMES": None}),
    "cap-scale": ("Spanning tree", {"REPRO_EXPLORE_CAP_SCALE": "0.0001"}),
}


def _obligations(result, program):
    report = result.outcome(program).report
    return [
        {k: v for k, v in o.to_dict().items() if k != "seconds"}
        for o in report.obligations
    ]


@pytest.mark.parametrize("case", sorted(EXPORTED))
def test_exported_option_variables_change_no_verdict(case, tmp_path, monkeypatch):
    program, exported = EXPORTED[case]
    clean = run_sweep([program], jobs=1, cache=False, journal=False)
    expected = _obligations(clean, program)
    assert len(expected) > 1

    monkeypatch.setenv("REPRO_LIVENESS", "1")
    for name, value in exported.items():
        monkeypatch.setenv(name, expected[0]["name"] if value is None else value)
    cold = run_sweep([program], jobs=1, cache_dir=tmp_path)
    assert not cold.outcome(program).cached
    assert _obligations(cold, program) == expected
    assert cold.exit_code() == clean.exit_code()

    # The entry the cold sweep stored replays the clean verdicts too.
    warm = run_sweep([program], jobs=1, cache_dir=tmp_path)
    assert warm.outcome(program).cached
    assert _obligations(warm, program) == expected
    assert warm.exit_code() == clean.exit_code()


def _code_strings(tree: ast.AST):
    """String constants that are code, not docstrings."""
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            body = node.body
            if body and isinstance(body[0], ast.Expr):
                docstrings.add(id(body[0].value))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docstrings
        ):
            yield node.value


def test_no_new_environment_side_channels():
    """Every ``REPRO_*`` name the package's code can read from the
    environment is one of the allowed three: an option that changes a
    verdict is passed explicitly, never through the environment."""
    root = Path(repro.__file__).parent
    found: dict[str, set[str]] = {}
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for text in _code_strings(tree):
            for name in re.findall(r"REPRO_[A-Z0-9_]+", text):
                found.setdefault(name, set()).add(str(path.relative_to(root)))
    assert ALLOWED_ENV <= set(found)
    extra = {name: sorted(paths) for name, paths in found.items()
             if name not in ALLOWED_ENV}
    assert not extra, f"environment variables read outside the allowed set: {extra}"
