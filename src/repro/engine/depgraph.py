"""Per-obligation dependency graphs and fingerprints (fcsl-deps).

:mod:`repro.analysis.deps` computes *what* an obligation can reach; this
module turns that into cache currency: a :class:`DepGraph` maps every
obligation of a program to a content fingerprint composed — exactly like
:func:`repro.engine.fingerprint.program_fingerprint` — from the schema
version, the framework digest and the verifier kwargs, but hashing only
the *reachable definitions'* segment digests instead of whole module
texts.  Editing one action changes only the fingerprints of obligations
whose cone contains it; the engine re-verifies those and replays the
rest (``repro verify --incremental``).

Fall-back ladder (soundness over precision, always):

* a **coarse cone** (budget exhausted, dynamic collection failure) keys
  on the whole-program fingerprint — any edit re-verifies it;
* an **unindexable definition** inside a cone keys on its whole module;
* an **unusable analysis** (duplicate obligation names, collection
  failure) produces no graph at all and the program verifies fully.

The same composition keys a warm session's protocol-closure snapshots
(:func:`closure_keys`, :mod:`repro.engine.snapshots`): the cone of a
setup closure stands in for an obligation's, and a coarse one keys
nothing.

``repro deps <program>`` dumps the graph as JSON or Graphviz dot.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any

from ..analysis.deps import (
    Definition,
    DependencyAnalysis,
    analyze_obligations,
)
from ..semantics.interp import stable_digest
from .fingerprint import (
    CACHE_SCHEMA_VERSION,
    framework_digest,
    program_fingerprint,
)


@dataclass
class DepGraph:
    """The dependency graph of one program, ready for the cache."""

    program: str
    #: obligation name -> per-obligation content fingerprint.
    fingerprints: dict[str, str]
    #: obligation name -> sorted definition keys (``module:name``).
    cones: dict[str, list[str]]
    #: obligation name -> category (render/grouping only).
    categories: dict[str, str]
    #: definition key -> segment digest ("" for unindexable modules).
    definitions: dict[str, str]
    #: obligation names that fell back to the whole-program fingerprint.
    coarse: list[str] = field(default_factory=list)
    analysis: DependencyAnalysis | None = field(default=None, repr=False)

    def stale_obligations(self, cached: dict[str, str]) -> set[str]:
        """Obligation names whose fingerprint differs from ``cached``
        (missing from the cache counts as stale)."""
        return {
            name
            for name, fp in self.fingerprints.items()
            if cached.get(name) != fp
        }

    def to_dict(self) -> dict[str, Any]:
        return {
            "program": self.program,
            "schema": CACHE_SCHEMA_VERSION,
            "obligations": {
                name: {
                    "fingerprint": self.fingerprints[name],
                    "category": self.categories.get(name, ""),
                    "coarse": name in self.coarse,
                    "definitions": self.cones.get(name, []),
                }
                for name in sorted(self.fingerprints)
            },
            "definitions": dict(sorted(self.definitions.items())),
        }

    def to_dot(self) -> str:
        """Graphviz dot: obligations on the left, definitions on the
        right, one edge per cone membership."""
        lines = [
            "digraph deps {",
            "  rankdir=LR;",
            f'  label="{self.program}";',
            "  node [fontsize=10];",
        ]
        for name in sorted(self.fingerprints):
            shape = "doubleoctagon" if name in self.coarse else "box"
            lines.append(f'  "ob:{name}" [label="{name}" shape={shape}];')
        for key in sorted(self.definitions):
            lines.append(f'  "def:{key}" [label="{key}" shape=ellipse];')
        for name in sorted(self.cones):
            for key in self.cones[name]:
                lines.append(f'  "ob:{name}" -> "def:{key}";')
        lines.append("}")
        return "\n".join(lines)


def _kwargs_digest(info, extra_kwargs: dict | None) -> str:
    kwargs = dict(info.verifier_kwargs)
    if extra_kwargs:
        kwargs.update(extra_kwargs)
    return stable_digest(tuple(sorted(kwargs.items())))


def obligation_fingerprint(
    info,
    analysis: DependencyAnalysis,
    obligation: str,
    category: str,
    definitions: list[Definition],
    *,
    extra_kwargs: dict | None = None,
) -> str:
    """One obligation's content fingerprint: the program fingerprint's
    structure, with whole-module texts replaced by the cone's segment
    digests.  An unindexable module contributes an empty digest — edits
    to it are then caught by the entry checksum of its whole-module
    source read failing identically everywhere, so the composition stays
    deterministic."""
    digest = hashlib.sha256()
    digest.update(f"schema:{CACHE_SCHEMA_VERSION}\n".encode())
    digest.update(f"framework:{framework_digest()}\n".encode())
    digest.update(f"kwargs:{_kwargs_digest(info, extra_kwargs)}\n".encode())
    digest.update(f"obligation:{obligation}:{category}\n".encode())
    for defn in sorted(definitions, key=lambda d: (d.module, d.name)):
        seg = analysis.definition_digest(defn) or ""
        digest.update(f"def:{defn.module}:{defn.name}:{seg}\n".encode())
    return digest.hexdigest()


def closure_keys(
    info, analysis: DependencyAnalysis, *, extra_kwargs: dict | None = None
) -> tuple[str | None, ...]:
    """The key of each setup protocol closure of the analysed run, in
    call order: an obligation fingerprint (:func:`obligation_fingerprint`)
    of the closure's cone (:meth:`DependencyAnalysis.closure_cones`),
    under the pseudo-obligation name ``<closure N>``.  ``None`` for a
    closure whose cone is coarse or whose walk failed: its snapshot is
    never stored or loaded.  The closure's inputs (the initials' stable
    digest, ``max_states``) join the key where the closure is built
    (:mod:`repro.engine.snapshots`)."""
    try:
        cones = analysis.closure_cones()
    except Exception:  # noqa: BLE001 - no key, no snapshot
        return (None,) * len(analysis.closures)
    keys: list[str | None] = []
    for cone in cones:
        if cone.coarse:
            keys.append(None)
            continue
        keys.append(
            obligation_fingerprint(
                info, analysis, cone.obligation, cone.category,
                list(cone.definitions), extra_kwargs=extra_kwargs,
            )
        )
    return tuple(keys)


def build_depgraph(
    info, *, extra_kwargs: dict | None = None, plan=None, closures=None
) -> DepGraph | None:
    """Analyze ``info`` and build its :class:`DepGraph`.

    ``plan`` is an already-collected :class:`ObligationPlan` list, and
    ``closures`` the :class:`~repro.core.verify.ClosurePlan` list of the
    same run — the engine's collect-while-verifying units pass them so
    the verifier's setup runs once, not once per phase.  Returns
    ``None`` when per-obligation keys are unsound for this program
    (duplicate obligation names, collection failure): the caller must
    fall back to whole-program verification.
    """
    analysis = analyze_obligations(info, plan=plan, closures=closures)
    return depgraph_from_analysis(info, analysis, extra_kwargs=extra_kwargs)


def depgraph_from_analysis(
    info,
    analysis: DependencyAnalysis,
    *,
    extra_kwargs: dict | None = None,
) -> DepGraph | None:
    if not analysis.usable:
        return None
    full = program_fingerprint(info, extra_kwargs)
    fingerprints: dict[str, str] = {}
    cones: dict[str, list[str]] = {}
    categories: dict[str, str] = {}
    definitions: dict[str, str] = {}
    coarse: list[str] = []
    for dep in analysis.obligations:
        categories[dep.name] = dep.category
        if dep.cone.coarse:
            coarse.append(dep.name)
            fingerprints[dep.name] = full
            cones[dep.name] = []
            continue
        defs = sorted(dep.cone.definitions, key=lambda d: (d.module, d.name))
        cones[dep.name] = [d.key for d in defs]
        for d in defs:
            definitions[d.key] = analysis.definition_digest(d) or ""
        fingerprints[dep.name] = obligation_fingerprint(
            info, analysis, dep.name, dep.category, defs, extra_kwargs=extra_kwargs
        )
    return DepGraph(
        program=info.name,
        fingerprints=fingerprints,
        cones=cones,
        categories=categories,
        definitions=definitions,
        coarse=coarse,
        analysis=analysis,
    )
