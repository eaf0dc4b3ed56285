"""Hot-reload bookkeeping for the resident daemon.

A one-shot ``repro verify`` imports everything fresh, so "the code on
disk" and "the code in memory" are the same thing.  A resident daemon
breaks that identity: after an edit, the obligation-cache fingerprints
(read from *files*) see the new code while the imported verifier entry
points still run the *old* code — replaying a cache entry stored by the
stale in-memory verifier under the fresh on-disk fingerprint would be
unsound.  :class:`ModuleTracker` closes the gap:

* **Case-study edits** (``repro.structures.*``) are safe to hot-reload:
  the tracker reloads every changed module *plus its transitive
  importers within the structures package* (import edges recovered
  statically from the AST, so an unimported module can never be missed;
  each source version is parsed once, in a bounded memo keyed by its
  digest, so an edit and its undo both reuse their parse),
  deps-first, then drops the registry's memoized rows
  (:func:`repro.structures.registry.reset_registry`) so the next sweep
  re-binds the fresh verifier functions.  The registry module itself is
  never reloaded — everything else holds references *into* it.

* **Framework edits** (``repro.core``, ``repro.semantics``, ...) are
  *not* hot-reloaded: partially-updated framework state (stale closures
  in worker hooks, half-swapped class hierarchies) could silently change
  verdicts.  The tracker latches ``stale_framework`` instead; the
  session then refuses ``verify``-class requests with a
  ``framework-changed`` error until the daemon restarts.  This is the
  sound choice: the fingerprints would charge the new framework digest
  while the resident process still executes the old semantics.

The tracker also clears :func:`repro.engine.fingerprint.framework_digest`'s
memo on every refresh, so fingerprints always reflect the disk.
"""

from __future__ import annotations

import ast
import hashlib
import importlib
import sys
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path

STRUCTURES_PREFIX = "repro.structures"
#: Parsed import-edge sets :class:`ModuleTracker` keeps, most recently
#: used last: room for an edited and an undone version of every
#: structures module, bounded however many versions a session sees.
IMPORT_MEMO_SIZE = 128
#: Never reloaded: the rest of the process holds references into it;
#: ``reset_registry`` refreshes the only state it caches.
REGISTRY_MODULE = "repro.structures.registry"


def _source_digest(path: str) -> str | None:
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except OSError:
        return None


def _loaded_repro_modules() -> dict[str, str]:
    """dotted name -> source file, for every loaded ``repro.*`` module
    that has one (namespace packages and builtins have none)."""
    out: dict[str, str] = {}
    for name, module in list(sys.modules.items()):
        if name != "repro" and not name.startswith("repro."):
            continue
        path = getattr(module, "__file__", None)
        if module is not None and path:
            out[name] = path
    return out


def _package_of(name: str) -> str:
    """The package ``name``'s relative imports resolve against: its
    ``__package__`` (a package ``__init__`` is its own package), else
    the parent of the dotted name."""
    package = getattr(sys.modules.get(name), "__package__", None)
    if package:
        return package
    return name.rsplit(".", 1)[0] if "." in name else name


def _import_edges(source: bytes, package: str) -> frozenset[str]:
    """Dotted ``repro.structures.*`` modules a module imports, recovered
    from its AST (never by importing it): absolute imports, and relative
    imports (``from .x import y``, ``from ..a import b``) resolved
    against ``package``.  For ``from m import y`` both ``m`` and
    ``m.y`` are edges: ``y`` may be a submodule rather than an
    attribute."""
    try:
        tree = ast.parse(source)
    except (SyntaxError, ValueError):
        return frozenset()
    found: set[str] = set()
    parts = package.split(".")
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith(STRUCTURES_PREFIX):
                    found.add(alias.name)
            continue
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0:
            if not (node.module and node.module.startswith(STRUCTURES_PREFIX)):
                continue
            target = node.module
        elif node.level > len(parts):
            continue
        else:
            base = ".".join(parts[: len(parts) - node.level + 1])
            target = f"{base}.{node.module}" if node.module else base
        found.add(target)
        for alias in node.names:
            found.add(f"{target}.{alias.name}")
    return frozenset(found)


@dataclass
class ReloadReport:
    """What one :meth:`ModuleTracker.refresh` actually did."""

    #: Structures modules reloaded, in reload (deps-first) order.
    reloaded: list[str] = field(default_factory=list)
    #: Changed framework modules that can *not* be hot-reloaded.
    framework_changed: list[str] = field(default_factory=list)
    #: Modules whose files vanished (edit in flight / renamed).
    missing: list[str] = field(default_factory=list)

    @property
    def changed(self) -> bool:
        return bool(self.reloaded or self.framework_changed or self.missing)

    def to_dict(self) -> dict:
        return {
            "reloaded": list(self.reloaded),
            "framework_changed": list(self.framework_changed),
            "missing": list(self.missing),
        }


class ModuleTracker:
    """Digest snapshot of every loaded ``repro.*`` module, and the
    refresh that reconciles the resident process with the disk."""

    def __init__(self) -> None:
        self._digests: dict[str, str | None] = {}
        #: (source digest, package) -> import edges, least recently used
        #: first: every version of a file is parsed once while its entry
        #: lasts, so an edit and its undo are both reused
        self._edges: OrderedDict[tuple[str, str], frozenset[str]] = OrderedDict()
        #: Latched on the first framework edit; only a restart clears it.
        self.stale_framework = False
        self.snapshot()

    def snapshot(self) -> None:
        """Re-baseline: record the current on-disk digest of every
        loaded ``repro.*`` module."""
        self._digests = {
            name: _source_digest(path)
            for name, path in _loaded_repro_modules().items()
        }

    def observe_new(self) -> None:
        """Baseline modules imported since the last snapshot.

        The session calls this right after every request, when "what is
        on disk" and "what was just imported" are still the same bytes.
        Without it, a case study first imported by request *N* and then
        edited would be baselined at its *post-edit* digest during the
        next refresh — and the stale in-memory code would never reload.
        """
        for name, path in _loaded_repro_modules().items():
            if name not in self._digests:
                self._digests[name] = _source_digest(path)

    def changed_modules(self) -> tuple[list[str], list[str], list[str]]:
        """``(structures, framework, missing)`` — loaded modules whose
        on-disk source no longer matches the snapshot."""
        structures: list[str] = []
        framework: list[str] = []
        missing: list[str] = []
        current = _loaded_repro_modules()
        for name, path in current.items():
            digest = _source_digest(path)
            if digest is None:
                missing.append(name)
                continue
            previous = self._digests.get(name)
            if previous is None:
                # Imported since the last observation, so memory and
                # disk cannot be compared.  For a case study the safe
                # answer is cheap — reload it; for a framework module
                # latching ``stale_framework`` on a may-not-even-be-an-
                # edit would brick the daemon, so baseline it (the
                # observe_new hook makes this window one request wide).
                if name == STRUCTURES_PREFIX or name.startswith(
                    STRUCTURES_PREFIX + "."
                ):
                    structures.append(name)
                else:
                    self._digests[name] = digest
                continue
            if digest != previous:
                if name == STRUCTURES_PREFIX or name.startswith(
                    STRUCTURES_PREFIX + "."
                ):
                    structures.append(name)
                else:
                    framework.append(name)
        return structures, framework, missing

    def _imports(self, name: str, path: str) -> frozenset[str]:
        """The import edges of module ``name`` (see :func:`_import_edges`),
        parsed once per source version while the bounded memo keeps it."""
        try:
            source = Path(path).read_bytes()
        except OSError:
            return frozenset()
        key = (hashlib.sha256(source).hexdigest(), _package_of(name))
        edges = self._edges.get(key)
        if edges is None:
            edges = self._edges[key] = _import_edges(source, key[1])
            if len(self._edges) > IMPORT_MEMO_SIZE:
                self._edges.popitem(last=False)
        else:
            self._edges.move_to_end(key)
        return edges

    def _dependents_closure(self, changed: set[str]) -> set[str]:
        """``changed`` plus every loaded structures module that
        (transitively) imports one of them."""
        loaded = {
            name: path
            for name, path in _loaded_repro_modules().items()
            if name.startswith(STRUCTURES_PREFIX)
        }
        imports = {
            name: self._imports(name, path) & loaded.keys()
            for name, path in loaded.items()
        }
        closure = set(changed)
        grew = True
        while grew:
            grew = False
            for name, targets in imports.items():
                if name not in closure and targets & closure:
                    closure.add(name)
                    grew = True
        return closure

    def _reload_order(self, names: set[str]) -> list[str]:
        """Deps-first topological order (ties broken by name, cycles by
        name too — Python tolerates reloading a cycle in any order)."""
        loaded = _loaded_repro_modules()
        imports = {
            name: (self._imports(name, loaded[name]) & names) - {name}
            for name in names
            if name in loaded
        }
        order: list[str] = []
        placed: set[str] = set()
        pending = sorted(imports)
        while pending:
            progressed = False
            for name in list(pending):
                if imports[name] <= placed:
                    order.append(name)
                    placed.add(name)
                    pending.remove(name)
                    progressed = True
            if not progressed:  # import cycle: flush the rest by name
                order.extend(pending)
                break
        return order

    def refresh(self) -> ReloadReport:
        """Reconcile the resident process with the disk: hot-reload
        edited case studies, latch ``stale_framework`` on framework
        edits, and always re-baseline digests + the framework-digest
        memo so fingerprints track the disk."""
        from ..engine.fingerprint import framework_digest
        from ..structures.registry import reset_registry

        structures, framework, missing = self.changed_modules()
        report = ReloadReport(framework_changed=framework, missing=missing)
        if framework:
            self.stale_framework = True
        todo = {
            name
            for name in self._dependents_closure(set(structures))
            if name != REGISTRY_MODULE
        }
        if todo:
            for name in self._reload_order(todo):
                module = sys.modules.get(name)
                if module is None:
                    continue
                importlib.reload(module)
                report.reloaded.append(name)
            reset_registry()
        framework_digest.cache_clear()
        self.snapshot()
        return report
