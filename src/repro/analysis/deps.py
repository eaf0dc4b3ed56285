"""fcsl-deps: per-obligation static dependency analysis.

The obligation cache invalidates on whole-module source text: editing one
action re-runs every obligation of its case study.  This module computes,
for each obligation a verifier *would* run, the precise set of case-study
**definitions** it can reach — the dependency cone — so the engine can key
cache entries per obligation and re-verify only the cone of an edit
(``repro verify --incremental``, :mod:`repro.engine.depgraph`).

The analysis has three layers:

* :class:`DefIndex` — an AST index of one module's *file text*: every
  top-level function, every method (``Class.method``), a per-class body
  residue (decorators, class-level constants) and a module-level residue
  (``<toplevel>``: imports, constants, everything outside a def), each
  with a content digest.  Reading the file — not ``inspect`` — means an
  on-disk edit is visible without re-importing, exactly like
  :func:`repro.engine.fingerprint.module_source`.

* The **reachability walk** — obligations are collected without being
  executed (:class:`repro.core.verify.collecting_obligations`) and each
  closure is walked: bytecode (``co_names`` over the nested code-object
  tree), captured cells, default arguments, bound ``self`` objects,
  resolved module globals, class hierarchies and instance attribute
  graphs.  Framework code (``repro`` minus the case studies) is
  *traversed* — its attribute reads matter — but never recorded: the
  framework digest already keys every cache entry.  Instance attributes
  are expanded only for names the walked code can mention (a
  flow-insensitive attribute filter, iterated to fixpoint), which is
  what keeps a stability obligation over ``lock.quiescent`` from
  depending on ``lock.write_action``.

* **Dependency-hygiene diagnostics** — FCSL060-066, reported through the
  shared :mod:`repro.analysis.diagnostics` machinery (``repro deps``,
  ``--select``): mutable-global reads the fingerprints cannot see,
  closures escaping the repro package, dynamic dispatch forcing a
  conservative whole-module edge, protocol/client module cycles,
  monolithic cones, colliding obligation names, and exhausted walks.

Soundness contract (gated by tests/test_incremental.py): the cone is a
conservative over-approximation — it may contain definitions the
obligation never executes (a wasted re-verification), but a definition
whose edit can change the verdict must be in the cone.  Any analysis
trouble therefore degrades to a *coarser* edge (whole module, whole
program), never to a missing one.
"""

from __future__ import annotations

import ast
import dis
import hashlib
import importlib.util
import sys
import types
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Iterable, Sequence
from weakref import WeakKeyDictionary

from .diagnostics import Diagnostic, diag

#: Definitions are tracked per-definition only for the case studies; the
#: rest of ``repro`` is covered wholesale by the framework digest.
TRACKED_PREFIX = "repro.structures."

#: Pseudo-definition name for a module's outside-any-def residue.
TOPLEVEL = "<toplevel>"

#: Pseudo-definition name for a conservative whole-module edge.
WHOLE_MODULE = "<module>"

#: Builtin names whose presence in *case-study* bytecode defeats static
#: attribute resolution (framework uses of them are deliberate and
#: reviewed; a case study reaching for them gets a whole-module edge).
_DYNAMIC_BUILTINS = frozenset(
    {"getattr", "setattr", "delattr", "eval", "exec", "__import__", "vars"}
)

#: Walk budget: object expansions per obligation before the analysis
#: declares itself incomplete (FCSL066) and falls back to the
#: whole-program fingerprint.
WALK_BUDGET = 120_000


def _is_stdlib(module: str) -> bool:
    top = module.partition(".")[0]
    return top in sys.stdlib_module_names or top == "builtins"


def _resolve_import(spec: str, importer: str) -> list[types.ModuleType]:
    """Already-imported modules an ``IMPORT_NAME spec`` inside ``importer``
    can denote.  The bytecode does not retain the relative-import level,
    so every ancestry-prefixed candidate found in ``sys.modules`` is
    returned — over-approximating only ever adds edges."""
    parts = importer.split(".")
    candidates = [spec] if spec else []
    for i in range(len(parts) - 1, 0, -1):
        prefix = ".".join(parts[:i])
        candidates.append(f"{prefix}.{spec}" if spec else prefix)
    out: list[types.ModuleType] = []
    for cand in dict.fromkeys(candidates):
        mod = sys.modules.get(cand)
        if mod is not None:
            out.append(mod)
    return out


def _is_repro(module: str) -> bool:
    return module == "repro" or module.startswith("repro.")


def _is_tracked(module: str | None) -> bool:
    return bool(module) and module.startswith(TRACKED_PREFIX)


@dataclass(frozen=True)
class Definition:
    """One fingerprintable unit of a tracked module."""

    module: str
    #: Index key (``func``, ``Class`` residue, ``Class.method``),
    #: :data:`TOPLEVEL`, or :data:`WHOLE_MODULE`.
    name: str

    @property
    def key(self) -> str:
        return f"{self.module}:{self.name}"


class DefIndex:
    """Definition-granularity digest index over one module's file text."""

    def __init__(self, module: str, text: str):
        self.module = module
        self.digests: dict[str, str] = {}
        self._build(text)

    @staticmethod
    def source_of(module: str) -> str:
        spec = importlib.util.find_spec(module)
        if spec is None or spec.origin is None or not Path(spec.origin).is_file():
            raise ModuleNotFoundError(f"cannot locate source for {module!r}")
        return Path(spec.origin).read_text(encoding="utf-8")

    @classmethod
    def for_module(cls, module: str) -> "DefIndex":
        return cls(module, cls.source_of(module))

    @staticmethod
    def _span(node: ast.AST) -> tuple[int, int]:
        """1-based inclusive line span, decorators included."""
        start = node.lineno
        for dec in getattr(node, "decorator_list", []):
            start = min(start, dec.lineno)
        return start, node.end_lineno or node.lineno

    def _digest_lines(self, lines: Sequence[str], spans: Iterable[tuple[int, int]]) -> str:
        digest = hashlib.sha256()
        for start, end in spans:
            for line in lines[start - 1 : end]:
                digest.update(line.encode("utf-8"))
        return digest.hexdigest()

    def _residue_digest(
        self, lines: Sequence[str], total: tuple[int, int], holes: list[tuple[int, int]]
    ) -> str:
        """Digest of a span minus its hole spans (class/module residue)."""
        covered = [False] * (len(lines) + 2)
        for start, end in holes:
            for i in range(start, end + 1):
                if i < len(covered):
                    covered[i] = True
        digest = hashlib.sha256()
        for i in range(total[0], min(total[1], len(lines)) + 1):
            if not covered[i]:
                digest.update(lines[i - 1].encode("utf-8"))
        return digest.hexdigest()

    def _build(self, text: str) -> None:
        lines = text.splitlines(keepends=True)
        tree = ast.parse(text)
        top_spans: list[tuple[int, int]] = []
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                span = self._span(node)
                top_spans.append(span)
                self.digests[node.name] = self._digest_lines(lines, [span])
            elif isinstance(node, ast.ClassDef):
                span = self._span(node)
                top_spans.append(span)
                method_spans: list[tuple[int, int]] = []
                for child in node.body:
                    if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        mspan = self._span(child)
                        method_spans.append(mspan)
                        self.digests[f"{node.name}.{child.name}"] = self._digest_lines(
                            lines, [mspan]
                        )
                # Class residue: bases, decorators, class-level constants.
                self.digests[node.name] = self._residue_digest(
                    lines, span, method_spans
                )
        self.digests[TOPLEVEL] = self._residue_digest(
            lines, (1, len(lines)), top_spans
        )
        self.digests[WHOLE_MODULE] = hashlib.sha256(
            text.encode("utf-8")
        ).hexdigest()

    def resolve(self, qualname: str) -> str | None:
        """Index key for a runtime ``__qualname__`` (``None`` = unindexable:
        the definition does not live in this file's text)."""
        head = qualname.split(".<locals>.")[0].split(".<locals>")[0]
        if head in self.digests:
            return head
        parts = head.split(".")
        for width in (2, 1):
            candidate = ".".join(parts[:width])
            if candidate in self.digests:
                return candidate
        if head.startswith("<"):  # module-level <lambda>/<listcomp>: residue
            return TOPLEVEL
        return None


# -- code-object summaries (shared across obligations and programs) ------------


@dataclass
class _CodeSummary:
    """Static facts of one code object's nested tree."""

    names: frozenset[str]
    #: The subset of ``names`` the code can *read* (LOAD_ATTR/LOAD_GLOBAL/
    #: …).  A pure store (``self._draw = …``) cannot observe the stored
    #: attribute, so stores do not unlock attribute expansion — without
    #: this, an eager constructor that builds sibling objects
    #: (``self._a = A(self); self._b = B(self)``) would pull every
    #: sibling into every cone that reaches the constructor.
    load_names: frozenset[str]
    #: IMPORT_NAME operands: function-*local* imports bind to locals, so
    #: the imported objects never appear in ``__globals__`` — the walk
    #: must resolve them itself (``from ..semantics.explore import
    #: explore`` inside ``check_triple`` is how the whole interpreter is
    #: reached).
    imports: tuple[str, ...]
    #: ``(global_name, attr)`` pairs from ``self.<attr> = Global(...)``
    #: statements in the code object itself (not nested defs): the
    #: eager-construction pattern.  For a constructor, the attr is the
    #: name under which the constructed object becomes reachable — the
    #: *guard*: the object's class can stay constructor-only until some
    #: reachable code loads that attr.
    ctor_stores: tuple[tuple[str, str], ...]
    codes: tuple[types.CodeType, ...]  # nested code objects (lambdas, comprehensions)
    dynamic: bool  # mentions a dynamic-dispatch builtin


_CODE_SUMMARIES: dict[tuple[types.CodeType, bool], _CodeSummary] = {}

#: Instruction opnames that read a name (vs store/delete it), across the
#: supported CPython versions (LOAD_METHOD pre-3.12 and its LOAD_ATTR
#: successor, the 3.12+ super/dict-or-globals forms).
_LOAD_OPS = frozenset(
    {
        "LOAD_ATTR",
        "LOAD_METHOD",
        "LOAD_GLOBAL",
        "LOAD_NAME",
        "LOAD_DEREF",
        "LOAD_CLASSDEREF",
        "LOAD_SUPER_ATTR",
        "LOAD_FROM_DICT_OR_GLOBALS",
        "LOAD_FROM_DICT_OR_DEREF",
        "IMPORT_NAME",
        "IMPORT_FROM",
    }
)


def _summarize_code(
    code: types.CodeType, *, skip_lambdas: bool = False
) -> _CodeSummary:
    """Summarize a code object's nested tree.

    ``skip_lambdas`` is the setup-cone variant: a nested lambda never
    executes at its definition site, so its loads say nothing about what
    runs *during setup* — including them floods the setup name filter
    with every obligation body's attribute reads.  Lambdas reached as
    captured data are summarized (fully) by the per-obligation walks.
    """
    key = (code, skip_lambdas)
    cached = _CODE_SUMMARIES.get(key)
    if cached is not None:
        return cached
    names: set[str] = set()
    loads: set[str] = set()
    imports: set[str] = set()
    stores: list[tuple[str, str]] = []
    nested: list[types.CodeType] = []
    stack = [code]
    while stack:
        c = stack.pop()
        names.update(c.co_names)
        names.update(c.co_freevars)
        pending: str | None = None  # last LOAD_GLOBAL with no store since
        for inst in dis.get_instructions(c):
            if inst.opname in _LOAD_OPS and isinstance(inst.argval, str):
                loads.add(inst.argval)
            if inst.opname == "IMPORT_NAME" and isinstance(inst.argval, str):
                imports.add(inst.argval)
            if c is code:
                if inst.opname == "LOAD_GLOBAL":
                    pending = inst.argval
                elif inst.opname == "STORE_ATTR":
                    if pending is not None:
                        stores.append((pending, inst.argval))
                    pending = None
                elif inst.opname.startswith("STORE_"):
                    pending = None
        for const in c.co_consts:
            if isinstance(const, types.CodeType):
                if skip_lambdas and const.co_name == "<lambda>":
                    continue
                nested.append(const)
                stack.append(const)
    summary = _CodeSummary(
        names=frozenset(names),
        load_names=frozenset(loads),
        imports=tuple(sorted(imports)),
        ctor_stores=tuple(stores),
        codes=tuple(nested),
        dynamic=bool(names & _DYNAMIC_BUILTINS),
    )
    _CODE_SUMMARIES[key] = summary
    return summary


# -- inert-object cache --------------------------------------------------------

_PRIMITIVES = (type(None), bool, int, float, complex, str, bytes, bytearray, range)

#: Walk verdicts decidable from the type alone.  Every branch of
#: :meth:`_InertCache._walk` dispatches on facts of ``type(obj)`` —
#: computing them once per class turns the per-node cost of walking
#: thousands of fresh ``State`` objects per sweep into one dict hit.
#: The cache is keyed weakly: a resident daemon hot-reloads case-study
#: modules, and each reload makes new classes that must not be kept
#: alive (with every method they hold) by the entries of the old ones.
_K_INERT, _K_CODE, _K_SEQ, _K_DICT, _K_TRACKED, _K_INSTANCE = range(6)

_CODE_TYPES = (
    types.FunctionType,
    types.MethodType,
    types.CodeType,
    types.ModuleType,
    type,
    property,
    staticmethod,
    classmethod,
    partial,
)

_CLASS_FACTS: WeakKeyDictionary[type, tuple[int, tuple[str, ...]]] = WeakKeyDictionary()


def _class_facts(cls: type) -> tuple[int, tuple[str, ...]]:
    """``(kind, slot_names)`` for instances of ``cls``.

    ``kind`` mirrors the branch :meth:`_InertCache._walk` would take;
    ``slot_names`` is the flattened ``__slots__`` chain (instance kinds
    read it instead of rescanning the MRO per object).  ``callable()``
    is a type-level property in CPython (``tp_call``), so the code check
    looks for ``__call__`` in the MRO's own dicts — ``hasattr`` would
    find ``type.__call__`` on every class via the metaclass.
    """
    facts = _CLASS_FACTS.get(cls)
    if facts is not None:
        return facts
    if issubclass(cls, _PRIMITIVES) or getattr(cls, "__deps_opaque__", False):
        # ``__deps_opaque__``: the class declares its instances carry
        # only derived analysis facts (e.g. ``ProtocolGraph`` tables) —
        # walking them would make cones depend on sibling-program
        # execution history, not on the obligation's sources.
        kind = _K_INERT
    elif issubclass(cls, _CODE_TYPES) or any(
        "__call__" in k.__dict__ for k in cls.__mro__
    ):
        kind = _K_CODE
    elif issubclass(cls, (tuple, list, set, frozenset)):
        kind = _K_SEQ
    elif issubclass(cls, dict):
        kind = _K_DICT
    elif any(_is_tracked(getattr(k, "__module__", None)) for k in cls.__mro__):
        kind = _K_TRACKED
    else:
        kind = _K_INSTANCE
    slots = tuple(
        slot
        for klass in cls.__mro__
        for slot in (getattr(klass, "__slots__", ()) or ())
    )
    facts = (kind, slots)
    _CLASS_FACTS[cls] = facts
    return facts


class _InertCache:
    """Objects provably unable to reach code or tracked definitions.

    Verifier closures capture large value graphs (protocol closures of
    thousands of ``State`` objects); none of them can name a definition,
    and proving that once — shared across every walker of one program's
    analysis — is what keeps the walk proportional to the *code* graph,
    not the *state* graph.  Entries pin the object: an ``id`` is only a
    valid key while its object is alive, which is why
    :func:`analyze_obligations` scopes one cache per analysis instead of
    letting a long-lived sweep process pin every dead state graph it
    ever walked.
    """

    def __init__(self) -> None:
        self._known: dict[int, tuple[Any, bool]] = {}

    def reaches_code(self, obj: Any) -> bool:
        known = self._known.get(id(obj))
        if known is not None:
            return known[1]
        on_path: dict[int, Any] = {}
        result = self._walk(obj, on_path)
        return result

    def proven_inert(self, obj: Any) -> bool:
        """Memo-only check (never walks): True iff ``obj`` has already
        been proven unable to reach code.  Walkers consult it at enqueue
        time, so one walker's proof spares every later walker the queue
        churn of the same value graph."""
        known = self._known.get(id(obj))
        return known is not None and known[0] is obj and not known[1]

    def _walk(self, obj: Any, on_path: dict[int, Any]) -> bool:
        kind, slots = _class_facts(type(obj))
        if kind == _K_INERT:
            return False
        oid = id(obj)
        known = self._known.get(oid)
        if known is not None:
            return known[1]
        if kind == _K_CODE or kind == _K_TRACKED:
            self._known[oid] = (obj, True)
            return True
        if oid in on_path:  # cycle: decided by the rest of the graph
            return False
        on_path[oid] = obj
        try:
            if kind == _K_SEQ:
                reaches = any(self._walk(x, on_path) for x in obj)
            elif kind == _K_DICT:
                reaches = any(
                    self._walk(k, on_path) or self._walk(v, on_path)
                    for k, v in obj.items()
                )
            else:
                reaches = False
                d = getattr(obj, "__dict__", None)
                if isinstance(d, dict):
                    reaches = any(self._walk(v, on_path) for v in d.values())
                if not reaches:
                    for slot in slots:
                        try:
                            value = getattr(obj, slot)
                        except AttributeError:
                            continue
                        if self._walk(value, on_path):
                            reaches = True
                            break
        finally:
            on_path.pop(oid, None)
        self._known[oid] = (obj, reaches)
        return reaches


_INERT = _InertCache()


def _instance_items(obj: Any) -> Iterable[tuple[str, Any]]:
    d = getattr(obj, "__dict__", None)
    if isinstance(d, dict):
        yield from d.items()
    for slot in _class_facts(type(obj))[1]:
        try:
            yield slot, getattr(obj, slot)
        except AttributeError:
            continue


# -- the dependency cone -------------------------------------------------------


@dataclass
class DependencyCone:
    """Everything one obligation's verdict can depend on."""

    obligation: str
    category: str
    definitions: set[Definition] = field(default_factory=set)
    #: ``module.qualname`` of reached non-repro, non-stdlib definitions.
    externals: set[str] = field(default_factory=set)
    #: ``module:name`` of mutable module globals the cone reads.
    mutable_globals: set[str] = field(default_factory=set)
    #: human notes for dynamic-dispatch fallbacks (FCSL062).
    dynamic: set[str] = field(default_factory=set)
    #: directed module edges discovered while walking (FCSL063 input).
    module_edges: set[tuple[str, str]] = field(default_factory=set)
    #: True when the walk gave up (budget/collection trouble): the
    #: obligation must key on the whole-program fingerprint.
    coarse: bool = False


class _ConeWalker:
    """One obligation's reachability walk (shares the process caches).

    ``setup=True`` selects the *setup-cone* variant used for the
    verifier entry point itself: only code that can **execute during
    setup** matters there (factories, constructors, class residues,
    toplevel residues), so framework functions are not traversed — the
    framework digest covers them, they never statically reference a case
    study, and traversing them would union every attribute name the
    checker mentions (``step``, ``requires``, …) into the filter,
    flooding the setup cone with every method of every reached class.
    Method *bodies* reached only through captured objects are the
    per-obligation walks' job.
    """

    def __init__(
        self,
        cone: DependencyCone,
        indexes: dict[str, DefIndex | None],
        *,
        setup: bool = False,
        attr_cache: dict[int, tuple[Any, tuple[tuple[str, Any], ...]]] | None = None,
        inert: _InertCache | None = None,
    ):
        self.cone = cone
        self.indexes = indexes
        self.setup = setup
        self._inert = inert if inert is not None else _INERT
        self.names: set[str] = set()
        # Append-ordered log of ``names``: expanded objects remember how
        # far into the log they have seen (an epoch), so name growth
        # replays only the suffix instead of copying the whole set per
        # visited instance.
        self._name_log: list[str] = []
        # Instance attr items, computed once per object per analysis and
        # shared across the program's walkers (the entry pins the object,
        # keeping its ``id`` valid for the cache's lifetime).
        self._attrs = attr_cache if attr_cache is not None else {}
        self._seen: dict[int, Any] = {}
        # Classes already visited, by expansion mode (pins the class).
        # ``True`` = full names-filtered method expansion (the class's
        # instances are reachable data, or its constructor is called
        # from ordinary code — the fresh instance can flow anywhere).
        # ``False`` = referrer-filtered (the class is referenced from
        # *inside another constructor*: eager-construction stores the
        # instance on ``self``, where the load-name instance filter
        # governs it — only what the constructing code itself loads,
        # plus ``__init__``/``__new__``, joins the cone).  Reaching a
        # restricted class through data later upgrades it to full.
        self._class_mode: dict[int, tuple[type, bool]] = {}
        #: Accumulated referrer load-names per restricted class.
        self._class_ref_loads: dict[int, set[str]] = {}
        #: Guarded restricted classes: ``(cls, src, guard_attrs)`` — the
        #: attrs its constructing ctor stored it under.  When any guard
        #: attr enters ``names`` (some reachable code loads it), the
        #: stored instance is exposed and the class upgrades to full.
        self._class_guards: list[tuple[type, str | None, set[str]]] = []
        # Instances/classes already expanded, with the name-log epoch
        # they were expanded under: when the name set grows, they are
        # revisited for exactly the names logged since.
        self._expanded: dict[int, tuple[Any, int]] = {}
        self._budget = WALK_BUDGET
        self._queue: list[
            tuple[Any, str | None, bool, frozenset[str] | None]
        ] = []

    # -- index plumbing -------------------------------------------------------

    def _index(self, module: str) -> DefIndex | None:
        if module not in self.indexes:
            try:
                self.indexes[module] = DefIndex.for_module(module)
            except Exception:  # noqa: BLE001 - unindexable: conservative edges
                self.indexes[module] = None
        return self.indexes[module]

    def _record(self, module: str, name: str, src: str | None) -> None:
        self.cone.definitions.add(Definition(module, name))
        if src is not None and src != module:
            self.cone.module_edges.add((src, module))

    def _record_qualname(self, module: str, qualname: str, src: str | None) -> None:
        index = self._index(module)
        key = index.resolve(qualname) if index is not None else None
        if key is None:
            self.cone.dynamic.add(f"{module}:{qualname} (unindexable definition)")
            self._record(module, WHOLE_MODULE, src)
        else:
            self._record(module, key, src)

    # -- the walk -------------------------------------------------------------

    def _add_names(self, names: Iterable[str]) -> None:
        for name in names:
            if name not in self.names:
                self.names.add(name)
                self._name_log.append(name)

    def _attr_items(self, obj: Any) -> tuple[tuple[str, Any], ...]:
        cached = self._attrs.get(id(obj))
        if cached is not None and cached[0] is obj:
            return cached[1]
        items = tuple(_instance_items(obj))
        self._attrs[id(obj)] = (obj, items)
        return items

    def run(self, *roots: Any) -> DependencyCone:
        for root in roots:
            self._enqueue(root, None)
        while True:
            grew = self._drain()
            if not grew and not self._queue:
                break
        return self.cone

    def _drain(self) -> bool:
        """Process the queue; returns True when the name set grew (which
        re-arms the attribute fixpoint over expanded objects)."""
        before = len(self.names)
        while self.queue_pop():
            pass
        if len(self.names) == before:
            return False
        # New attribute names can unlock attrs on already-walked objects.
        log = self._name_log
        for oid, (obj, upto) in list(self._expanded.items()):
            if upto >= len(log):
                continue
            fresh = set(log[upto:])
            self._expanded[oid] = (obj, len(log))
            self._expand_attrs(obj, fresh)
        # ... and expose guarded ctor-stored objects (upgrade to full).
        for entry in list(self._class_guards):
            cls, src, guards = entry
            if guards & self.names:
                self._class_guards.remove(entry)
                self._enqueue(cls, src)
        return True

    def queue_pop(self) -> bool:
        if not self._queue or self.cone.coarse:
            self._queue.clear()
            return False
        obj, src, full, ref_loads = self._queue.pop()
        self._visit(obj, src, full, ref_loads)
        return True

    def _enqueue(
        self,
        obj: Any,
        src: str | None,
        *,
        full: bool = True,
        ref_loads: frozenset[str] | None = None,
    ) -> None:
        """Queue ``obj``; ``full``/``ref_loads`` only matter for classes
        (see ``_class_mode``) — only constructor-sourced class references
        pass ``full=False``, everything else takes the conservative
        default."""
        if obj is None or isinstance(obj, _PRIMITIVES):
            return
        if self._inert.proven_inert(obj):
            return  # the same early-out _visit_instance would take
        if isinstance(obj, type):
            mode = self._class_mode.get(id(obj))
            if mode is not None and mode[1]:
                return  # already fully expanded: covers everything
            if full:
                self._class_mode[id(obj)] = (obj, True)
                self._queue.append((obj, src, True, None))
                return
            loads = set(ref_loads or ())
            prev = self._class_ref_loads.get(id(obj))
            if prev is None:
                self._class_mode[id(obj)] = (obj, False)
                self._class_ref_loads[id(obj)] = set(loads)
                self._queue.append((obj, src, False, frozenset(loads)))
            else:
                fresh = loads - prev
                if fresh:  # a new referrer named new attrs: re-expand those
                    prev.update(fresh)
                    self._queue.append((obj, src, False, frozenset(fresh)))
            return
        if id(obj) in self._seen:
            return
        self._seen[id(obj)] = obj
        self._queue.append((obj, src, True, None))

    def _spend(self) -> bool:
        self._budget -= 1
        if self._budget <= 0 and not self.cone.coarse:
            self.cone.coarse = True
        return not self.cone.coarse

    def _visit(
        self,
        obj: Any,
        src: str | None,
        full: bool = True,
        ref_loads: frozenset[str] | None = None,
    ) -> None:
        if not self._spend():
            return
        if isinstance(obj, types.MethodType):
            self._enqueue(obj.__self__, src)
            obj = obj.__func__
        if isinstance(obj, (staticmethod, classmethod)):
            obj = obj.__func__
        if isinstance(obj, property):
            for accessor in (obj.fget, obj.fset, obj.fdel):
                self._enqueue(accessor, src)
            return
        if isinstance(obj, partial):
            self._enqueue(obj.func, src)
            for arg in obj.args:
                self._enqueue(arg, src)
            for value in obj.keywords.values():
                self._enqueue(value, src)
            return
        if isinstance(obj, types.FunctionType):
            self._visit_function(obj, src)
            return
        if isinstance(obj, types.BuiltinFunctionType):
            return
        if isinstance(obj, types.ModuleType):
            self._visit_module(obj, src)
            return
        if isinstance(obj, type):
            self._visit_class(obj, src, full, ref_loads)
            return
        if isinstance(obj, (tuple, list, set, frozenset)):
            # Inert-check the container itself: one walk proves a whole
            # state family inert and memoizes it, so every later walker
            # skips it at enqueue instead of re-enqueuing each member.
            if not self._inert.reaches_code(obj):
                return
            for item in obj:
                self._enqueue(item, src)
            return
        if isinstance(obj, dict):
            if not self._inert.reaches_code(obj):
                return
            for key, value in obj.items():
                self._enqueue(key, src)
                self._enqueue(value, src)
            return
        self._visit_instance(obj, src)

    def _visit_function(self, fn: types.FunctionType, src: str | None) -> None:
        module = fn.__module__ or ""
        if self.setup and _is_repro(module) and not _is_tracked(module):
            return  # setup cone: framework code neither runs case-study
            # definitions nor references them statically.
        summary = _summarize_code(fn.__code__, skip_lambdas=self.setup)
        self._add_names(summary.load_names)
        if _is_tracked(module):
            self._record_qualname(module, fn.__qualname__, src)
            if summary.dynamic:
                self.cone.dynamic.add(
                    f"{module}:{fn.__qualname__} (dynamic-dispatch builtin)"
                )
                self._record(module, WHOLE_MODULE, src)
        elif not _is_repro(module) and not _is_stdlib(module):
            self.cone.externals.add(f"{module}.{fn.__qualname__}")
        # Class references out of a *constructor* get referrer-filtered
        # expansion (``_class_mode``): an eager ``__init__`` that builds
        # sibling objects (``self._a = A(self); self._b = B(self)``)
        # stores them on ``self``, where the instance-attribute filter
        # governs them — full expansion here would pull every sibling's
        # methods into every cone that reaches the constructor.  The
        # same applies to the implicit ``__class__`` cell of zero-arg
        # ``super()`` in *any* function (a by-name reference, and
        # ``super().m()`` puts ``m`` in the referrer's load names).
        is_ctor = fn.__name__ in ("__init__", "__new__")
        for name, cell in zip(fn.__code__.co_freevars, fn.__closure__ or ()):
            try:
                value = cell.cell_contents
            except ValueError:  # empty cell
                continue
            is_ref = name == "__class__" and isinstance(value, type)
            self._enqueue(
                value,
                module or src,
                full=not is_ref,
                ref_loads=summary.load_names if is_ref else None,
            )
        for default in fn.__defaults__ or ():
            self._enqueue(default, module or src)
        for default in (fn.__kwdefaults__ or {}).values():
            self._enqueue(default, module or src)
        # Resolved globals: load names over-approximate (attribute reads
        # shadow same-named globals), which only ever adds edges — never
        # loses one.  A class a *constructor* loads and stores onto an
        # attribute (``self._a = A(self)``) is expanded referrer-only,
        # guarded on the stored attr name: loads of the attr anywhere in
        # the cone expose the instance and upgrade the class to full.
        ctor_pairs: dict[str, set[str]] = {}
        if is_ctor:
            for gname, attr in summary.ctor_stores:
                ctor_pairs.setdefault(gname, set()).add(attr)
        fn_globals = fn.__globals__
        for name in summary.load_names:
            if name not in fn_globals:
                continue
            value = fn_globals[name]
            if (
                isinstance(value, type)
                and name in ctor_pairs
                and not (ctor_pairs[name] & self.names)
            ):
                self._enqueue(
                    value, module, full=False, ref_loads=summary.load_names
                )
                self._class_guards.append((value, module, ctor_pairs[name]))
            else:
                self._visit_global(module, name, value)
        # Function-local imports bind to locals, not globals: resolve
        # the imported modules (relative forms against the importer's
        # package ancestry) and walk the members the code can load.
        for spec in summary.imports:
            for mod in _resolve_import(spec, module):
                self._visit_import(mod, module, summary.load_names)

    def _visit_import(
        self, mod: types.ModuleType, src: str, loads: frozenset[str]
    ) -> None:
        """Walk the members of a locally-imported module that the
        importing code can load — member-directed, so a tracked-module
        import costs definition edges, not a whole-module edge."""
        name = mod.__name__
        if _is_stdlib(name):
            return
        if not _is_repro(name):
            self.cone.externals.add(name)
        mod_vars = vars(mod)
        for attr in loads:
            if attr in mod_vars:
                self._visit_global(name, attr, mod_vars[attr])

    def _visit_global(self, module: str, name: str, value: Any) -> None:
        if isinstance(value, type):
            self._enqueue(value, module)
            return
        if isinstance(
            value,
            (
                types.FunctionType,
                types.BuiltinFunctionType,
                types.ModuleType,
            ),
        ):
            self._enqueue(value, module)
            return
        # Module-level data: its assignment lives in the module's
        # top-level residue, so the cone must include it.
        if _is_tracked(module):
            self._record(module, TOPLEVEL, None)
        if isinstance(value, (list, dict, set, bytearray)):
            self.cone.mutable_globals.add(f"{module}:{name}")
        self._enqueue(value, module)

    def _visit_module(self, mod: types.ModuleType, src: str | None) -> None:
        name = mod.__name__
        if _is_tracked(name):
            # A whole imported case-study module: conservative module edge.
            self._record(name, WHOLE_MODULE, src)
        elif not _is_repro(name) and not _is_stdlib(name):
            self.cone.externals.add(name)

    def _visit_class(
        self,
        cls: type,
        src: str | None,
        full: bool = True,
        ref_loads: frozenset[str] | None = None,
    ) -> None:
        for klass in cls.__mro__:
            module = getattr(klass, "__module__", "") or ""
            if klass is object:
                continue
            if _is_tracked(module):
                self._record_qualname(module, klass.__qualname__, src)
            elif not _is_repro(module) and not _is_stdlib(module):
                self.cone.externals.add(f"{module}.{klass.__qualname__}")
            if full:
                self._expand_class(klass, self.names | {"__init__", "__new__"})
                # Replaying a name the ctor names already covered is
                # harmless: ``_enqueue`` dedups by object identity.
                self._expanded.setdefault(
                    id(klass), (klass, len(self._name_log))
                )
            else:
                # Referrer-filtered: the cone covers instantiating the
                # class plus whatever the referring constructor itself
                # loads; methods invoked anywhere else only matter once
                # an instance is reachable (which upgrades to full).
                self._expand_class(
                    klass, set(ref_loads or ()) | {"__init__", "__new__"}
                )

    def _expand_class(self, klass: type, names: set[str]) -> None:
        for attr, value in vars(klass).items():
            if attr in names:
                self._enqueue(value, getattr(klass, "__module__", None))

    def _visit_instance(self, obj: Any, src: str | None) -> None:
        if not self._inert.reaches_code(obj):
            return
        self._enqueue(type(obj), src)
        self._expanded[id(obj)] = (obj, len(self._name_log))
        self._expand_attrs(obj, self.names)

    def _expand_attrs(self, obj: Any, names: set[str]) -> None:
        if isinstance(obj, type):
            self._expand_class(obj, names)
            return
        src = getattr(type(obj), "__module__", None)
        for attr, value in self._attr_items(obj):
            if attr in names:
                self._enqueue(value, src)


# -- per-program analysis ------------------------------------------------------


@dataclass
class ObligationDeps:
    """One planned obligation plus its walked cone."""

    name: str
    category: str
    cone: DependencyCone


@dataclass
class DependencyAnalysis:
    """The full fcsl-deps result for one program."""

    program: str
    obligations: list[ObligationDeps]
    #: Shared definition digests: ``module -> index`` (``None`` when the
    #: module's source could not be indexed).
    indexes: dict[str, DefIndex | None]
    #: Obligation names colliding within the program (FCSL065): the
    #: engine must fall back to whole-program verification.
    duplicates: tuple[str, ...] = ()
    #: True when obligation collection itself failed (FCSL066).
    collection_failed: bool = False
    #: The setup cone every obligation's cone includes.
    setup: DependencyCone | None = field(default=None, repr=False)
    #: The setup's protocol closures, in call order
    #: (:class:`~repro.core.verify.ClosurePlan`).
    closures: list = field(default_factory=list, repr=False)
    #: The walk caches the obligation cones shared, for the closure
    #: cones (they pin what they cache, and die with the analysis).
    _caches: tuple = field(default=(), repr=False)

    @property
    def usable(self) -> bool:
        """Whether per-obligation keys are meaningful for this program."""
        return not self.collection_failed and not self.duplicates

    def definition_digest(self, defn: Definition) -> str | None:
        index = self.indexes.get(defn.module)
        if index is None:
            return None
        return index.digests.get(defn.name)

    def closure_cones(self) -> list[DependencyCone]:
        """One cone per setup protocol closure, in call order: what
        ``protocol_closure(conc, initials, max_states=...)`` can reach on
        the current code, walked like an obligation's closure and unioned
        with the setup cone (which built ``conc`` and ``initials``).  A
        closure snapshot is keyed by it (:func:`repro.engine.depgraph.
        closure_keys`) as an obligation's verdict is keyed by its cone."""
        from ..core import concurroid

        attrs, inert = self._caches or ({}, _InertCache())
        cones: list[DependencyCone] = []
        for ordinal, plan in enumerate(self.closures):
            cone = DependencyCone(obligation=f"<closure {ordinal}>", category="")
            _ConeWalker(cone, self.indexes, attr_cache=attrs, inert=inert).run(
                concurroid.protocol_closure, plan.conc, plan.initials, plan.max_states
            )
            if self.setup is None:
                cone.coarse = True
            else:
                _union_setup(cone, self.setup)
            cones.append(cone)
        return cones

    def cone_of(self, obligation: str) -> DependencyCone | None:
        for dep in self.obligations:
            if dep.name == obligation:
                return dep.cone
        return None

    def definitions_tracked(self) -> set[Definition]:
        out: set[Definition] = set()
        for dep in self.obligations:
            out.update(dep.cone.definitions)
        return out

    def affected_by(self, module: str, name: str) -> set[str]:
        """Obligation names whose cone contains the given definition
        (module edges and coarse cones count as containing everything in
        their module / the program)."""
        hit: set[str] = set()
        for dep in self.obligations:
            if dep.cone.coarse:
                hit.add(dep.name)
                continue
            for defn in dep.cone.definitions:
                if defn.module != module:
                    continue
                if defn.name == name or defn.name == WHOLE_MODULE:
                    hit.add(dep.name)
                    break
        return hit

    def module_cycles(self) -> list[tuple[str, ...]]:
        """Cycles in the union module-edge graph (Tarjan SCCs > 1)."""
        edges: dict[str, set[str]] = {}
        for dep in self.obligations:
            for a, b in dep.cone.module_edges:
                edges.setdefault(a, set()).add(b)
                edges.setdefault(b, set())
        index: dict[str, int] = {}
        low: dict[str, int] = {}
        on_stack: set[str] = set()
        stack: list[str] = []
        cycles: list[tuple[str, ...]] = []
        counter = [0]

        def strongconnect(v: str) -> None:
            index[v] = low[v] = counter[0]
            counter[0] += 1
            stack.append(v)
            on_stack.add(v)
            for w in sorted(edges.get(v, ())):
                if w not in index:
                    strongconnect(w)
                    low[v] = min(low[v], low[w])
                elif w in on_stack:
                    low[v] = min(low[v], index[w])
            if low[v] == index[v]:
                scc = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    scc.append(w)
                    if w == v:
                        break
                if len(scc) > 1:
                    cycles.append(tuple(sorted(scc)))

        for v in sorted(edges):
            if v not in index:
                strongconnect(v)
        return cycles

    def diagnostics(self) -> list[Diagnostic]:
        out: list[Diagnostic] = []
        if self.collection_failed:
            out.append(
                diag(
                    "FCSL066",
                    "obligation collection failed; every obligation keys on "
                    "the whole-program fingerprint",
                    subject=self.program,
                )
            )
            return out
        for name in self.duplicates:
            out.append(
                diag(
                    "FCSL065",
                    f"obligation name {name!r} is used more than once; "
                    "per-obligation fingerprints collide",
                    subject=self.program,
                    obj=name,
                )
            )
        seen_globals: set[str] = set()
        seen_externals: set[str] = set()
        seen_dynamic: set[str] = set()
        total = self.definitions_tracked()
        for dep in self.obligations:
            cone = dep.cone
            if cone.coarse:
                out.append(
                    diag(
                        "FCSL066",
                        "dependency walk exhausted its budget; this "
                        "obligation keys on the whole-program fingerprint",
                        subject=self.program,
                        obj=dep.name,
                    )
                )
            for key in sorted(cone.mutable_globals - seen_globals):
                seen_globals.add(key)
                out.append(
                    diag(
                        "FCSL060",
                        f"obligation {dep.name!r} reads mutable module "
                        f"global {key}; edits to its contents are invisible "
                        "to content fingerprints",
                        subject=self.program,
                        obj=key,
                    )
                )
            for key in sorted(cone.externals - seen_externals):
                seen_externals.add(key)
                out.append(
                    diag(
                        "FCSL061",
                        f"obligation {dep.name!r} reaches {key}, outside "
                        "the repro package; its source is not fingerprinted",
                        subject=self.program,
                        obj=key,
                    )
                )
            for note in sorted(cone.dynamic - seen_dynamic):
                seen_dynamic.add(note)
                out.append(
                    diag(
                        "FCSL062",
                        f"conservative whole-module edge: {note}",
                        subject=self.program,
                        obj=note,
                    )
                )
            if (
                total
                and len(self.obligations) > 1
                and not cone.coarse
                and cone.definitions >= total
            ):
                out.append(
                    diag(
                        "FCSL064",
                        f"obligation {dep.name!r} depends on every tracked "
                        f"definition ({len(total)}); incremental "
                        "re-verification cannot skip it",
                        subject=self.program,
                        obj=dep.name,
                    )
                )
        for cycle in self.module_cycles():
            out.append(
                diag(
                    "FCSL063",
                    "module dependency cycle: " + " <-> ".join(cycle),
                    subject=self.program,
                    obj=cycle[0],
                )
            )
        return out


def _union_setup(cone: DependencyCone, setup: DependencyCone) -> None:
    cone.definitions.update(setup.definitions)
    cone.externals.update(setup.externals)
    cone.mutable_globals.update(setup.mutable_globals)
    cone.dynamic.update(setup.dynamic)
    cone.module_edges.update(setup.module_edges)
    cone.coarse = cone.coarse or setup.coarse


def analyze_obligations(info, plan=None, closures=None) -> DependencyAnalysis:
    """Collect ``info``'s obligation plan (without executing it) and walk
    every obligation's dependency cone.

    ``info`` is a :class:`~repro.structures.registry.ProgramInfo`.  A
    caller that already holds the program's :class:`ObligationPlan` list
    (the engine's collect-while-verifying work units) passes it as
    ``plan``, and the setup's :class:`~repro.core.verify.ClosurePlan`
    list the same run collected as ``closures``, and skips the
    collection run entirely.  Any failure is
    *contained*: collection trouble yields an analysis marked unusable,
    walk trouble yields a coarse cone — callers fall back to
    whole-program fingerprints, never crash a sweep.
    """
    from ..core.verify import collecting_obligations

    indexes: dict[str, DefIndex | None] = {}
    for module in info.modules:
        try:
            indexes[module] = DefIndex.for_module(module)
        except Exception:  # noqa: BLE001
            indexes[module] = None
    if plan is None:
        try:
            with collecting_obligations() as collector:
                info.run_verifier()
            plan = list(collector)
            closures = collector.closures
        except Exception:  # noqa: BLE001 - collection must not crash callers
            return DependencyAnalysis(
                info.name, [], indexes, collection_failed=True
            )
    else:
        plan = list(plan)

    names = [item.name for item in plan]
    duplicates = tuple(sorted({n for n in names if names.count(n) > 1}))

    # The setup cone: everything the verifier entry point (and the
    # factories it statically calls) can *execute while building* the
    # obligations.  The captured objects an obligation closes over were
    # built by this code, so an edit to it can change any verdict — it
    # is unioned into every obligation.  The walk runs in setup mode
    # (see :class:`_ConeWalker`): framework code is not traversed, so
    # the cone stays at factories/constructors/residues instead of
    # flooding to every method of every reached class.
    attrs: dict[int, tuple[Any, tuple[tuple[str, Any], ...]]] = {}
    inert = _InertCache()
    setup = DependencyCone(obligation="<setup>", category="")
    _ConeWalker(setup, indexes, setup=True, attr_cache=attrs, inert=inert).run(
        info.verifier, dict(info.verifier_kwargs)
    )

    obligations: list[ObligationDeps] = []
    for item in plan:
        cone = DependencyCone(obligation=item.name, category=item.category)
        _ConeWalker(cone, indexes, attr_cache=attrs, inert=inert).run(item.fn)
        _union_setup(cone, setup)
        obligations.append(ObligationDeps(item.name, item.category, cone))
    return DependencyAnalysis(
        info.name,
        obligations,
        indexes,
        duplicates,
        setup=setup,
        closures=list(closures or ()),
        _caches=(attrs, inert),
    )


def deps_registry(names: Iterable[str] | None = None) -> list[Diagnostic]:
    """Dependency-hygiene diagnostics for the registry (``repro deps``)."""
    from ..structures.registry import all_programs, registry_programs

    if names is None:
        programs = all_programs()
    else:
        known = {info.name: info for info in registry_programs()}
        unknown = sorted(set(names) - set(known))
        if unknown:
            raise KeyError(
                f"unknown registry program(s) {unknown}; "
                f"known: {sorted(known)}"
            )
        programs = tuple(known[n] for n in names)
    out: list[Diagnostic] = []
    for info in programs:
        out.extend(analyze_obligations(info).diagnostics())
    return out
