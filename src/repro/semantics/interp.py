"""Small-step interleaving interpreter with subjective auxiliary state.

This is the executable counterpart of FCSL's denotational semantics of
action trees (§5.1): a configuration holds a *thread soup*, the shared
``joint`` state per label, and — the distinctive part — a PCM-valued
``self`` contribution **per thread per label**, plus a ghost *environment*
contribution.  A thread's subjective view of label ``l`` is::

    [ self_t(l)  |  joint(l)  |  env(l) • (•_{u ≠ t} self_u(l)) ]

which is exactly the paper's subjective dichotomy made operational: the
``other`` component of one thread is the join of everybody else's ``self``.
Forking starts children with unit contributions; joining folds the
children's contributions back into the parent (the PCM realignment that
fork-join closure licenses).

Scheduling-visible steps are atomic-action invocations and environment
interference steps; everything else (``ret``/``bind`` plumbing, ``Call``
expansion, forks, joins, ``hide`` installation) is *administrative* and
runs eagerly, so the interleaving semantics has exactly the granularity of
atomic actions — the granularity at which FCSL's proof rules reason.
"""

from __future__ import annotations

import types
from typing import Any, Callable, Hashable, Iterator

from ..core.concurroid import Concurroid
from ..core.errors import CoherenceViolation, CrashError, ProgramError
from ..core.prog import ActCall, Bind, Call, HideProg, Par, Prog, Ret
from ..core.state import State, SubjState
from ..core.world import World
from ..heap import Heap
from .trace import Event, Trace

#: Bound on consecutive administrative reductions, guarding against
#: programs that diverge without ever performing an action.
MAX_ADMIN_STEPS = 100_000


def fingerprint(obj: Any, _seen: frozenset = frozenset(), _unstable: list | None = None) -> Hashable:
    """A structural fingerprint for program positions.

    Continuations are Python closures, so object identity cannot detect
    that two configurations sit at the same logical program point (each
    loop iteration rebuilds the closures).  A closure's behaviour is fully
    determined by its code object and its captured cells (our programs do
    not mutate globals), so fingerprinting ``(code, cells...)`` recursively
    gives a sound equality: equal fingerprints ⟹ identical behaviour.
    Self-referential closures (``ffix``'s recursive knot) are cut with a
    cycle marker.  Unrecognised/unhashable values fall back to ``id`` —
    weaker (fewer merges) but still sound, provided the caller keeps the
    fingerprinted configuration alive (so ids are not recycled).

    A closure cell that is still empty fingerprints as a marker, and the
    cell may be bound later; when ``_unstable`` is given, such a cell
    appends to it, telling the caller not to cache this fingerprint."""
    if obj is None or isinstance(obj, (int, str, bool, float, bytes)):
        return obj
    if isinstance(obj, tuple):
        return tuple(fingerprint(x, _seen, _unstable) for x in obj)
    if not isinstance(obj, _NESTING):
        return _leaf(obj)  # nothing below it, so it closes no cycle
    if id(obj) in _seen:
        return ("cycle",)
    _seen = _seen | {id(obj)}
    if isinstance(obj, Ret):
        return ("Ret", fingerprint(obj.value, _seen, _unstable))
    if isinstance(obj, Bind):
        return (
            "Bind",
            fingerprint(obj.first, _seen, _unstable),
            fingerprint(obj.cont, _seen, _unstable),
        )
    if isinstance(obj, ActCall):
        return ("Act", id(obj.action), fingerprint(obj.args, _seen, _unstable))
    if isinstance(obj, Par):
        return (
            "Par",
            fingerprint(obj.left, _seen, _unstable),
            fingerprint(obj.right, _seen, _unstable),
        )
    if isinstance(obj, Call):
        return (
            "Call",
            fingerprint(obj.fn, _seen, _unstable),
            fingerprint(obj.args, _seen, _unstable),
        )
    if isinstance(obj, HideProg):
        return (
            "Hide",
            id(obj.concurroid),
            fingerprint(obj.donate, _seen, _unstable),
            tuple(
                sorted(
                    (k, fingerprint(v, _seen, _unstable))
                    for k, v in obj.initial_selfs.items()
                )
            ),
            fingerprint(obj.body, _seen, _unstable),
            obj.priv_label,
        )
    if isinstance(obj, _UnhideKont):
        return (
            "Unhide",
            id(obj.concurroid),
            obj.priv_label,
            fingerprint(obj.reclaim, _seen, _unstable),
        )
    if isinstance(obj, types.MethodType):
        return ("method", id(obj.__func__.__code__), id(obj.__self__))
    if isinstance(obj, types.FunctionType):
        cells = []
        if obj.__closure__:
            for c in obj.__closure__:
                try:
                    cells.append(fingerprint(c.cell_contents, _seen, _unstable))
                except ValueError:  # empty cell (not yet bound)
                    cells.append(("empty-cell",))
                    if _unstable is not None:
                        _unstable.append(obj)
        return ("fn", id(obj.__code__), tuple(cells))
    return _leaf(obj)  # a Prog node of another kind


def _leaf(obj: Any) -> Hashable:
    if isinstance(obj, types.BuiltinFunctionType):
        return ("builtin", id(obj))
    try:
        hash(obj)
        return obj
    except TypeError:
        return ("id", id(obj))


def _sort_key(fp: Hashable) -> tuple:
    """A *type-tagged* total order over fingerprints.

    Sets and dicts are fingerprinted in sorted element order; sorting by
    ``repr()`` of the nested fingerprints (the historical keying) is
    unsound twice over: distinct fingerprints can share a ``repr`` (so
    the resulting order — and hence the fingerprint — depends on
    insertion order or on comparing unorderable tie-breakers), and a
    heterogeneous tie-breaker comparison raises ``TypeError`` outright
    (two same-class default-``repr`` dict keys with an ``int`` and a
    ``tuple`` value).  Tagging every leaf with its type name and
    recursing structurally through tuples yields a deterministic total
    order in which distinct leaf fingerprints never compare equal:
    leaves are primitives (or type-qualified reprs), where ``(type name,
    repr)`` is faithful.
    """
    if isinstance(fp, tuple):
        return ("tuple", tuple(_sort_key(x) for x in fp))
    return (type(fp).__name__, repr(fp))


def stable_fingerprint(obj: Any, _seen: frozenset = frozenset()) -> Hashable:
    """A *process-stable* structural fingerprint.

    :func:`fingerprint` (and hence :meth:`Config.position_key`) trades
    stability for discrimination: unrecognised objects fall back to
    ``id()``, which is only meaningful while the fingerprinted object is
    alive **in this process**.  That is exactly right for the explorer's
    in-memory memo table and exactly wrong for anything persisted or
    compared across processes — cache metadata, worker round-trips,
    content-addressed keys.

    This variant never embeds an ``id``: containers are fingerprinted
    structurally (sets and dicts in sorted order), functions by module and
    qualified name plus captured cells, and everything else by its type
    and ``repr`` (with default ``object.__repr__`` addresses reduced to
    the type name).  Equal values in different processes therefore
    produce equal fingerprints.  The price is coarser discrimination than
    :func:`fingerprint` — never use it for the explorer's memoization.
    """
    if obj is None or isinstance(obj, (int, str, bool, float, bytes)):
        return obj
    if id(obj) in _seen:
        return ("cycle",)
    _seen = _seen | {id(obj)}
    if isinstance(obj, (tuple, list)):
        return (
            type(obj).__name__,
            tuple(stable_fingerprint(x, _seen) for x in obj),
        )
    if isinstance(obj, (set, frozenset)):
        return (
            "set",
            tuple(
                sorted(
                    (stable_fingerprint(x, _seen) for x in obj), key=_sort_key
                )
            ),
        )
    if isinstance(obj, dict):
        return (
            "dict",
            tuple(
                sorted(
                    (
                        (stable_fingerprint(k, _seen), stable_fingerprint(v, _seen))
                        for k, v in obj.items()
                    ),
                    key=lambda kv: (_sort_key(kv[0]), _sort_key(kv[1])),
                )
            ),
        )
    if isinstance(obj, Ret):
        return ("Ret", stable_fingerprint(obj.value, _seen))
    if isinstance(obj, Bind):
        return (
            "Bind",
            stable_fingerprint(obj.first, _seen),
            stable_fingerprint(obj.cont, _seen),
        )
    if isinstance(obj, ActCall):
        return (
            "Act",
            stable_fingerprint(obj.action, _seen),
            stable_fingerprint(obj.args, _seen),
        )
    if isinstance(obj, Par):
        return (
            "Par",
            stable_fingerprint(obj.left, _seen),
            stable_fingerprint(obj.right, _seen),
        )
    if isinstance(obj, Call):
        return (
            "Call",
            stable_fingerprint(obj.fn, _seen),
            stable_fingerprint(obj.args, _seen),
        )
    if isinstance(obj, types.MethodType):
        return (
            "method",
            obj.__func__.__module__,
            obj.__func__.__qualname__,
            stable_fingerprint(obj.__self__, _seen),
        )
    if isinstance(obj, types.FunctionType):
        cells = []
        if obj.__closure__:
            for c in obj.__closure__:
                try:
                    cells.append(stable_fingerprint(c.cell_contents, _seen))
                except ValueError:  # empty cell (not yet bound)
                    cells.append(("empty-cell",))
        # Default arguments carry state exactly like closure cells do —
        # ``lambda action=action: ...`` is the obligation idiom — so two
        # same-shaped lambdas over different defaults must not collide.
        defaults = tuple(
            stable_fingerprint(d, _seen) for d in obj.__defaults__ or ()
        )
        kwdefaults = tuple(
            sorted(
                (k, stable_fingerprint(v, _seen))
                for k, v in (obj.__kwdefaults__ or {}).items()
            )
        )
        return (
            "fn",
            obj.__module__,
            obj.__qualname__,
            tuple(cells),
            defaults,
            kwdefaults,
        )
    if isinstance(obj, types.BuiltinFunctionType):
        return ("builtin", obj.__module__, obj.__qualname__)
    cls = type(obj)
    text = repr(obj)
    if " at 0x" in text:  # default object.__repr__ embeds an address
        text = f"<{cls.__module__}.{cls.__qualname__}>"
    return (cls.__module__, cls.__qualname__, text)


def stable_digest(obj: Any) -> str:
    """Hex SHA-256 of an object's :func:`stable_fingerprint` — a compact
    content address that is identical across processes and interpreter
    runs (used by the obligation cache to key verifier kwargs)."""
    import hashlib

    return hashlib.sha256(repr(stable_fingerprint(obj)).encode()).hexdigest()


class _UnhideKont:
    """Marker continuation delimiting a ``hide`` scope on the kont stack."""

    __slots__ = ("concurroid", "priv_label", "reclaim")

    def __init__(self, concurroid: Concurroid, priv_label: str, reclaim: Callable[[Any], Heap] | None):
        self.concurroid = concurroid
        self.priv_label = priv_label
        self.reclaim = reclaim


#: The values :func:`fingerprint` descends into; everything else is a leaf.
_NESTING = (Prog, _UnhideKont, types.MethodType, types.FunctionType)


class ThreadCtx:
    """One thread: its remaining program, continuations and contributions.

    ``konts`` is an immutable stack (a tuple), so clones share it; the
    prefix ``kfps`` holds the fingerprints of ``konts[:len(kfps)]``, each
    computed once and shared with every clone.  ``record`` caches the
    thread's :meth:`position_record`; whatever changes the thread clears it.
    """

    __slots__ = (
        "tid", "current", "konts", "kfps", "selfs", "visible", "parent",
        "children", "results", "done", "result", "record",
    )

    def __init__(self, tid: int, prog: Prog | None, selfs: dict[str, Any], visible: set[str], parent: int | None):
        self.tid = tid
        self.current: Prog | None = prog
        self.konts: tuple[Any, ...] = ()
        self.kfps: tuple[Hashable, ...] = ()
        self.selfs = selfs
        self.visible = visible
        self.parent = parent
        self.children: tuple[int, int] | None = None
        self.results: dict[int, Any] = {}
        self.done = False
        self.result: Any = None
        self.record: tuple | None = None

    def clone(self) -> "ThreadCtx":
        out = ThreadCtx(self.tid, self.current, dict(self.selfs), set(self.visible), self.parent)
        out.konts = self.konts
        out.kfps = self.kfps
        out.children = self.children
        out.results = dict(self.results)
        out.done = self.done
        out.result = self.result
        out.record = self.record
        return out

    def push(self, kont: Any) -> None:
        self.konts += (kont,)

    def pop(self) -> Any:
        kont = self.konts[-1]
        self.konts = self.konts[:-1]
        if len(self.kfps) > len(self.konts):
            self.kfps = self.kfps[:-1]
        return kont

    def position_record(self, table: dict[Any, Any] | None = None) -> tuple:
        """This thread's part of :meth:`Config.position_key`: its id, its
        fingerprinted program position and continuation stack, its
        contributions, visible labels and fork-join bookkeeping.

        Built once and cached until the thread changes; only the
        continuations pushed since the last build are fingerprinted.  A
        record whose fingerprints saw an empty closure cell is rebuilt on
        every call, and such a continuation is never cached in ``kfps``.
        ``table`` (the explorer's hash-consing table) canonicalizes each
        section and the record itself; the canonical record is what the
        thread caches."""
        record = self.record
        if record is not None:
            return record
        unstable: list[Any] = []
        fps = self.kfps
        for kont in self.konts[len(fps):]:
            fps += (fingerprint(kont, _unstable=unstable),)
            if not unstable:
                self.kfps = fps
        record = (
            self.tid,
            fingerprint(self.current, _unstable=unstable),
            fps,
            tuple(sorted(self.selfs.items())),
            tuple(sorted(self.visible)),
            self.parent,
            self.children,
            tuple(sorted(self.results.items())),
            self.done,
            fingerprint(self.result, _unstable=unstable),
        )
        if table is not None:
            record = tuple(map(table.setdefault, record, record))
            record = table.setdefault(record, record)
            if self.kfps is fps:
                self.kfps = record[2]
        if not unstable:
            self.record = record
        return record

    @property
    def at_action(self) -> bool:
        return isinstance(self.current, ActCall)

    def __repr__(self) -> str:
        status = "done" if self.done else repr(self.current)
        return f"<t{self.tid} {status}>"


class Config:
    """A whole-machine configuration: world + shared state + thread soup."""

    def __init__(self, world: World, joints: dict[str, Any], env_selfs: dict[str, Any], root_prog: Prog, root_selfs: dict[str, Any]):
        self.world = world
        self.joints = joints
        self.env_selfs = env_selfs
        visible = set(joints)
        self.threads: dict[int, ThreadCtx] = {0: ThreadCtx(0, root_prog, dict(root_selfs), visible, None)}
        self.next_tid = 1
        self.trace = Trace()
        self.steps = 0
        #: Whether :func:`_check_coherence` passed on the current global
        #: snapshot (and world).  Only ``_exit_hide`` moves the snapshot
        #: without a check; an action that moves nothing re-checks only
        #: when this is False.
        self.checked = False

    @classmethod
    def _blank(cls) -> "Config":
        return cls.__new__(cls)

    def clone(self) -> "Config":
        out = Config._blank()
        out.world = self.world
        out.joints = dict(self.joints)
        out.env_selfs = dict(self.env_selfs)
        out.threads = {tid: th.clone() for tid, th in self.threads.items()}
        out.next_tid = self.next_tid
        out.trace = self.trace
        out.steps = self.steps
        out.checked = self.checked
        return out

    # -- subjective views -------------------------------------------------------

    def view_for(self, tid: int) -> State:
        """The subjective state of thread ``tid`` over its visible labels."""
        me = self.threads[tid]
        parts: dict[str, SubjState] = {}
        for label in me.visible:
            pcm = self.world.pcm_of(label)
            other = self.env_selfs[label]
            for uid, th in self.threads.items():
                if uid != tid and label in th.selfs:
                    other = pcm.join(other, th.selfs[label])
            parts[label] = SubjState(me.selfs.get(label, pcm.unit), self.joints[label], other)
        return State(parts)

    def env_view(self) -> State:
        """The environment ghost thread's subjective state (open labels)."""
        parts: dict[str, SubjState] = {}
        for label in self.joints:
            pcm = self.world.pcm_of(label)
            others = pcm.join_all(th.selfs[label] for th in self.threads.values() if label in th.selfs)
            parts[label] = SubjState(self.env_selfs[label], self.joints[label], others)
        return State(parts)

    def global_view(self) -> State:
        """The bird's-eye state: all contributions in ``self``, unit ``other``.

        Coherence of every installed concurroid is checked against this view
        after each scheduling-visible step.
        """
        parts: dict[str, SubjState] = {}
        for label in self.joints:
            pcm = self.world.pcm_of(label)
            total = self.env_selfs[label]
            for th in self.threads.values():
                if label in th.selfs:
                    total = pcm.join(total, th.selfs[label])
            parts[label] = SubjState(total, self.joints[label], pcm.unit)
        return State(parts)

    # -- status ------------------------------------------------------------------

    @property
    def done(self) -> bool:
        return self.threads[0].done

    @property
    def result(self) -> Any:
        return self.threads[0].result

    def runnable_threads(self) -> list[int]:
        return [tid for tid, th in self.threads.items() if th.at_action]

    def is_stuck(self) -> bool:
        return not self.done and not self.runnable_threads()

    def shared_signature(self) -> tuple:
        """A hashable digest of everything schedule-relevant except program
        counters: joints, environment contributions and thread selfs.

        Two configurations with equal signatures present identical shared
        state to every thread; the explorer uses this to prune *stutter*
        steps (a deterministic action that changed nothing and left its
        thread at the same action will change nothing again)."""
        return (
            tuple(sorted(self.joints.items())),
            tuple(sorted(self.env_selfs.items())),
            tuple(
                (tid, tuple(sorted(th.selfs.items())))
                for tid, th in sorted(self.threads.items())
            ),
        )

    def position_key(self, table: dict[Any, Any] | None = None) -> tuple:
        """A hashable digest of the *whole* configuration: shared state
        plus every thread's :meth:`~ThreadCtx.position_record` (program
        position with continuations fingerprinted structurally — see
        :func:`fingerprint`).  Two configurations with equal keys have
        identical future behaviour, so the explorer can memoize on it.
        The caller must keep a reference to the config alive while the
        key is stored (fingerprints may embed ``id``s of captured
        objects).  ``table`` hash-conses the key's sections (records,
        shared-state entries) so that stored keys share them."""
        joints = tuple(sorted(self.joints.items()))
        env_selfs = tuple(sorted(self.env_selfs.items()))
        threads = tuple(
            th.position_record(table) for __, th in sorted(self.threads.items())
        )
        if table is None:
            return (joints, env_selfs, threads)
        return (
            _intern_entries(joints, table),
            _intern_entries(env_selfs, table),
            table.setdefault(threads, threads),
        )

    def stable_digest(self) -> str:
        """A process-stable content digest of the whole configuration.

        Unlike :meth:`position_key`, whose fingerprints may embed ``id``s
        (valid only while this config is alive in this process), the
        digest is built from :func:`stable_fingerprint` and is safe to
        persist or compare across worker processes — the engine records
        it as cache metadata.  Coarser than ``position_key``: two configs
        with equal digests are structurally equal, but distinct action
        *instances* with equal reprs are not distinguished.
        """
        return stable_digest(
            (
                tuple(sorted(self.joints.items())),
                tuple(sorted(self.env_selfs.items())),
                tuple(
                    (
                        tid,
                        th.current,
                        tuple(th.konts),
                        tuple(sorted(th.selfs.items())),
                        tuple(sorted(th.visible)),
                        th.parent,
                        th.children,
                        tuple(sorted(th.results.items())),
                        th.done,
                        th.result,
                    )
                    for tid, th in sorted(self.threads.items())
                ),
            )
        )

    def pending_action(self, tid: int) -> tuple | None:
        """Identity of the action thread ``tid`` is about to run (or None)."""
        th = self.threads.get(tid)
        if th is None or not isinstance(th.current, ActCall):
            return None
        return (id(th.current.action), th.current.args)

    def pending_label(self, tid: int) -> tuple[str, tuple[str, ...]] | None:
        """Name and ``repr``'d arguments of thread ``tid``'s pending action
        (or None) — the process-stable identity witness replay matches
        forced steps against (:mod:`repro.obs.replay`)."""
        th = self.threads.get(tid)
        if th is None or not isinstance(th.current, ActCall):
            return None
        return (th.current.action.name, tuple(repr(a) for a in th.current.args))

    def _log(self, event: Event) -> None:
        self.trace = self.trace.append(event)

    def __repr__(self) -> str:
        return f"<Config steps={self.steps} threads={list(self.threads.values())!r}>"


def _intern_entries(entries: tuple, table: dict[Any, Any]) -> tuple:
    """The canonical copy of a sorted ``(label, value)`` tuple; the first
    time it is seen, its entries and their values are interned too."""
    canonical = table.get(entries)
    if canonical is None:
        pairs = [(label, table.setdefault(value, value)) for label, value in entries]
        canonical = tuple(map(table.setdefault, pairs, pairs))
        table[canonical] = canonical
    return canonical


# -- administrative normalization ---------------------------------------------------


def normalize(config: Config) -> Config:
    """Run administrative reductions to quiescence (mutates ``config``).

    Afterwards every live thread is either at an :class:`ActCall`, waiting
    on children, or done.
    """
    budget = MAX_ADMIN_STEPS
    progress = True
    while progress:
        progress = False
        for tid in sorted(config.threads):
            th = config.threads.get(tid)
            if th is None or th.done:
                continue
            while _admin_step(config, th):
                budget -= 1
                if budget <= 0:
                    raise ProgramError("administrative reduction diverged (missing action in a loop?)")
                progress = True
                if th.done or tid not in config.threads:
                    break
    return config


def _admin_step(config: Config, th: ThreadCtx) -> bool:
    """One administrative reduction of ``th``; False when none applies."""
    node = th.current
    if node is None:
        return False  # waiting on children
    if isinstance(node, ActCall):
        return False  # scheduling-visible
    th.record = None  # every reduction below changes the thread
    if isinstance(node, Call):
        th.current = node.expand()
        return True
    if isinstance(node, Bind):
        th.push(node.cont)
        th.current = node.first
        return True
    if isinstance(node, HideProg):
        _enter_hide(config, th, node)
        return True
    if isinstance(node, Par):
        _fork(config, th, node)
        return True
    if isinstance(node, Ret):
        if th.konts:
            kont = th.pop()
            if isinstance(kont, _UnhideKont):
                _exit_hide(config, th, kont, node.value)
                return True
            th.current = kont(node.value)
            return True
        _finish_thread(config, th, node.value)
        return True
    raise ProgramError(f"unknown program node {node!r}")


def _fork(config: Config, th: ThreadCtx, node: Par) -> None:
    """Spawn both branches with unit contributions (subjective split)."""
    left_tid, right_tid = config.next_tid, config.next_tid + 1
    config.next_tid += 2
    for tid, prog in ((left_tid, node.left), (right_tid, node.right)):
        child_selfs = {label: config.world.pcm_of(label).unit for label in th.visible}
        config.threads[tid] = ThreadCtx(tid, prog, child_selfs, set(th.visible), th.tid)
    th.children = (left_tid, right_tid)
    th.current = None
    config._log(Event("fork", th.tid, f"-> t{left_tid}, t{right_tid}"))


def _finish_thread(config: Config, th: ThreadCtx, value: Any) -> None:
    th.done = True
    th.result = value
    config._log(Event("done", th.tid, "", result=value))
    parent_tid = th.parent
    if parent_tid is None:
        return
    parent = config.threads[parent_tid]
    parent.record = None
    parent.results[th.tid] = value
    assert parent.children is not None
    left, right = parent.children
    if left in parent.results and right in parent.results:
        # Join: fold both children's contributions back into the parent.
        for child_tid in (left, right):
            child = config.threads.pop(child_tid)
            for label, contrib in child.selfs.items():
                pcm = config.world.pcm_of(label)
                parent.selfs[label] = pcm.join(parent.selfs.get(label, pcm.unit), contrib)
        pair = (parent.results[left], parent.results[right])
        parent.children = None
        parent.results = {}
        parent.current = Ret(pair)
        config._log(Event("join", parent_tid, f"t{left}, t{right}", result=pair))


def _enter_hide(config: Config, th: ThreadCtx, node: HideProg) -> None:
    """Install a scoped concurroid from the thread's private heap (§3.5)."""
    conc = node.concurroid
    for label in conc.labels:
        if label in config.joints:
            raise ProgramError(f"hide: label {label!r} already installed")
    priv = node.priv_label
    if priv not in th.selfs:
        raise ProgramError(f"hide: thread has no private component {priv!r}")
    self_heap = th.selfs[priv]
    if not isinstance(self_heap, Heap):
        raise ProgramError("hide: private self component is not a heap")
    parts, kept = node.donate(self_heap)
    if set(parts) != set(conc.labels):
        raise ProgramError("hide: decoration must cover exactly the hidden labels")
    donated_total = kept
    for joint in parts.values():
        if isinstance(joint, Heap):
            donated_total = donated_total.join(joint)
    if not donated_total.is_valid or donated_total != self_heap:
        raise ProgramError("hide: decoration must split the private heap")
    th.selfs[priv] = kept
    config.world = config.world.install(conc, closed=True)
    for label in conc.labels:
        config.joints[label] = parts[label]
        config.env_selfs[label] = config.world.pcm_of(label).unit
        th.selfs[label] = node.initial_selfs[label]
        th.visible.add(label)
    th.push(_UnhideKont(conc, priv, node.reclaim))
    th.current = node.body
    config._log(Event("hide", th.tid, "/".join(conc.labels)))
    _check_coherence(config)


def _exit_hide(config: Config, th: ThreadCtx, kont: _UnhideKont, value: Any) -> None:
    """Deinstall the scoped concurroid, reclaiming its heap (§3.5)."""
    conc = kont.concurroid
    joints: dict[str, Any] = {}
    for label in conc.labels:
        joints[label] = config.joints.pop(label)
        env_contrib = config.env_selfs.pop(label)
        pcm = config.world.pcm_of(label)
        if env_contrib != pcm.unit:
            raise CoherenceViolation(
                f"hide: environment interfered with hidden label {label!r}"
            )
        th.selfs.pop(label, None)
        th.visible.discard(label)
    config.world = config.world.uninstall(conc)
    if kont.reclaim:
        reclaimed = kont.reclaim(joints)
    else:
        reclaimed = Heap({})
        for joint in joints.values():
            if isinstance(joint, Heap):
                reclaimed = reclaimed.join(joint)
    if not isinstance(reclaimed, Heap):
        raise ProgramError("hide: reclaimed joint is not a heap")
    th.selfs[kont.priv_label] = th.selfs[kont.priv_label].join(reclaimed)
    if not th.selfs[kont.priv_label].is_valid:
        raise CoherenceViolation("hide: reclaimed heap overlaps the private heap")
    th.current = Ret(value)
    config.checked = False  # the next scheduling-visible step checks
    config._log(Event("unhide", th.tid, "/".join(conc.labels)))


# -- scheduling-visible steps --------------------------------------------------------


def do_action(config: Config, tid: int) -> Config:
    """Execute the pending atomic action of thread ``tid`` on a fresh config."""
    out = config.clone()
    th = out.threads[tid]
    node = th.current
    assert isinstance(node, ActCall)
    action = node.action
    view = out.view_for(tid)
    if not action.safe(view, *node.args):
        raise CrashError(
            f"action {action.name}{node.args!r} unsafe in thread t{tid} view {view!r}"
        )
    value, view2 = action.step(view, *node.args)
    moved = False
    for label in view2.labels():
        if view2.other_of(label) != view.other_of(label):
            raise CoherenceViolation(
                f"action {action.name} changed `other` at label {label!r}"
            )
        self_, joint = view2.self_of(label), view2.joint_of(label)
        if not moved:
            old_self, old_joint = view.self_of(label), view.joint_of(label)
            moved = (self_ is not old_self and self_ != old_self) or (
                joint is not old_joint and joint != old_joint
            )
        th.selfs[label] = self_
        out.joints[label] = joint
    th.current = Ret(value)
    th.record = None
    out.steps += 1
    out._log(Event("act", tid, action.name, node.args, value))
    if moved or not out.checked:
        _check_coherence(out)
    normalize(out)
    return out


def env_successors(config: Config) -> Iterator[Config]:
    """All configurations reachable by one environment interference step."""
    view = config.env_view()
    for conc in config.world.concurroids:
        if config.world.is_closed(conc):
            continue
        for t in conc.env_transitions():
            for param, succ in t.successors(view):
                out = config.clone()
                changed = False
                for label in succ.labels():
                    if succ.other_of(label) != view.other_of(label):
                        raise CoherenceViolation(
                            f"environment transition {t.name} changed thread contributions"
                        )
                    if (
                        succ.self_of(label) != view.self_of(label)
                        or succ.joint_of(label) != view.joint_of(label)
                    ):
                        changed = True
                    out.env_selfs[label] = succ.self_of(label)
                    out.joints[label] = succ.joint_of(label)
                if not changed:
                    continue  # idle interference is invisible
                out.steps += 1
                out._log(Event("env", -1, f"{t.name}({param!r})"))
                _check_coherence(out)
                yield out


def _check_coherence(config: Config) -> None:
    snapshot = config.global_view()
    for conc in config.world.concurroids:
        if not conc.coherent(snapshot):
            raise CoherenceViolation(
                f"{type(conc).__name__} incoherent after step: {snapshot!r}"
            )
    config.checked = True


# -- entry points ---------------------------------------------------------------------


def initial_config(
    world: World,
    init: State,
    prog: Prog,
) -> Config:
    """Build the starting configuration from the root thread's view.

    ``init`` is the root thread's subjective state: its ``self`` components
    become thread 0's contributions, the ``other`` components seed the
    environment ghost, and the ``joint`` components the shared state.
    """
    joints = {label: init.joint_of(label) for label in init}
    env_selfs = {label: init.other_of(label) for label in init}
    root_selfs = {label: init.self_of(label) for label in init}
    config = Config(world, joints, env_selfs, prog, root_selfs)
    _check_coherence(config)
    normalize(config)
    return config
