"""Concurroids: labelled state-transition systems for concurrent protocols.

§2.2.1/§3.3: a concurroid couples a *coherence predicate* (the state space)
with *transitions* (the admissible state changes).  Transitions describe
steps of the observing thread; environment steps are the same transitions
seen through transposition of ``self``/``other`` (the subjective flip).

A concurroid may own several labels (entanglement produces one that owns
the union, §4.1), so coherence and transitions act on whole
:class:`~repro.core.state.State` values but only inspect their own labels.

The metatheory side conditions the Coq development proves per concurroid
([37, §4]) are *checked* here by :func:`check_concurroid` over a finite
state family: transition preservation of coherence / ``other`` / heap
footprint, and the fork-join closure of the state space.
"""

from __future__ import annotations

import pickle
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from ..heap import EMPTY, Heap
from ..obs import tracer as obs_tracer
from ..pcm.base import PCM
from .errors import MetatheoryViolation
from .state import Delta, State, SubjState, component_repr, components_at, record, repr_of


@dataclass(frozen=True)
class Transition:
    """A named, parametrized transition of a concurroid.

    ``requires`` is the transition's guard, ``effect`` its state change
    (both over full states), and ``params`` enumerates candidate parameters
    for a given state — the finite-model substitute for the relational
    definition in Coq.  The identity transition ``idle`` is implicit:
    every concurroid has it.
    """

    name: str
    requires: Callable[[State, Any], bool]
    effect: Callable[[State, Any], State]
    params: Callable[[State], Iterable[Any]] = field(default=lambda __: (None,))

    def enabled_params(self, state: State) -> Iterator[Any]:
        for p in self.params(state):
            if self.requires(state, p):
                yield p

    def successors(self, state: State) -> Iterator[tuple[Any, State]]:
        for p in self.enabled_params(state):
            yield p, self.effect(state, p)

    def targets(self, state: State) -> Iterator[State]:
        """The states one step of this transition reaches from ``state``:
        :meth:`successors` without the parameters, making the same calls
        in the same order."""
        requires, effect = self.requires, self.effect
        for p in self.params(state):
            if requires(state, p):
                yield effect(state, p)

    def __repr__(self) -> str:
        return f"<Transition {self.name}>"


class Concurroid(ABC):
    """Abstract concurroid: labels + coherence + transitions.

    Subclasses define the protocol of one shared resource (``SpanTree``,
    ``CLock``, ``Treiber``, ...); :class:`~repro.core.entangle.Entangled`
    composes them.
    """

    @property
    @abstractmethod
    def labels(self) -> tuple[str, ...]:
        """The labels this concurroid owns within a state."""

    @abstractmethod
    def coherent(self, state: State) -> bool:
        """The coherence predicate over this concurroid's labels."""

    @abstractmethod
    def transitions(self) -> Sequence[Transition]:
        """The non-idle transitions (observing-thread steps)."""

    def pcms(self) -> Mapping[str, PCM]:
        """The PCM governing ``self``/``other`` at each owned label.

        Needed for fork-join closure checking and for forking threads
        (children start with unit contributions).  Default: empty, meaning
        the metatheory checker skips PCM-dependent checks.
        """
        return {}

    # -- derived machinery -------------------------------------------------------

    @property
    def label(self) -> str:
        """The unique label of a single-label concurroid."""
        labels = self.labels
        if len(labels) != 1:
            raise ValueError(f"{self!r} owns multiple labels: {labels}")
        return labels[0]

    def env_transitions(self) -> Sequence[Transition]:
        """The transitions interfering threads may take.

        Defaults to all of :meth:`transitions`.  ``Priv`` narrows this to
        in-place writes: environment allocation in *its own* private heap
        cannot affect any assertion here but would grow the model without
        bound.
        """
        return self.transitions()

    def step_sources(self) -> tuple[Callable[[State], Iterable[State]], ...]:
        """The successor sources of the observing thread's steps: one
        function per transition, from a state to the states that
        transition reaches.  Their outputs, concatenated in order, are
        every transition step from the state."""
        return tuple(t.targets for t in self.transitions())

    def env_sources(self) -> tuple[Callable[[State], Iterable[State]], ...]:
        """The successor sources of environment steps: functions whose
        outputs, concatenated in order, are :meth:`env_moves`.

        :func:`protocol_closure` runs each source once per distinct tuple
        of the components it reads, so a composite that splits its
        environment into sources that read few labels
        (:class:`~repro.core.entangle.Entangled`) makes the closure
        cheaper."""
        return (self.env_moves,)

    def env_moves(self, state: State) -> Iterator[State]:
        """States reachable by one *environment* step.

        An environment step is a transition taken by an interfering thread:
        transpose to its point of view, step, transpose back (§2.2.1's
        subjective dichotomy).  Only this concurroid's labels are flipped.
        """
        flipped = self._transpose_own(state)
        for t in self.env_transitions():
            for succ in t.targets(flipped):
                yield self._transpose_own(succ)

    def _transpose_own(self, state: State) -> State:
        out = state
        for lbl in self.labels:
            if lbl in state:
                out = out.set(lbl, out[lbl].transpose())
        return out

    def real_heap(self, state: State) -> Heap:
        """The physical (erased) heap this concurroid contributes.

        Default: every owned label's ``joint`` that is a heap.  ``Priv``
        overrides this to also count the private self/other heaps.
        """
        acc = EMPTY
        for lbl in self.labels:
            joint = state.joint_of(lbl)
            if isinstance(joint, Heap):
                acc = acc.join(joint)
        return acc

    #: Whether transitions must preserve the joint heap footprint
    #: (true for all primitive concurroids in the paper; heap transfer
    #: happens only through entanglement connectors, §3.3/§4.1).
    preserves_footprint: bool = True

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {'/'.join(self.labels)}>"


# -- metatheory checking ---------------------------------------------------------


@dataclass(frozen=True)
class MetatheoryIssue:
    """One failed metatheory side condition, with a concrete witness."""

    concurroid: str
    condition: str
    transition: str
    witness: str

    def __str__(self) -> str:
        where = f" in {self.transition}" if self.transition else ""
        return f"{self.concurroid}: {self.condition}{where}: {self.witness}"


def check_concurroid(
    conc: Concurroid,
    states: Iterable[State],
    *,
    max_issues: int = 10,
) -> list[MetatheoryIssue]:
    """Check the FCSL metatheory side conditions over a finite state family.

    For every coherent state and enabled transition the checker verifies:

    * **coherence preservation** — the post-state is coherent;
    * **other preservation** — ``other`` is unchanged at every owned label;
    * **footprint preservation** — heap-valued joints keep their domain
      (when ``conc.preserves_footprint``);

    and for every coherent state, **fork-join closure** — realigning
    ``self``/``other`` (moving a PCM summand across the subjective split)
    stays coherent.  Coherence and a state's distinct step targets are
    read off the state graph (see :func:`state_graph`); the transitions
    are enumerated again only at a state where some target fails.
    """
    issues: list[MetatheoryIssue] = []
    name = type(conc).__name__
    graph = state_graph(conc, states)
    pcms = tuple(conc.pcms().items())

    def report(condition: str, transition: str, witness: str) -> bool:
        issues.append(MetatheoryIssue(name, condition, transition, witness))
        return len(issues) >= max_issues

    # One context-var read per call; the span below is emitted at the end.
    tr = obs_tracer.current()
    started = time.perf_counter() if tr is not None else 0.0
    counts = dict(graph.memo_counts) if tr is not None else {}
    masks = len(graph.framing_masks)
    reenumerated = 0
    try:
        for s in graph.states:
            if not graph.coherent(s):
                continue
            if not _steps_preserve(conc, graph, s):
                reenumerated += 1
                for issue in _step_issues(conc, graph, s):
                    if report(*issue):
                        return issues
            for issue_witness in _fork_join_counterexamples(s, graph, pcms):
                if report("fork-join-closure", "", issue_witness):
                    return issues
        return issues
    finally:
        if tr is not None:
            tr.span(
                "check_concurroid",
                "core",
                started * 1e6,
                time.perf_counter() * 1e6,
                concurroid=name,
                states=len(graph.states),
                reenumerated=reenumerated,
                framing_masks=len(graph.framing_masks) - masks,
                **graph.memo_counts_since(counts),
            )


def _steps_preserve(conc: Concurroid, graph: "ProtocolGraph", s: State) -> bool:
    """Whether every transition step from ``s`` preserves coherence,
    ``other`` and the joint footprint.  Each of the three depends only on
    the pair ``(s, s2)``, so the distinct targets in the graph decide it.
    Any exception answers False: the caller's enumeration then raises or
    reports exactly where a step-by-step check would."""
    try:
        for s2 in graph.successors(s):
            if not graph.coherent(s2):
                return False
            for lbl in conc.labels:
                if lbl in s and s2.other_of(lbl) != s.other_of(lbl):
                    return False
            if conc.preserves_footprint and not _footprint_preserved(conc, s, s2):
                return False
    except Exception:  # noqa: BLE001 - re-enumerated by the caller
        return False
    return True


def _step_issues(
    conc: Concurroid, graph: "ProtocolGraph", s: State
) -> Iterator[tuple[str, str, str]]:
    """``(condition, transition, witness)`` per failed step obligation
    at ``s``, enumerating the transitions themselves for the witnesses'
    transition names and parameters."""
    for t in conc.transitions():
        for p, s2 in t.successors(s):
            if not graph.coherent(s2):
                yield "coherence-preservation", t.name, f"{s!r} --{p!r}--> {s2!r}"
            for lbl in conc.labels:
                if lbl in s and s2.other_of(lbl) != s.other_of(lbl):
                    yield "other-preservation", t.name, f"label {lbl} at {s!r}"
            if conc.preserves_footprint and not _footprint_preserved(conc, s, s2):
                yield "footprint-preservation", t.name, f"{s!r} --{p!r}--> {s2!r}"


def _footprint_preserved(conc: Concurroid, s: State, s2: State) -> bool:
    for lbl in conc.labels:
        if lbl not in s or lbl not in s2:
            continue
        j1, j2 = s.joint_of(lbl), s2.joint_of(lbl)
        if isinstance(j1, Heap) and isinstance(j2, Heap) and j1.dom() != j2.dom():
            return False
    return True


def _fork_join_counterexamples(
    s: State, graph: "ProtocolGraph", pcms: Sequence[tuple[str, PCM]]
) -> Iterator[str]:
    """Yield witnesses of fork-join closure failures at state ``s``.

    Closure: if ``[a • b | j | o]`` is coherent then so is ``[a | j | b • o]``
    (and symmetrically back).  We check all splits of ``self`` pushed into
    ``other``, and all splits of ``other`` pulled into ``self``.  ``s`` is
    a coherent member of ``graph``, which supplies the splits, the joins
    and the coherence memo; ``pcms`` is the concurroid's ``pcms()``.  A
    realignment that gives back ``s``'s own values (the unit moved
    across) is ``s`` itself, so it is not rebuilt.

    Pulling the summand ``b`` of the split ``(a, b)`` of ``other`` into
    ``self`` builds the framed state of the framing candidate ``(b, a)``
    (see :meth:`ProtocolGraph.framings`).  When the pass runs to its end
    at a member without a framing bitmask, it stores the bitmask its
    verdicts give -- unless some candidate's mirrored split was not
    checked (see :class:`FramingCandidates`), when it stores nothing.
    """
    splits, join, coherent = graph.splits, graph.join, graph.coherent
    member = graph._members.get(s)
    fill = member is not None and member not in graph.framing_masks
    mask = width = 0
    for lbl, pcm in pcms:
        if lbl not in s:
            continue
        comp = s[lbl]
        self_, joint, other = comp.self_, comp.joint, comp.other
        for a, b in splits(lbl, pcm, self_):
            joined = join(lbl, pcm, b, other)
            if a is self_ and joined is other:
                continue
            if not coherent(s.set(lbl, SubjState(a, joint, joined))):
                yield f"label {lbl}: self split ({a!r}, {b!r}) at {s!r}"
        # one bit per split of ``other``, by position: the splits whose
        # realignment is coherent, and those whose realignment is ``s``
        coherent_at = itself_at = 0
        bit = 1
        for a, b in splits(lbl, pcm, other):
            joined = join(lbl, pcm, self_, b)
            if joined is self_ and a is other:
                itself_at |= bit
            elif coherent(s.set(lbl, SubjState(joined, joint, a))):
                coherent_at |= bit
            else:
                yield f"label {lbl}: other split ({a!r}, {b!r}) at {s!r}"
            bit <<= 1
        if fill:
            mirrors = graph.candidates(lbl, pcm, other).mirrors
            if mirrors is None:
                fill = False
                continue
            for i in mirrors:
                if itself_at >> i & 1:
                    fill = False
                    break
                if coherent_at >> i & 1:
                    mask |= 1 << width
                width += 1
    if fill:
        graph.framing_masks[member] = mask


# -- the protocol state graph --------------------------------------------------------


#: The names of :attr:`ProtocolGraph.memo_counts`, which the checkers'
#: spans report per call.
MEMO_COUNTS = ("splits_built", "splits_reused", "joins_built", "joins_reused", "real_heaps_built")

_ABSENT = object()


class FramingCandidates(NamedTuple):
    """The candidate framings of a member whose ``other`` at a label is
    one value (see :meth:`ProtocolGraph.framings`): the same for every
    member with that value, so computed once per graph."""

    #: ``(frame, rest)`` per candidate: each of the first 8 splits of
    #: ``other``, in order, unless its ``frame`` is the unit; the split
    #: memo's own pairs
    pairs: tuple[tuple[Hashable, Hashable], ...]
    #: per candidate, the position of its mirrored split ``(rest, frame)``
    #: among the splits of ``other`` -- the split whose realignment in
    #: Conc's fork-join pass is the framed state -- or None when some
    #: candidate's mirror is not a split (an asymmetric ``splits``)
    mirrors: tuple[int, ...] | None


class Framings(NamedTuple):
    """What :meth:`ProtocolGraph.framings` found for one state."""

    #: ``(label, pcm, frame, framed)`` per coherent framing, in split order
    coherent: list[tuple[str, PCM, Any, State]]
    #: candidate framings whose coherence this query computed
    built: int
    #: candidate framings whose coherence the state's bitmask answered
    from_mask: int


class ProtocolGraph:
    """The protocol state graph of ``conc`` over a finite state family.

    Holds the family's states (in the order the checkers visit them) and,
    per member, its environment successors, its transition successors and
    its coherence verdict — the facts every Conc, Acts and Stab obligation
    over the family re-derives otherwise — and, once the pre-pass asks,
    whether the family's environment moves stay inside it and preserve
    every ``self`` projection.  Iterating a graph yields
    :attr:`states`, so it stands in for a state list.

    Every state-keyed table is keyed by the family's own (first-seen)
    ``State`` objects and every edge names members by those same
    objects, so the graph pins no state beyond its members: a query with
    an *equal* fresh state reads the memo without storing the fresh
    copy.  Facts about non-members are computed per query and never
    stored.  :func:`protocol_closure` fills the edge tables while it
    enumerates the closure; every other entry is filled on its member's
    first query (so a coherence verdict is computed at most once per
    member) -- except a member's framing bitmask, which
    :func:`check_concurroid`'s fork-join pass stores as it goes, and
    :meth:`framings` otherwise.

    The PCM facts the fork-join and framing checks rest on -- how a value
    splits, what two values join to -- are keyed by *value*, not by
    state: a family of thousands of members holds a few dozen distinct
    ``self``/``other`` values per label, so each split and join is
    computed once per graph (:meth:`splits`, :meth:`join`), and so is a
    value's list of framing candidates (:meth:`candidates`).  Values equal
    under ``==`` are interchangeable, as they already are for the
    closure's members.  Every value the graph hands out goes through one
    intern table per graph, as do the closure's member values, so the
    states the checkers rebuild from them compare to members by pointer.
    The tables hold values, never states, and die with the graph.
    """

    #: fcsl-deps: the dependency walker must not traverse the tables.
    #: They hold only facts derived from ``conc``, which every checker
    #: call names itself, so walking them adds nothing to a cone.
    __deps_opaque__ = True

    def __init__(self, conc: Concurroid, states: Iterable[State]) -> None:
        self.conc = conc
        #: the family, duplicates and order kept (checkers visit it as is)
        self.states: tuple[State, ...] = tuple(states)
        self._members: dict[State, State] = {}
        for s in self.states:
            self._members.setdefault(s, s)
        #: member -> its distinct environment successors, in move order
        self.env: dict[State, tuple[State, ...]] = {}
        #: member -> its distinct transition successors, in step order
        self.trans: dict[State, tuple[State, ...]] = {}
        #: member -> ``conc.coherent(member)``
        self.coherence: dict[State, bool] = {}
        #: :meth:`env_closed_and_self_preserving`, once asked
        self.env_verdict: bool | None = None
        #: member -> which of its candidate framings are coherent, one
        #: bit per candidate (see :meth:`framings`)
        self.framing_masks: dict[State, int] = {}
        #: member -> ``conc.real_heap(member)``, interned
        self.real_heaps: dict[State, Heap] = {}
        #: ``(label, value)`` -> the graph's one copy of that value, and
        #: ``(None, heap)`` -> its one copy of a real heap
        self.interned: dict[tuple[str | None, Hashable], Hashable] = {}
        #: ``(label, value)`` -> ``pcm.splits(value)``, pieces interned
        self.split_memo: dict[tuple[str, Hashable], tuple[tuple[Hashable, Hashable], ...]] = {}
        #: ``(label, a, b)`` -> ``pcm.join(a, b)``, interned
        self.join_memo: dict[tuple[str, Hashable, Hashable], Hashable] = {}
        #: ``(label, other)`` -> the candidate framings of that ``other``
        self.framing_candidates: dict[tuple[str, Hashable], FramingCandidates] = {}
        #: calls to :meth:`splits` / :meth:`join` that computed the fact
        #: (``*_built``) or read it back (``*_reused``), and real heaps
        #: :meth:`real_heap` computed
        self.memo_counts: dict[str, int] = dict.fromkeys(MEMO_COUNTS, 0)

    def __len__(self) -> int:
        return len(self.states)

    def __iter__(self) -> Iterator[State]:
        return iter(self.states)

    def __contains__(self, state: object) -> bool:
        return state in self._members

    def coherent(self, state: State) -> bool:
        known = self.coherence.get(state)
        if known is None:
            known = self.conc.coherent(state)
            member = self._members.get(state)
            if member is not None:
                self.coherence[member] = known
        return known

    def env_successors(self, state: State) -> tuple[State, ...]:
        """``conc.env_moves(state)``, duplicates dropped."""
        return self._edges(self.env, state, self.conc.env_moves)

    def env_closed_and_self_preserving(self) -> bool:
        """Whether every environment move from every member lands on a
        member and leaves every label's ``self`` projection unchanged --
        the model fact the static pre-pass discharges self-framed
        stability obligations with (:mod:`repro.analysis.prepass`).
        Computed on first ask; a move that raises makes it False."""
        if self.env_verdict is None:
            self.env_verdict = self._env_closed_and_self_preserving()
        return self.env_verdict

    def _env_closed_and_self_preserving(self) -> bool:
        try:
            for s in self.states:
                for s2 in self.env_successors(s):
                    if s2 not in self:
                        return False  # family is not env-closed
                    for lbl in s.labels():
                        if s2.self_of(lbl) != s.self_of(lbl):
                            return False  # env changed a self projection
        except Exception:  # noqa: BLE001 - fail closed
            return False
        return True

    def successors(self, state: State) -> tuple[State, ...]:
        """Every state one ``conc.transitions()`` step away, duplicates dropped."""
        return self._edges(self.trans, state, self._steps)

    def framings(
        self, state: State, pcms: Iterable[tuple[str, PCM]] | None = None
    ) -> Framings:
        """The coherent framings of ``state``: for each owned label with
        a PCM and each of its candidates ``(frame, rest)`` -- the first 8
        splits of its ``other``, less those whose ``frame`` is the unit
        (:meth:`candidates`) -- the framed state
        ``[self • frame | joint | rest]`` (the frame property's larger
        ``self``, §3.4), when it is coherent.  ``pcms`` is
        ``conc.pcms().items()``, which a caller asking for many states
        reads once.

        A member keeps one int, a bitmask of which candidates are
        coherent, so a later query rebuilds only the coherent framed
        states and asks no coherence again.  Framed states themselves
        are never stored: most are members already, and keeping the
        others costs more memory than rebuilding them.
        """
        mask = self.framing_masks.get(state)
        coherent: list[tuple[str, PCM, Any, State]] = []
        built = from_mask = 0
        new_mask = 0
        bit = 1
        for lbl, pcm in self.conc.pcms().items() if pcms is None else pcms:
            if lbl not in state:
                continue
            comp = state[lbl]
            for frame, rest in self.candidates(lbl, pcm, comp.other).pairs:
                if mask is None:
                    built += 1
                    framed = state.set(
                        lbl, SubjState(self.join(lbl, pcm, comp.self_, frame), comp.joint, rest)
                    )
                    if self.coherent(framed):
                        new_mask |= bit
                        coherent.append((lbl, pcm, frame, framed))
                else:
                    from_mask += 1
                    if mask & bit:
                        framed = state.set(
                            lbl,
                            SubjState(self.join(lbl, pcm, comp.self_, frame), comp.joint, rest),
                        )
                        coherent.append((lbl, pcm, frame, framed))
                bit <<= 1
        if mask is None:
            member = self._members.get(state)
            if member is not None:
                self.framing_masks[member] = new_mask
        return Framings(coherent, built, from_mask)

    def candidates(self, label: str, pcm: PCM, other: Hashable) -> FramingCandidates:
        """The candidate framings of ``other`` at ``label``, computed once
        per distinct value."""
        key = (label, other)
        found = self.framing_candidates.get(key)
        if found is None:
            pairs = self.splits(label, pcm, other)
            chosen = tuple(pair for pair in pairs[:8] if not pcm.is_unit(pair[0]))
            position: dict[tuple[Hashable, Hashable], int] = {}
            for i, pair in enumerate(pairs):
                position.setdefault(pair, i)
            mirrors = [position.get((rest, frame)) for frame, rest in chosen]
            found = self.framing_candidates[key] = FramingCandidates(
                chosen, None if None in mirrors else tuple(mirrors)
            )
        return found

    def real_heap(self, state: State) -> Heap:
        """``conc.real_heap(state)``, computed once per member.  Members
        with equal real heaps share one heap object, so two states'
        heaps compare by pointer when they are equal."""
        heap = self.real_heaps.get(state)
        if heap is None:
            heap = self.conc.real_heap(state)
            self.memo_counts["real_heaps_built"] += 1
            member = self._members.get(state)
            if member is None:
                heap = self.interned.get((None, heap), heap)
            else:
                heap = self.real_heaps[member] = self.interned.setdefault((None, heap), heap)
        return heap

    def splits(
        self, label: str, pcm: PCM, value: Hashable
    ) -> tuple[tuple[Hashable, Hashable], ...]:
        """``pcm.splits(value)`` for the PCM at ``label``, computed once
        per distinct value, with interned pieces."""
        key = (label, value)
        found = self.split_memo.get(key)
        if found is None:
            intern = self.intern
            found = tuple((intern(label, a), intern(label, b)) for a, b in pcm.splits(value))
            self.split_memo[key] = found
            self.memo_counts["splits_built"] += 1
        else:
            self.memo_counts["splits_reused"] += 1
        return found

    def join(self, label: str, pcm: PCM, a: Hashable, b: Hashable) -> Hashable:
        """``pcm.join(a, b)`` for the PCM at ``label``, computed once per
        distinct pair, interned."""
        key = (label, a, b)
        joined = self.join_memo.get(key, _ABSENT)
        if joined is _ABSENT:
            joined = self.join_memo[key] = self.intern(label, pcm.join(a, b))
            self.memo_counts["joins_built"] += 1
        else:
            self.memo_counts["joins_reused"] += 1
        return joined

    def intern(self, label: str, value: Hashable) -> Hashable:
        """The graph's one copy of ``value`` at ``label``: the first equal
        value it interned there."""
        return self.interned.setdefault((label, value), value)

    def snapshot(self) -> bytes:
        """The pickled ``(states, trans, env, interned)`` of a graph
        :func:`protocol_closure` just enumerated, before any checker
        interns more values; :meth:`from_snapshot` rebuilds the graph.
        Pickle names classes, so a reload resolves the values to the
        current definitions, and the bytes pin no live object."""
        return pickle.dumps(
            (self.states, self.trans, self.env, self.interned), pickle.HIGHEST_PROTOCOL
        )

    @classmethod
    def from_snapshot(cls, conc: Concurroid, blob: bytes) -> "ProtocolGraph":
        """The graph of ``conc`` that :meth:`snapshot` pickled: the same
        members in the same order, edge tables and intern table."""
        states, trans, env, interned = pickle.loads(blob)
        graph = cls(conc, states)
        graph.trans = trans
        graph.env = env
        graph.interned = interned
        return graph

    def memo_counts_since(self, before: Mapping[str, int]) -> dict[str, int]:
        """:attr:`memo_counts` minus an earlier copy ``before``."""
        return {name: count - before[name] for name, count in self.memo_counts.items()}

    def _steps(self, state: State) -> Iterator[State]:
        for source in self.conc.step_sources():
            yield from source(state)

    def _edges(
        self,
        table: dict[State, tuple[State, ...]],
        state: State,
        moves: Callable[[State], Iterable[State]],
    ) -> tuple[State, ...]:
        known = table.get(state)
        if known is None:
            members = self._members
            known = tuple(members.get(s2, s2) for s2 in dict.fromkeys(moves(state)))
            member = members.get(state)
            if member is not None:
                table[member] = known
        return known


def state_graph(conc: Concurroid, states: Iterable[State]) -> ProtocolGraph:
    """The state graph a checker for ``conc`` reads: ``states`` itself
    when it is a graph of ``conc``, else a graph built for this call."""
    if isinstance(states, ProtocolGraph) and states.conc is conc:
        return states
    return ProtocolGraph(conc, states)


def protocol_closure(
    conc: Concurroid,
    initials: Iterable[State],
    *,
    max_states: int = 20_000,
) -> ProtocolGraph:
    """All states reachable from ``initials`` by *any* protocol step —
    the observing thread's transitions or environment steps.

    This is the finite model over which metatheory and stability
    obligations are discharged: every state an execution can inhabit under
    the protocol (from the modelled initial states).  The result is the
    :class:`ProtocolGraph` of the closure, its states in ``repr`` order,
    keeping every edge the enumeration found.

    While a plan is collected without executing it
    (:func:`repro.core.verify.planning_only`), the obligations that close
    over the result never run, so the graph is returned *deferred*: it
    enumerates on first use, to exactly the graph an eager call builds
    (and raises the same :class:`MetatheoryViolation` there on overflow).
    Executing runs stay eager, so an overflow raises at this call and not
    inside an obligation, where it would be recorded as a failure.

    A closure the verifier's setup builds is recorded in the plan being
    collected, and consults the run's closure snapshots
    (:func:`repro.core.verify.setup_closure`): a snapshot stored under
    the closure's key is loaded instead of enumerating
    (:meth:`ProtocolGraph.from_snapshot`), and an enumerated graph is
    offered to them before any checker reads it.  A snapshot that does
    not load falls back to the enumeration.
    """
    from .verify import planning_only, setup_closure

    initials = tuple(initials)
    snapshots = setup_closure(conc, initials, max_states)
    if planning_only():
        return _DeferredGraph(conc, initials, max_states)
    if snapshots is not None:
        graph = _load_snapshot(conc, snapshots.load(conc, initials, max_states))
        if graph is not None:
            return graph
    graph = ProtocolGraph.__new__(ProtocolGraph)
    _enumerate_closure(graph, conc, initials, max_states, deferred=False, snapshots=snapshots)
    return graph


def _load_snapshot(conc: Concurroid, blob: bytes | None) -> ProtocolGraph | None:
    """The graph ``blob`` holds, with a ``protocol_closure`` span that
    says it was loaded; ``None`` when there is no blob or it does not
    load."""
    if blob is None:
        return None
    tr = obs_tracer.current()
    started = time.perf_counter()
    try:
        graph = ProtocolGraph.from_snapshot(conc, blob)
    except Exception:  # noqa: BLE001 - the enumeration is the fallback
        return None
    if tr is not None:
        tr.span(
            "protocol_closure",
            "core",
            started * 1e6,
            time.perf_counter() * 1e6,
            concurroid=type(conc).__name__,
            states=len(graph),
            edges=sum(map(len, graph.trans.values())) + sum(map(len, graph.env.values())),
            sources_run=0,
            sources_replayed=0,
            env_from_flips=0,
            deferred=False,
            snapshot="loaded",
            snapshot_bytes=len(blob),
        )
    return graph


class _Interner:
    """The intern tables of one closure enumeration: the graph's value
    table (see :meth:`ProtocolGraph.intern`) and, local to the
    enumeration, one shared :class:`SubjState` per distinct
    ``(label, component)``."""

    __slots__ = ("values", "components")

    def __init__(self) -> None:
        self.values: dict[tuple[str, Hashable], Hashable] = {}
        self.components: dict[tuple[str, SubjState], SubjState] = {}

    def component(self, lbl: str, comp: SubjState) -> SubjState:
        """The enumeration's one copy of ``comp`` at ``lbl``, holding
        interned values."""
        key = (lbl, comp)
        shared = self.components.get(key)
        if shared is None:
            intern = self.values.setdefault
            self_ = intern((lbl, comp.self_), comp.self_)
            joint = intern((lbl, comp.joint), comp.joint)
            other = intern((lbl, comp.other), comp.other)
            if self_ is comp.self_ and joint is comp.joint and other is comp.other:
                shared = comp
            else:
                shared = SubjState(self_, joint, other)
            self.components[key] = shared
        return shared

    def state(self, state: State) -> State:
        """``state`` built from shared components, or ``state`` itself
        when it holds only those."""
        component = self.component
        parts: dict[str, SubjState] = {}
        changed = False
        for lbl, comp in state.items():
            shared = parts[lbl] = component(lbl, comp)
            changed = changed or shared is not comp
        return State._of(parts) if changed else state

    def delta(self, delta: Delta) -> Delta:
        """``delta`` writing shared components."""
        if not delta.writes:
            return delta
        component = self.component
        return Delta(delta.flipped, tuple((l, component(l, c)) for l, c in delta.writes))


class _Source:
    """One successor source of a closure enumeration, with its memo.

    ``reads`` is every label a recorded run of the source has read, in
    sorted order; ``memo`` maps the components of a member at those
    labels to the deltas its run gave.  A member that agrees with a
    recorded one at every label in ``reads`` agrees with it at every
    label that run read, so a deterministic source that reads only
    through the state's methods outputs the recorded deltas applied to
    it (see :func:`~repro.core.state.record`).  When ``reads`` grows, the
    memo is emptied, so every entry is keyed by all of ``reads``.  The
    source is run directly (``direct``) once its reads cover every label
    the concurroid owns, once a run read the whole state, and once a run
    output a state not derived from its input."""

    __slots__ = ("run", "owned", "interner", "reads", "memo", "direct", "runs", "replays")

    def __init__(
        self, run: Callable[[State], Iterable[State]], owned: frozenset[str], interner: _Interner
    ) -> None:
        self.run = run
        self.owned = owned
        self.interner = interner
        self.reads: tuple[str, ...] = ()
        self.memo: dict[tuple[SubjState | None, ...], tuple[Delta, ...]] = {}
        self.direct = False
        #: evaluations that ran the source, and those the memo answered
        self.runs = self.replays = 0

    def successors(self, member: State) -> list[State]:
        """The source's outputs on ``member``, in order."""
        if self.direct:
            self.runs += 1
            return list(self.run(member))
        key = components_at(member, self.reads)
        deltas = self.memo.get(key)
        if deltas is not None:
            self.replays += 1
            return [delta.apply(member) for delta in deltas]
        self.runs += 1
        try:
            recording = record(self.run, member)
        except Exception:  # noqa: BLE001 - never stored; the direct run raises it again
            return list(self.run(member))
        if recording is None:
            self.direct = True
            return list(self.run(member))
        deltas = tuple(self.interner.delta(delta) for delta in recording.deltas)
        if not recording.reads.issubset(self.reads):
            reads = recording.reads.union(self.reads)
            self.reads = tuple(sorted(reads))
            self.memo.clear()
            self.direct = self.owned <= reads
            key = components_at(member, self.reads)
        if not self.direct:
            self.memo[key] = deltas
        return [delta.apply(member) for delta in deltas]


def _enumerate_closure(
    graph: ProtocolGraph,
    conc: Concurroid,
    initials: tuple[State, ...],
    max_states: int,
    *,
    deferred: bool,
    snapshots: Any = None,
) -> None:
    """Enumerate the protocol closure of ``initials`` into ``graph``.

    The one place a closure is enumerated, so its ``protocol_closure``
    span (states, edges, source runs and replays, whether the graph
    was ``deferred``, and whether ``snapshots`` stored it) says where
    the work ran.  Each new member's values
    are interned (see :meth:`ProtocolGraph.intern`) as it is added, so
    members share them, and members share one :class:`SubjState` per
    distinct component.

    A member's successors are the outputs of ``conc.step_sources()`` and
    ``conc.env_sources()``, each evaluated through its :class:`_Source`
    memo: a source runs once per distinct tuple of the components it
    reads, and its recorded outputs are replayed on the other members.

    When ``conc``'s environment moves are its own transition steps seen
    through the subjective flip (:func:`_flips_own_steps`), the
    environment sources never run: a member's moves are the flips of the
    step sources' outputs on the member's flip, and once the flip is an
    expanded member both of the member's edge tuples are read off the
    flip's, member by member (``env_from_flips``).  ``flip`` is an
    injective involution, so flipping commutes with the first-occurrence
    dedupe and the members are discovered in the same order.

    Members are sorted by ``repr``, assembled from one cached piece per
    distinct component."""
    from collections import deque

    tr = obs_tracer.current()
    started = time.perf_counter() if tr is not None else 0.0
    owned = frozenset(conc.labels)
    interner = _Interner()
    step_sources = [_Source(run, owned, interner) for run in conc.step_sources()]
    flip = conc._transpose_own if _flips_own_steps(conc) else None
    env_sources = [] if flip else [_Source(run, owned, interner) for run in conc.env_sources()]
    seen: dict[State, State] = {}
    frontier: deque[State] = deque()
    for s in initials:
        if s not in seen:
            s = interner.state(s)
            seen[s] = s
            frontier.append(s)
    trans: dict[State, tuple[State, ...]] = {}
    env: dict[State, tuple[State, ...]] = {}
    #: member -> the member that is its flip, for members whose flip is one
    flips: dict[State, State] = {}
    env_from_flips = 0

    def run_steps(state: State) -> list[State]:
        return [s2 for source in step_sources for s2 in source.successors(state)]

    def twin_of(member: State) -> State:
        """The member that is ``member``'s flip, else a fresh flip."""
        twin = flips.get(member)
        if twin is None:
            flipped = flip(member)
            twin = seen.get(flipped)
            if twin is None:
                return flipped
            flips[member] = twin
            flips[twin] = member
        return twin

    while frontier:
        current = frontier.popleft()
        if flip is None:
            steps = run_steps(current)
            moves = [s2 for source in env_sources for s2 in source.successors(current)]
        else:
            twin = twin_of(current)
            if twin in trans:
                env_from_flips += 1
                steps = [twin_of(s2) for s2 in env[twin]]
                moves = [twin_of(s2) for s2 in trans[twin]]
            else:
                steps = run_steps(current)
                flipped_steps = steps if twin is current else run_steps(twin)
                moves = [flip(s2) for s2 in dict.fromkeys(flipped_steps)]
        for succ in steps + moves:
            if succ not in seen:
                if len(seen) >= max_states:
                    raise MetatheoryViolation(
                        f"protocol closure exceeded {max_states} states; shrink the model"
                    )
                succ = interner.state(succ)
                seen[succ] = succ
                frontier.append(succ)
        # Edges name the first-seen objects; the fresh copies die here.
        trans[current] = tuple(seen[s2] for s2 in dict.fromkeys(steps))
        env[current] = tuple(seen[s2] for s2 in dict.fromkeys(moves))
    pieces: dict[tuple[str, SubjState], str] = {}

    def piece(lbl: str, comp: SubjState) -> str:
        key = (lbl, comp)
        text = pieces.get(key)
        if text is None:
            text = pieces[key] = component_repr(lbl, comp)
        return text

    ProtocolGraph.__init__(graph, conc, sorted(seen, key=lambda s: repr_of(s, piece)))
    graph.interned = interner.values
    graph.trans = trans
    graph.env = env
    stored = snapshots.store(graph) if snapshots is not None else 0
    if tr is not None:
        sources = step_sources + env_sources
        tr.span(
            "protocol_closure",
            "core",
            started * 1e6,
            time.perf_counter() * 1e6,
            concurroid=type(conc).__name__,
            states=len(seen),
            edges=sum(map(len, trans.values())) + sum(map(len, env.values())),
            sources_run=sum(source.runs for source in sources),
            sources_replayed=sum(source.replays for source in sources),
            env_from_flips=env_from_flips,
            deferred=deferred,
            snapshot="stored" if stored else None,
            snapshot_bytes=stored,
        )


#: the :class:`Concurroid` methods that derive environment moves from the
#: transitions through the subjective flip
_FLIP_DEFAULTS = ("step_sources", "env_sources", "env_moves", "env_transitions", "_transpose_own")


def _flips_own_steps(conc: Concurroid) -> bool:
    """Whether ``conc``'s environment moves are, in order, the flips of
    its step sources' outputs on the flipped state: its class keeps every
    default in :data:`_FLIP_DEFAULTS`.  :class:`~repro.core.entangle.Entangled`
    and :class:`~repro.core.entangle.Priv` override some, so their
    closures evaluate the environment sources."""
    cls = type(conc)
    return all(getattr(cls, name) is getattr(Concurroid, name) for name in _FLIP_DEFAULTS)


class _DeferredGraph(ProtocolGraph):
    """A :func:`protocol_closure` result that is not enumerated yet.

    Only ``conc`` is set; the first read of a table (``len``, iteration,
    membership and every query method read one) enumerates the closure
    and turns the object into a plain :class:`ProtocolGraph`, so the
    checkers' hot paths never pay for the deferral.  Reads of any other
    name (introspection) enumerate nothing."""

    #: the attributes :meth:`ProtocolGraph.__init__` sets besides ``conc``
    _TABLES = frozenset(
        (
            "states",
            "_members",
            "env",
            "trans",
            "coherence",
            "env_verdict",
            "framing_masks",
            "real_heaps",
            "interned",
            "split_memo",
            "join_memo",
            "framing_candidates",
            "memo_counts",
        )
    )

    def __init__(
        self, conc: Concurroid, initials: tuple[State, ...], max_states: int
    ) -> None:
        self.conc = conc
        self._pending = (initials, max_states)

    def __getattr__(self, name: str) -> Any:
        pending = self.__dict__.get("_pending")
        if pending is None or name not in self._TABLES:
            raise AttributeError(name)
        _enumerate_closure(self, self.conc, *pending, deferred=True)
        del self._pending
        self.__class__ = ProtocolGraph
        return getattr(self, name)


def assert_metatheory(conc: Concurroid, states: Iterable[State]) -> None:
    """Raise :class:`MetatheoryViolation` if any side condition fails."""
    issues = check_concurroid(conc, states)
    if issues:
        raise MetatheoryViolation("\n".join(str(i) for i in issues))
