"""Subjective states: ``[self | joint | other]`` per concurroid label.

§2.2.1: the state of each concurroid is a triple whose ``joint`` part is
shared, while ``self``/``other`` are the observing thread's and its
environment's PCM-valued contributions.  A full FCSL state is a finite map
from *labels* to such triples (§3.3 parametrizes ``SpanTree`` by a label
``sp``; §5.3 describes the getters we expose as :meth:`State.self_of`
etc.).

States are immutable and hashable, so the model checker can memoize them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Iterator, Mapping, NamedTuple


@dataclass(frozen=True, slots=True)
class SubjState:
    """One labelled component ``[self | joint | other]``."""

    self_: Hashable
    joint: Hashable
    other: Hashable
    #: ``hash((self_, joint, other))``, computed on first use
    _hash: int | None = field(default=None, init=False, repr=False, compare=False)

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.self_, self.joint, self.other)))
        return self._hash

    def __reduce__(self) -> tuple:
        # The cached hash is per process (string hashing is salted), so
        # it is never pickled.
        return (SubjState, (self.self_, self.joint, self.other))

    def transpose(self) -> "SubjState":
        """Swap ``self`` and ``other`` — the subjective view of the
        environment (used to derive environment steps from transitions)."""
        return SubjState(self.other, self.joint, self.self_)

    def with_self(self, value: Hashable) -> "SubjState":
        return SubjState(value, self.joint, self.other)

    def with_joint(self, value: Hashable) -> "SubjState":
        return SubjState(self.self_, value, self.other)

    def with_other(self, value: Hashable) -> "SubjState":
        return SubjState(self.self_, self.joint, value)

    def __repr__(self) -> str:
        return f"[{self.self_!r} | {self.joint!r} | {self.other!r}]"


class State:
    """An immutable finite map from labels to :class:`SubjState`.

    The §5.3 getters are methods here: ``self_of(lbl)``, ``joint_of(lbl)``,
    ``other_of(lbl)``; updates return fresh states.
    """

    __slots__ = ("_parts", "_hash")

    def __init__(self, parts: Mapping[str, SubjState] | None = None):
        self._parts: dict[str, SubjState] = dict(parts or {})
        for label, subj in self._parts.items():
            if not isinstance(label, str):
                raise TypeError(f"labels must be strings, got {label!r}")
            if not isinstance(subj, SubjState):
                raise TypeError(f"state components must be SubjState, got {subj!r}")
        self._hash: int | None = None

    @classmethod
    def _of(cls, parts: dict[str, SubjState]) -> "State":
        """A state over ``parts``, which the caller guarantees valid
        (string labels, :class:`SubjState` components) and hands over."""
        state = object.__new__(cls)
        state._parts = parts
        state._hash = None
        return state

    def __reduce__(self) -> tuple:
        # The cached hash is per process, so it is never pickled.
        return (State, (self._parts,))

    # -- getters (§5.3) --------------------------------------------------------

    def labels(self) -> frozenset[str]:
        return frozenset(self._parts)

    def __contains__(self, label: str) -> bool:
        return label in self._parts

    def __getitem__(self, label: str) -> SubjState:
        try:
            return self._parts[label]
        except KeyError:
            raise KeyError(f"no concurroid labelled {label!r} in state") from None

    def self_of(self, label: str) -> Hashable:
        return self[label].self_

    def joint_of(self, label: str) -> Hashable:
        return self[label].joint

    def other_of(self, label: str) -> Hashable:
        return self[label].other

    def __iter__(self) -> Iterator[str]:
        return iter(self._parts)

    def items(self) -> Iterator[tuple[str, SubjState]]:
        return iter(self._parts.items())

    # -- functional updates -----------------------------------------------------

    def set(self, label: str, subj: SubjState) -> "State":
        if not isinstance(label, str):
            raise TypeError(f"labels must be strings, got {label!r}")
        if not isinstance(subj, SubjState):
            raise TypeError(f"state components must be SubjState, got {subj!r}")
        parts = dict(self._parts)
        parts[label] = subj
        return State._of(parts)

    def update(self, label: str, fn: Callable[[SubjState], SubjState]) -> "State":
        return self.set(label, fn(self[label]))

    def remove(self, label: str) -> "State":
        parts = dict(self._parts)
        parts.pop(label, None)
        return State(parts)

    def restrict(self, labels: Iterator[str] | frozenset[str]) -> "State":
        keep = set(labels)
        return State({l: s for l, s in self._parts.items() if l in keep})

    def merge(self, other: "State") -> "State":
        """Union of label maps; overlapping labels must agree."""
        parts = dict(self._parts)
        for label, subj in other.items():
            if label in parts and parts[label] != subj:
                raise ValueError(f"conflicting components for label {label!r}")
            parts[label] = subj
        return State(parts)

    def transpose(self) -> "State":
        """Transpose every labelled component (whole-state subjectivity flip)."""
        return State._of({l: s.transpose() for l, s in self._parts.items()})

    # -- equality ---------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, State):
            return NotImplemented
        return self._parts == other._parts

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._parts.items()))
        return self._hash

    def __repr__(self) -> str:
        return repr_of(self, component_repr)


def component_repr(label: str, subj: SubjState) -> str:
    """The ``label: component`` piece of a state's ``repr``."""
    return f"{label}: {subj!r}"


def repr_of(state: State, piece: Callable[[str, SubjState], str]) -> str:
    """``repr(state)`` with each ``label: component`` piece made by
    ``piece`` (:func:`component_repr`, or a cache of its results)."""
    return "State(" + ", ".join([piece(l, s) for l, s in sorted(state._parts.items())]) + ")"


# -- recording which labels a run reads -------------------------------------------


class _Log:
    """What one recorded run did, shared by every state it derived."""

    __slots__ = ("reads", "whole")

    def __init__(self) -> None:
        #: the labels the run read (``in``, ``[]``, the getters)
        self.reads: set[str] = set()
        #: whether the run read the state as a whole (see
        #: :attr:`RecordingState.WHOLE_STATE`)
        self.whole = False


class RecordingState(State):
    """A :class:`State` that logs which labels a run reads and how the
    states it derives differ from its input (see :func:`record`).

    ``in``, ``[]`` and the getters log a read of their label; ``set`` and
    ``update`` log a write and return a recording state that shares the
    log.  :meth:`transpose` flips every component and logs nothing by
    itself: a component the run never reads is flipped whatever it is.
    Every method in :attr:`WHOLE_STATE` reads the state as a whole, so the
    run's outputs may depend on any label; the log then says so.
    """

    __slots__ = ("_log", "_flipped", "_writes")

    #: the :class:`State` methods that read every label at once
    WHOLE_STATE = (
        "labels",
        "__iter__",
        "items",
        "remove",
        "restrict",
        "merge",
        "__eq__",
        "__hash__",
        "__repr__",
        "__reduce__",
    )

    _log: _Log
    #: whether the components this run did not write are its input's,
    #: transposed
    _flipped: bool
    #: label -> component, for every label the run wrote
    _writes: dict[str, SubjState]

    @classmethod
    def _derived(
        cls, parts: dict[str, SubjState], log: _Log, flipped: bool, writes: dict[str, SubjState]
    ) -> "RecordingState":
        state = object.__new__(cls)
        state._parts = parts
        state._hash = None
        state._log = log
        state._flipped = flipped
        state._writes = writes
        return state

    def __contains__(self, label: str) -> bool:
        self._log.reads.add(label)
        return label in self._parts

    def __getitem__(self, label: str) -> SubjState:
        self._log.reads.add(label)
        return State.__getitem__(self, label)

    def self_of(self, label: str) -> Hashable:
        return self[label].self_

    def joint_of(self, label: str) -> Hashable:
        return self[label].joint

    def other_of(self, label: str) -> Hashable:
        return self[label].other

    def set(self, label: str, subj: SubjState) -> "RecordingState":
        plain = State.set(self, label, subj)
        writes = dict(self._writes)
        writes[label] = subj
        return self._derived(plain._parts, self._log, self._flipped, writes)

    def update(self, label: str, fn: Callable[[SubjState], SubjState]) -> "RecordingState":
        return self.set(label, fn(self[label]))

    def transpose(self) -> "RecordingState":
        return self._derived(
            {l: s.transpose() for l, s in self._parts.items()},
            self._log,
            not self._flipped,
            {l: s.transpose() for l, s in self._writes.items()},
        )


def _whole_state(name: str) -> Callable[..., object]:
    plain = getattr(State, name)

    def whole(self: RecordingState, *args: object) -> object:
        self._log.whole = True
        return plain(self, *args)

    whole.__name__ = whole.__qualname__ = name
    return whole


for _name in RecordingState.WHOLE_STATE:
    setattr(RecordingState, _name, _whole_state(_name))
del _name


class Delta(NamedTuple):
    """How one output of a recorded run differs from the run's input:
    every component the run did not write is the input's (transposed
    when ``flipped``), and ``writes`` gives the rest."""

    flipped: bool
    writes: tuple[tuple[str, SubjState], ...]

    def apply(self, state: State) -> State:
        """The output the recorded run gives on ``state``, provided
        ``state`` agrees with the run's input on every label it read."""
        if not self.writes and not self.flipped:
            return state
        if self.flipped:
            parts = {l: s.transpose() for l, s in state._parts.items()}
        else:
            parts = dict(state._parts)
        parts.update(self.writes)
        return State._of(parts)


class Recording(NamedTuple):
    """What :func:`record` saw one run do."""

    #: the labels the run read
    reads: frozenset[str]
    #: one :class:`Delta` per output, in output order
    deltas: tuple[Delta, ...]


def record(run: Callable[[State], Iterable[State]], state: State) -> Recording | None:
    """Run ``run`` on a recording copy of ``state``.

    The result is the labels the run read and how each output differs
    from ``state``, or None when the run read the state as a whole or
    output a state it did not derive from its input.  If ``run`` is a
    deterministic function of the state, read only through the state's
    methods, then on any state that agrees with ``state`` at every read
    label it outputs exactly the recording's deltas applied to that
    state.  An exception from ``run`` propagates.
    """
    log = _Log()
    outputs = list(run(RecordingState._derived(state._parts, log, False, {})))
    if log.whole:
        return None
    deltas = []
    for out in outputs:
        if type(out) is not RecordingState or out._log is not log:
            return None
        deltas.append(Delta(out._flipped, tuple(out._writes.items())))
    return Recording(frozenset(log.reads), tuple(deltas))


def components_at(state: State, labels: Iterable[str]) -> tuple[SubjState | None, ...]:
    """``state``'s component at each of ``labels`` (None where absent)."""
    get = state._parts.get
    return tuple([get(l) for l in labels])


def state_of(**parts: SubjState) -> State:
    """Build a state from keyword label components:
    ``state_of(sp=SubjState(...), pv=SubjState(...))``."""
    return State(parts)


def subj(self_: Hashable, joint: Hashable, other: Hashable) -> SubjState:
    """Terse :class:`SubjState` constructor for specs and tests."""
    return SubjState(self_, joint, other)
