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
from typing import Callable, Hashable, Iterator, Mapping


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
        body = ", ".join(f"{l}: {s!r}" for l, s in sorted(self._parts.items()))
        return f"State({body})"


def state_of(**parts: SubjState) -> State:
    """Build a state from keyword label components:
    ``state_of(sp=SubjState(...), pv=SubjState(...))``."""
    return State(parts)


def subj(self_: Hashable, joint: Hashable, other: Hashable) -> SubjState:
    """Terse :class:`SubjState` constructor for specs and tests."""
    return SubjState(self_, joint, other)
