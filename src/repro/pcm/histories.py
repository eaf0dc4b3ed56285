"""Time-stamped histories — the PCM behind linearizability-style specs.

Sergey et al. (ESOP'15, [47]) specify the pair snapshot, the Treiber stack
and the producer/consumer via a PCM of *time-stamped action histories*: a
history is a finite map from positive integer timestamps to *entries*,
where an entry records an atomic abstract-state change ``(before, after)``
(e.g. stack contents before/after a push).  ``self`` holds the operations
performed by the observing thread, ``other`` those of its environment, and
their join is disjoint union of timestamp domains: no two threads can own
the same linearization moment.

Continuity (entry ``t+1`` begins where entry ``t`` ended) is *not* a PCM
law; it is part of the coherence predicate of history-using concurroids
(see ``structures/treiber.py``), mirroring the paper's layering.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterator, Mapping, Sequence

from .base import PCM, Undef


class HistEntry:
    """An entry ``before ==> after`` at some timestamp."""

    __slots__ = ("before", "after")

    def __init__(self, before: Hashable, after: Hashable):
        self.before = before
        self.after = after

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HistEntry):
            return NotImplemented
        return self.before == other.before and self.after == other.after

    def __hash__(self) -> int:
        return hash((HistEntry, self.before, self.after))

    def __repr__(self) -> str:
        return f"({self.before!r} ==> {self.after!r})"


class History:
    """An immutable finite map from positive timestamps to :class:`HistEntry`."""

    __slots__ = ("_entries", "_hash")

    def __init__(self, entries: Mapping[int, HistEntry] | None = None):
        entries = dict(entries or {})
        for ts, entry in entries.items():
            if not isinstance(ts, int) or isinstance(ts, bool) or ts <= 0:
                raise ValueError(f"timestamps must be positive integers, got {ts!r}")
            if not isinstance(entry, HistEntry):
                raise TypeError(f"history entries must be HistEntry, got {entry!r}")
        self._entries = entries
        self._hash: int | None = None

    @classmethod
    def _of(cls, entries: dict[int, HistEntry]) -> "History":
        """A history over ``entries``, which the caller guarantees valid
        (positive ``int`` timestamps, :class:`HistEntry` values) and
        hands over."""
        history = object.__new__(cls)
        history._entries = entries
        history._hash = None
        return history

    def __reduce__(self) -> tuple:
        # The cached hash is per process, so it is never pickled.
        return (History, (self._entries,))

    def timestamps(self) -> frozenset[int]:
        return frozenset(self._entries)

    def last_timestamp(self) -> int:
        """The largest timestamp (0 for the empty history)."""
        return max(self._entries, default=0)

    def __contains__(self, ts: int) -> bool:
        return ts in self._entries

    def __getitem__(self, ts: int) -> HistEntry:
        return self._entries[ts]

    def get(self, ts: int, default: Any = None) -> Any:
        return self._entries.get(ts, default)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self._entries))

    def items(self) -> Iterator[tuple[int, HistEntry]]:
        return iter(sorted(self._entries.items()))

    @property
    def is_empty(self) -> bool:
        return not self._entries

    def extend(self, ts: int, entry: HistEntry) -> "History":
        """The history with one more entry; raises on timestamp reuse."""
        if ts in self._entries:
            raise ValueError(f"timestamp {ts} already present in history")
        merged = dict(self._entries)
        merged[ts] = entry
        return History(merged)

    def continuous_from(self, initial: Hashable) -> bool:
        """Whether entries chain: ``initial``, then each ``after`` feeds the
        next ``before``, over consecutive timestamps ``1..n``.

        This is the coherence-level *continuity* property of combined
        (``self • other``) histories.
        """
        expected_state = initial
        ts_sorted = sorted(self._entries)
        if ts_sorted != list(range(1, len(ts_sorted) + 1)):
            return False
        for ts in ts_sorted:
            entry = self._entries[ts]
            if entry.before != expected_state:
                return False
            expected_state = entry.after
        return True

    def final_state(self, initial: Hashable) -> Hashable:
        """The abstract state after replaying the (continuous) history."""
        state = initial
        for __, entry in self.items():
            state = entry.after
        return state

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, History):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._entries.items()))
        return self._hash

    def __repr__(self) -> str:
        if not self._entries:
            return "History(empty)"
        body = ", ".join(f"{ts}: {e!r}" for ts, e in self.items())
        return f"History({body})"


#: The empty history (PCM unit).
EMPTY_HISTORY = History()


def hist(*changes: tuple[int, Hashable, Hashable]) -> History:
    """Build a history from ``(ts, before, after)`` triples."""
    return History({ts: HistEntry(b, a) for ts, b, a in changes})


class HistoryPCM(PCM):
    """Histories under disjoint (timestamp-wise) union."""

    name = "histories"

    @property
    def unit(self) -> History:
        return EMPTY_HISTORY

    def join(self, a: Any, b: Any) -> Any:
        if not isinstance(a, History) or not isinstance(b, History):
            return Undef("non-history operand")
        overlap = a._entries.keys() & b._entries.keys()
        if overlap:
            return Undef(f"timestamp collision: {sorted(overlap)}")
        merged = dict(a._entries)
        merged.update(b._entries)
        return History._of(merged)

    def valid(self, x: Any) -> bool:
        return isinstance(x, History)

    def splits(self, x: Any) -> Sequence[tuple[History, History]]:
        if not isinstance(x, History):
            return ()
        entries = sorted(x._entries.items())
        out = []
        for mask in range(1 << len(entries)):
            a: dict[int, HistEntry] = {}
            b: dict[int, HistEntry] = {}
            for i, (ts, entry) in enumerate(entries):
                (a if mask & (1 << i) else b)[ts] = entry
            out.append((History._of(a), History._of(b)))
        return tuple(out)

    def sample(self) -> Sequence[History]:
        return (
            EMPTY_HISTORY,
            hist((1, "s0", "s1")),
            hist((2, "s1", "s2")),
            hist((1, "s0", "s1"), (2, "s1", "s2")),
        )
