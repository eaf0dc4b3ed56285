"""Closure snapshots: a warm session reuses a protocol closure whose
dependency cone no edit touched.

A concurroid's protocol closure (:func:`repro.core.concurroid.
protocol_closure`) depends on the concurroid and its initial states, not
on the actions checked over it, yet an incremental unit re-runs its
program's setup, and so re-enumerates every closure the setup builds.
A :class:`ClosureSnapshots` table, owned by the daemon's session, keeps
one snapshot per ``(program, closure ordinal)`` -- the pickled graph
(:meth:`~repro.core.concurroid.ProtocolGraph.snapshot`) under its key --
and a unit's closure is loaded from it when the keys match.

The key of the i-th setup closure is composed like a per-obligation
fingerprint (:func:`repro.engine.depgraph.closure_keys`): the program's
setup cone unioned with the cone walked from ``(protocol_closure, conc,
initials, max_states)`` on the current code, plus -- added where the
closure is built -- the stable digest of the concurroid's type, the
initials and ``max_states``.  The fall-back ladder:

* a **coarse cone** (or a failed walk) has no key: its closure is
  enumerated and never stored;
* a **key mismatch** enumerates, and the new snapshot replaces the old;
* a snapshot that **does not load** enumerates (core's fallback), and a
  graph that does not pickle is not stored.

A table entry is replaced when its key changes, so nothing accrues per
cycle.  Snapshots stay in memory: a pickle on disk would be a trust
boundary, and the cache is JSON.
"""

from __future__ import annotations

import hashlib
from typing import Any, NamedTuple

from ..semantics.interp import stable_digest


class Snapshot(NamedTuple):
    """One stored closure: its full key and the pickled graph."""

    key: str
    blob: bytes


class ClosureSnapshots:
    """``(program, closure ordinal) -> Snapshot``, with load and store
    counts for the daemon's ``status`` op."""

    def __init__(self) -> None:
        self.table: dict[tuple[str, int], Snapshot] = {}
        #: closures loaded from a snapshot, and snapshots stored
        self.loads = self.stores = 0

    def __len__(self) -> int:
        return len(self.table)

    @property
    def nbytes(self) -> int:
        """The pickled bytes the table holds."""
        return sum(len(snap.blob) for snap in self.table.values())

    def for_unit(self, program: str, keys: tuple[str | None, ...] | None) -> "UnitSnapshots":
        """The view one work unit's run consults (see :class:`UnitSnapshots`)."""
        return UnitSnapshots(self, program, keys)

    def status(self) -> dict[str, int]:
        return {
            "count": len(self),
            "bytes": self.nbytes,
            "loads": self.loads,
            "stores": self.stores,
        }


class UnitSnapshots:
    """What one unit run's setup closures read and write.

    Core calls :meth:`load` once per setup closure, in call order, and
    :meth:`store` after each one it enumerated.  ``keys`` are the cone
    keys of the program's setup closures, computed by the parent's
    analysis for a unit with a prior cache entry; a cold unit has none
    yet (``None``): it holds each enumerated closure's snapshot until
    its own cone walk :meth:`commit`\\ s the keys."""

    def __init__(
        self, table: ClosureSnapshots, program: str, keys: tuple[str | None, ...] | None
    ) -> None:
        self.table = table
        self.program = program
        self.keys = keys
        self.ordinal = -1
        #: the last loaded closure's inputs digest and full key
        self._inputs = ""
        self._key: str | None = None
        #: cold unit: ordinal -> (inputs digest, snapshot), until commit
        self.pending: dict[int, tuple[str, bytes]] = {}

    @staticmethod
    def _full_key(keys: tuple[str | None, ...], ordinal: int, inputs: str) -> str | None:
        cone = keys[ordinal] if ordinal < len(keys) else None
        if cone is None:
            return None
        return hashlib.sha256(f"{cone}\n{inputs}\n".encode()).hexdigest()

    def load(self, conc: Any, initials: tuple, max_states: int) -> bytes | None:
        """The stored snapshot of the next setup closure, when its key
        matches this call's."""
        self.ordinal += 1
        self._inputs = stable_digest((type(conc).__qualname__, initials, max_states))
        if self.keys is None:
            return None
        self._key = self._full_key(self.keys, self.ordinal, self._inputs)
        found = self.table.table.get((self.program, self.ordinal))
        if self._key is None or found is None or found.key != self._key:
            return None
        self.table.loads += 1
        return found.blob

    def store(self, graph: Any) -> int:
        """Snapshot the closure the last :meth:`load` missed; returns the
        bytes stored (0 = none: no key, or the graph does not pickle)."""
        if self.keys is not None and self._key is None:
            return 0
        try:
            blob = graph.snapshot()
        except Exception:  # noqa: BLE001 - a snapshot must never cost a verdict
            return 0
        if self.keys is None:
            self.pending[self.ordinal] = (self._inputs, blob)
        else:
            self._put(self.ordinal, self._key, blob)
        return len(blob)

    def commit(self, keys: tuple[str | None, ...]) -> None:
        """A cold unit's cone keys arrived: store every held snapshot
        that has one."""
        for ordinal, (inputs, blob) in sorted(self.pending.items()):
            key = self._full_key(keys, ordinal, inputs)
            if key is not None:
                self._put(ordinal, key, blob)
        self.pending.clear()

    def _put(self, ordinal: int, key: str, blob: bytes) -> None:
        self.table.table[(self.program, ordinal)] = Snapshot(key, blob)
        self.table.stores += 1
