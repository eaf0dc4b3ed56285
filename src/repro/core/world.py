"""Worlds: the registry of installed concurroids.

A *world* fixes which concurroids (protocols) govern the shared state a
program runs against, and which of them are *closed* — shielded from
environment interference, as happens under ``hide`` (§3.5).  The
interpreter carries a world in every configuration; ``hide`` extends it
for the dynamic extent of its body.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Sequence

from ..pcm.base import PCM
from .concurroid import Concurroid
from .state import State


class World:
    """An immutable collection of concurroids with open/closed status."""

    def __init__(
        self,
        concurroids: Sequence[Concurroid],
        closed_labels: frozenset[str] = frozenset(),
    ):
        self._concurroids = tuple(concurroids)
        self._closed = frozenset(closed_labels)
        self._by_label: dict[str, Concurroid] = {}
        for conc in self._concurroids:
            for lbl in conc.labels:
                if lbl in self._by_label:
                    raise ValueError(f"label {lbl!r} owned by two concurroids")
                self._by_label[lbl] = conc
        self._pcms: dict[str, PCM] = {}
        for conc in self._concurroids:
            self._pcms.update(conc.pcms())

    @property
    def concurroids(self) -> tuple[Concurroid, ...]:
        return self._concurroids

    @property
    def closed_labels(self) -> frozenset[str]:
        return self._closed

    def labels(self) -> tuple[str, ...]:
        return tuple(self._by_label)

    def pcm_of(self, label: str) -> PCM:
        try:
            return self._pcms[label]
        except KeyError:
            raise KeyError(
                f"concurroid owning label {label!r} declares no PCM for it; "
                "interpreter-facing concurroids must implement pcms()"
            ) from None

    def pcms(self) -> Mapping[str, PCM]:
        return dict(self._pcms)

    def is_closed(self, conc: Concurroid) -> bool:
        return any(lbl in self._closed for lbl in conc.labels)

    def coherent(self, state: State) -> bool:
        return all(conc.coherent(state) for conc in self._concurroids)

    def env_moves(self, state: State) -> Iterator[State]:
        """Environment steps of all *open* concurroids."""
        for conc in self._concurroids:
            if not self.is_closed(conc):
                yield from conc.env_moves(state)

    def install(self, conc: Concurroid, *, closed: bool) -> "World":
        """A new world with ``conc`` added (used by ``hide``)."""
        closed_labels = self._closed | (frozenset(conc.labels) if closed else frozenset())
        return World(self._concurroids + (conc,), closed_labels)

    def uninstall(self, conc: Concurroid) -> "World":
        remaining = tuple(c for c in self._concurroids if c is not conc)
        closed = self._closed - frozenset(conc.labels)
        return World(remaining, closed)

    def __repr__(self) -> str:
        names = ", ".join(repr(c) for c in self._concurroids)
        return f"World({names}; closed={sorted(self._closed)})"
