"""The abstract lock interface (§6, Figure 5).

Both lock implementations — the CAS-based spinlock and the ticketed lock —
"instantiate a uniform abstract lock interface, and are used by
coarse-grained programs" (the CG incrementor and the CG allocator).  The
interface fixes what a client may rely on:

* a *resource*: a sub-heap of the lock's joint component, governed by a
  client-supplied **resource invariant** ``inv(resource_heap, total_aux)``
  that holds whenever the lock is free;
* a *client PCM* of auxiliary contributions, split subjectively;
* programs ``acquire()`` (spins until the calling thread holds the lock)
  and ``release(aux_of)`` (restores the invariant, publishing the thread's
  new contribution), plus ``read``/``write`` programs valid only while
  holding the lock.

Clients are written against this interface only — verifying them once
verifies them for every lock implementation (the ``3L`` interchangeability
of Table 2).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Hashable

from ...core.concurroid import Concurroid
from ...core.prog import Prog
from ...core.state import State
from ...heap import Heap, Ptr
from ...pcm.base import PCM

#: ``inv(resource_heap, total_client_aux)`` — must hold when the lock is free.
ResourceInvariant = Callable[[Heap, Hashable], bool]


class AbstractLock(ABC):
    """What the CG clients (incrementor, allocator) see of a lock."""

    @property
    @abstractmethod
    def concurroid(self) -> Concurroid:
        """The lock's protocol (CLock or TLock in Table 2)."""

    @property
    @abstractmethod
    def client_pcm(self) -> PCM:
        """The PCM of client contributions."""

    @abstractmethod
    def acquire(self) -> Prog:
        """Spin until the calling thread holds the lock."""

    @abstractmethod
    def release(self, aux_of: Callable[[Any], Any]) -> Prog:
        """Release the lock, updating the calling thread's client-PCM
        contribution to ``aux_of(current_contribution)``.

        The update must restore the resource invariant — the release
        action is unsafe otherwise, and verification fails.
        """

    @abstractmethod
    def read(self, p: Ptr) -> Prog:
        """Read a resource cell (requires holding the lock)."""

    @abstractmethod
    def write(self, p: Ptr, value: Any) -> Prog:
        """Write a resource cell (requires holding the lock)."""

    @abstractmethod
    def holds(self, state: State) -> bool:
        """Whether the observing thread holds the lock in ``state``.

        NB: for a ticketed lock "not holds" is *unstable* — the environment
        advancing the queue can promote a waiting ticket to being served.
        Client pre/postconditions should use :meth:`quiescent` instead.
        """

    @abstractmethod
    def quiescent(self, state: State) -> bool:
        """Whether the observing thread makes *no claim* on the lock (no
        ownership, no queued tickets).  Stable under interference — the
        right client-side pre/postcondition (cf. §2.2.3)."""

    @abstractmethod
    def locked(self, state: State) -> bool:
        """Whether anyone holds the lock in ``state``."""

    @abstractmethod
    def resource(self, state: State) -> Heap:
        """The protected resource sub-heap."""

    @abstractmethod
    def client_self(self, state: State) -> Hashable:
        """The observing thread's client-PCM contribution."""

    @abstractmethod
    def client_total(self, state: State) -> Hashable:
        """``self • other`` in the client PCM."""


def critical_section(
    lock: AbstractLock,
    body: Prog,
    aux_of: Callable[[Any], Any],
) -> Prog:
    """``acquire; body; release`` — the coarse-grained bracket every client
    of the abstract interface uses."""
    from ...core.prog import bind, seq

    return seq(lock.acquire(), bind(body, lambda v: _release_then(lock, aux_of, v)))


def _release_then(lock: AbstractLock, aux_of: Callable[[Any], Any], value: Any) -> Prog:
    from ...core.prog import bind, ret

    return bind(lock.release(aux_of), lambda __: ret(value))
