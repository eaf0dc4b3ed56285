"""Pointers for the heap model.

The paper represents graphs and concurrent data structures in a heap whose
domain is a set of pointers, with a distinguished ``null`` pointer that is
never in the domain of any heap.  We model pointers as immutable wrappers
around positive integers; ``NULL`` wraps 0 and is falsy, so idioms like
``if x:`` read naturally in ported code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable


@dataclass(frozen=True, order=True, slots=True)
class Ptr:
    """A heap pointer.  ``Ptr(0)`` is the null pointer.

    Every heap lookup hashes and compares pointers, so the hash is
    computed once, at construction.  It is exactly the hash the generated
    dataclass ``__hash__`` would give (``hash((addr,))``), so the
    iteration order of sets and dicts of pointers is unchanged."""

    addr: int
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.addr < 0:
            raise ValueError(f"pointer address must be non-negative, got {self.addr}")
        object.__setattr__(self, "_hash", hash((self.addr,)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.addr == other.addr
        return NotImplemented

    def __reduce__(self) -> tuple:
        # The cached hash is rebuilt by the constructor on unpickling.
        return (Ptr, (self.addr,))

    @property
    def is_null(self) -> bool:
        return self.addr == 0

    def __bool__(self) -> bool:
        return self.addr != 0

    def __repr__(self) -> str:
        return "null" if self.addr == 0 else f"p{self.addr}"


#: The null pointer.  Never a member of any heap domain.
NULL = Ptr(0)


def ptr(addr: int) -> Ptr:
    """Construct a pointer from a raw address (0 yields ``NULL``)."""
    return Ptr(addr)


def ptrs(*addrs: int) -> tuple[Ptr, ...]:
    """Construct several pointers at once: ``ptrs(1, 2, 3)``."""
    return tuple(Ptr(a) for a in addrs)


def fresh_ptr(used: Iterable[Ptr]) -> Ptr:
    """Return a pointer not in ``used`` (and not null).

    Deterministic: always the smallest unused positive address, so tests
    and replayed schedules allocate identically.
    """
    taken = {p.addr for p in used}
    addr = 1
    while addr in taken:
        addr += 1
    return Ptr(addr)
