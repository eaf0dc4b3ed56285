"""Partial commutative monoids (PCMs).

PCMs are one of the two unifying abstractions of FCSL (§1, §2.2.1): a set
``U`` with an associative, commutative join ``•`` and a unit element, where
*partiality* captures that not every combination of thread contributions is
meaningful (e.g. two threads cannot both own a lock).

Following the union-map treatment in the Coq development, we make joins
*total* over a carrier that contains invalid elements: ``join`` never raises,
but may return an element for which ``valid`` is false.  Invalid elements
absorb joins.  This gives the familiar algebra::

    valid (a • b)  ->  valid a /\\ valid b        (validity monotonicity)
    a • unit = a                                   (unit)
    a • b = b • a                                  (commutativity)
    a • (b • c) = (a • b) • c                      (associativity)

Every PCM also knows how to enumerate a finite sample of its elements
(:meth:`PCM.sample`); the verifier and the hypothesis-based law tests use
the sample as the model over which universally-quantified obligations are
discharged (see DESIGN.md §1 on the substitution of dependent types by
finite-model checking).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Hashable, Iterable, Sequence


@dataclass(frozen=True)
class Undef:
    """The distinguished invalid element shared by PCMs without a native one.

    Carries a ``reason`` for diagnostics; equality ignores it, so all
    undefined elements of a PCM are identified (as in the Coq model).
    """

    reason: str = "undefined"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Undef)

    def __hash__(self) -> int:
        return hash("pcm.Undef")

    def __repr__(self) -> str:
        return f"Undef({self.reason})"


#: Canonical undefined element.
UNDEF = Undef()


class PCM(ABC):
    """Abstract partial commutative monoid.

    Elements are immutable, hashable Python values.  Subclasses implement
    :meth:`unit`, :meth:`join` and :meth:`valid`; :meth:`join` must be total
    and return an invalid element instead of raising on undefined
    combinations.
    """

    #: Human-readable name used in diagnostics and reports.
    name: str = "pcm"

    @property
    @abstractmethod
    def unit(self) -> Hashable:
        """The unit element (always valid)."""

    @abstractmethod
    def join(self, a: Hashable, b: Hashable) -> Hashable:
        """The (total) join ``a • b``."""

    @abstractmethod
    def valid(self, x: Hashable) -> bool:
        """Whether ``x`` is a defined element of the monoid."""

    # -- derived operations ---------------------------------------------------

    def join_all(self, elems: Iterable[Hashable]) -> Hashable:
        """Iterated join; the empty iterable yields the unit."""
        acc = self.unit
        for e in elems:
            acc = self.join(acc, e)
        return acc

    def is_unit(self, x: Hashable) -> bool:
        return x == self.unit

    # -- finite model support --------------------------------------------------

    def sample(self) -> Sequence[Hashable]:
        """A finite, representative sample of elements, starting with unit.

        Used by law checkers and by the stability/metatheory model checkers.
        Subclasses should override to return a richer sample; the default is
        just the unit.
        """
        return (self.unit,)

    def splits(self, x: Hashable) -> Sequence[tuple[Hashable, Hashable]]:
        """Pairs ``(a, b)`` with ``a • b = x`` — the ways ``x`` can be
        divided between two threads at a fork.

        Used by the fork-join closure check and by the subjectivity
        ablation.  The default returns only the trivial splits; instances
        with richer structure override this.
        """
        return ((self.unit, x), (x, self.unit))

    def __repr__(self) -> str:
        return f"<PCM {self.name}>"


class SubPCMError(ValueError):
    """Raised when a value outside the intended carrier reaches a PCM."""


def require(cond: bool, message: str) -> None:
    """Internal consistency guard used by PCM implementations."""
    if not cond:
        raise SubPCMError(message)


class UnitPCM(PCM):
    """The trivial one-element PCM; unit is ``()``.

    Used as the ``other`` placeholder in closed-world (``hide``) reasoning:
    fixing ``other`` to the unit of this PCM signals absence of interference
    (§3.5).
    """

    name = "unit"

    @property
    def unit(self) -> tuple:
        return ()

    def join(self, a: Any, b: Any) -> Any:
        if a != () or b != ():
            return UNDEF
        return ()

    def valid(self, x: Any) -> bool:
        return x == ()

    def sample(self) -> Sequence[Any]:
        return ((),)
