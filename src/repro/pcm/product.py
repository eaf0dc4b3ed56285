"""PCM combinators: products and lifting.

The paper's case studies use "client-provided PCMs" and "lifted PCMs —
products of basic PCMs" (§6).  ``ProductPCM`` forms the component-wise
product of several PCMs (e.g. mutex × client contribution for the
CAS-lock); ``LiftPCM`` freely adjoins a unit to a partial commutative
*semigroup*, which is how a PCM is built from a carrier whose native
combination has no identity (e.g. exclusive single-value ownership).
"""

from __future__ import annotations

from itertools import product as iter_product
from typing import Any, Callable, Hashable, Sequence

from .base import PCM, UNDEF, Undef


class ProductPCM(PCM):
    """Component-wise product of PCMs; elements are tuples."""

    def __init__(self, *components: PCM):
        if not components:
            raise ValueError("ProductPCM needs at least one component")
        self._components = components
        self._unit = tuple(c.unit for c in components)
        self.name = " x ".join(c.name for c in components)

    @property
    def components(self) -> tuple[PCM, ...]:
        return self._components

    @property
    def unit(self) -> tuple:
        return self._unit

    def join(self, a: Any, b: Any) -> Any:
        if not self._in_carrier(a) or not self._in_carrier(b):
            return UNDEF
        return tuple(c.join(x, y) for c, x, y in zip(self._components, a, b))

    def valid(self, x: Any) -> bool:
        return self._in_carrier(x) and all(
            c.valid(v) for c, v in zip(self._components, x)
        )

    def _in_carrier(self, x: Any) -> bool:
        return isinstance(x, tuple) and len(x) == len(self._components)

    def sample(self) -> Sequence[tuple]:
        # Cartesian product of component samples, capped to keep models small.
        per_component = [list(c.sample())[:4] for c in self._components]
        return tuple(iter_product(*per_component))

    def splits(self, x: Any) -> Sequence[tuple[tuple, tuple]]:
        if not self._in_carrier(x):
            return ()
        per_component = [
            list(c.splits(v))[:8] for c, v in zip(self._components, x)
        ]
        out = []
        for combo in iter_product(*per_component):
            left = tuple(pair[0] for pair in combo)
            right = tuple(pair[1] for pair in combo)
            out.append((left, right))
        return tuple(out)

    def project(self, x: tuple, index: int) -> Hashable:
        """The ``index``-th component of a product element."""
        return x[index]

    def inject(self, index: int, value: Hashable) -> tuple:
        """The element that is ``value`` at ``index`` and unit elsewhere."""
        return tuple(
            value if i == index else c.unit for i, c in enumerate(self._components)
        )


class _Lifted:
    """Wrapper marking a defined (non-unit) element of a lifted PCM."""

    __slots__ = ("value",)

    def __init__(self, value: Hashable):
        self.value = value

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _Lifted):
            return NotImplemented
        return self.value == other.value

    def __hash__(self) -> int:
        return hash((_Lifted, self.value))

    def __repr__(self) -> str:
        return f"Up({self.value!r})"


#: The adjoined unit of a lifted PCM.
LIFT_UNIT = ("lift-unit",)


class LiftPCM(PCM):
    """Freely adjoin a unit to a partial commutative semigroup.

    The semigroup is given by its (total-with-Undef) binary operation
    ``op`` and a validity predicate on raw values.  Elements of the lifted
    PCM are ``LIFT_UNIT`` or ``Up(v)`` (built with :meth:`up`).

    The common instance is *exclusive ownership*: ``op`` always undefined,
    so ``Up(v) • Up(w)`` never joins — a single-owner cell.
    """

    def __init__(
        self,
        op: Callable[[Hashable, Hashable], Hashable] | None = None,
        is_valid_raw: Callable[[Hashable], bool] | None = None,
        raw_sample: Sequence[Hashable] = (0, 1),
        name: str = "lift",
    ):
        self._op = op
        self._is_valid_raw = is_valid_raw or (lambda __: True)
        self._raw_sample = tuple(raw_sample)
        self.name = name

    @property
    def unit(self) -> Any:
        return LIFT_UNIT

    def up(self, value: Hashable) -> _Lifted:
        """Inject a raw semigroup value into the lifted carrier."""
        return _Lifted(value)

    def down(self, x: Any) -> Hashable:
        """Project a defined element back to its raw value."""
        if not isinstance(x, _Lifted):
            raise ValueError(f"cannot project {x!r}: not a lifted value")
        return x.value

    def join(self, a: Any, b: Any) -> Any:
        if isinstance(a, Undef) or isinstance(b, Undef):
            return UNDEF
        if a == LIFT_UNIT:
            return b
        if b == LIFT_UNIT:
            return a
        if not isinstance(a, _Lifted) or not isinstance(b, _Lifted):
            return UNDEF
        if self._op is None:
            return Undef("exclusive values cannot be combined")
        combined = self._op(a.value, b.value)
        if isinstance(combined, Undef):
            return combined
        return _Lifted(combined)

    def valid(self, x: Any) -> bool:
        if x == LIFT_UNIT:
            return True
        return isinstance(x, _Lifted) and self._is_valid_raw(x.value)

    def sample(self) -> Sequence[Any]:
        return (LIFT_UNIT,) + tuple(_Lifted(v) for v in self._raw_sample)


def exclusive_pcm(raw_sample: Sequence[Hashable] = (0, 1), name: str = "exclusive") -> LiftPCM:
    """The exclusive-ownership PCM: at most one thread holds the value."""
    return LiftPCM(op=None, raw_sample=raw_sample, name=name)
