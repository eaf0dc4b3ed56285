"""The value types the checkers churn: states, heaps and histories.

``State.set``/``transpose``, the ``Heap`` updates and the history PCM
build their results through private constructors that skip
re-validating parts already known valid.  These tests pin what must not
move with that: pickling, immutability, ``hash``/``==`` (the same
formulas as the plain dataclass and constructors), and the errors every
public constructor raises.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.core.state import State, SubjState
from repro.heap import EMPTY, NULL, UNDEF, Heap, pts, ptr
from repro.pcm.histories import EMPTY_HISTORY, HistEntry, History, HistoryPCM, hist


def sample_heap() -> Heap:
    return pts(ptr(1), 0).join(pts(ptr(2), ("a", 1)))


def sample_history() -> History:
    return hist((1, "s0", "s1"), (2, "s1", "s2"), (4, "s3", "s4"))


def sample_state() -> State:
    return State(
        {
            "tb": SubjState(sample_history(), sample_heap(), EMPTY_HISTORY),
            "pv": SubjState(pts(ptr(3), 5), EMPTY, UNDEF),
        }
    )


def roundtrip(value):
    return pickle.loads(pickle.dumps(value))


VALUES = {
    "state": sample_state,
    "subj": lambda: SubjState(1, sample_heap(), frozenset({2})),
    "heap": sample_heap,
    "empty-heap": lambda: EMPTY,
    "undef-heap": lambda: UNDEF,
    "history": sample_history,
}


class TestPickle:
    @pytest.mark.parametrize("kind", sorted(VALUES))
    def test_roundtrip(self, kind):
        value = VALUES[kind]()
        copy = roundtrip(value)
        assert type(copy) is type(value)
        assert copy == value and hash(copy) == hash(value)
        assert repr(copy) == repr(value)

    def test_undef_stays_the_singleton(self):
        assert roundtrip(UNDEF) is UNDEF
        assert not roundtrip(UNDEF).is_valid

    @pytest.mark.parametrize("kind", ["state", "subj", "heap", "history"])
    def test_cached_hash_is_not_pickled(self, kind):
        # String hashing is salted per process: a hash cached here would
        # be wrong in the process that unpickles it.
        value = VALUES[kind]()
        hash(value)
        assert value._hash is not None
        assert roundtrip(value)._hash is None

    def test_roundtrip_keeps_validation(self):
        copy = roundtrip(sample_state())
        with pytest.raises(TypeError):
            copy.set("tb", "not a component")


class TestSubjStateImmutable:
    @pytest.mark.parametrize("field", ["self_", "joint", "other", "_hash"])
    def test_field_assignment_raises(self, field):
        comp = SubjState(1, 2, 3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(comp, field, 9)
        assert (comp.self_, comp.joint, comp.other) == (1, 2, 3)

    def test_no_new_attributes(self):
        comp = SubjState(1, 2, 3)
        assert not hasattr(comp, "__dict__")
        with pytest.raises((dataclasses.FrozenInstanceError, AttributeError, TypeError)):
            comp.extra = 1  # type: ignore[attr-defined]

    def test_hash_does_not_change_equality(self):
        a, b = SubjState(1, 2, 3), SubjState(1, 2, 3)
        hash(a)
        assert a == b and b == a
        assert a != SubjState(1, 2, 4)
        assert repr(a) == "[1 | 2 | 3]"


class TestHashAndEquality:
    """The hash formulas are the ones the plain types used, so set and
    dict iteration orders over these values do not move."""

    def test_subj_state(self):
        h = sample_heap()
        assert hash(SubjState(1, h, 2)) == hash((1, h, 2))
        assert SubjState(1, h, 2) == SubjState(1, sample_heap(), 2)

    def test_state(self):
        state = sample_state()
        assert hash(state) == hash(frozenset(state.items()))
        assert hash(state) == hash(sample_state())

    def test_heap(self):
        heap = sample_heap()
        assert hash(heap) == hash(frozenset(heap.items()))
        assert hash(UNDEF) == hash("Heap.UNDEF")

    def test_history(self):
        history = sample_history()
        assert hash(history) == hash(frozenset(history.items()))

    def test_state_updates_match_fresh_states(self):
        state = sample_state()
        comp = SubjState(EMPTY_HISTORY, sample_heap(), sample_history())
        updated = state.set("tb", comp)
        fresh = State({"tb": comp, "pv": state["pv"]})
        assert updated == fresh and hash(updated) == hash(fresh)
        flipped = state.transpose()
        assert flipped == State({lbl: c.transpose() for lbl, c in state.items()})
        assert flipped.transpose() == state
        assert hash(flipped.transpose()) == hash(state)

    def test_heap_updates_match_fresh_heaps(self):
        heap = sample_heap()
        p1, p2 = ptr(1), ptr(2)
        cases = [
            (heap.join(pts(ptr(3), 1)), {p1: 0, p2: ("a", 1), ptr(3): 1}),
            (heap.update(p1, 7), {p1: 7, p2: ("a", 1)}),
            (heap.free(p2), {p1: 0}),
            (heap.restrict([p2, ptr(9)]), {p2: ("a", 1)}),
            (heap.remove_all([p2]), {p1: 0}),
        ]
        for built, cells in cases:
            fresh = Heap(cells)
            assert built.is_valid
            assert built == fresh and hash(built) == hash(fresh)
        assert heap.join(pts(p1, 1)) is UNDEF
        assert heap.update(ptr(9), 1) is UNDEF

    def test_history_pcm_matches_fresh_histories(self):
        pcm = HistoryPCM()
        history = sample_history()
        splits = pcm.splits(history)
        assert len(splits) == 8
        for a, b in splits:
            assert a == History(dict(a.items())) and hash(a) == hash(History(dict(a.items())))
            joined = pcm.join(a, b)
            assert joined == history and hash(joined) == hash(history)
        assert splits[0] == (EMPTY_HISTORY, history)
        assert splits[-1] == (history, EMPTY_HISTORY)
        assert not pcm.valid(pcm.join(history, hist((2, "x", "y"))))


class TestPublicConstructorsValidate:
    def test_heap_rejects_null(self):
        with pytest.raises(ValueError):
            Heap({NULL: 1})

    def test_heap_rejects_non_pointer_keys(self):
        with pytest.raises(TypeError):
            Heap({1: 1})

    @pytest.mark.parametrize("ts", [0, -1, True, "1", 1.0])
    def test_history_rejects_bad_timestamps(self, ts):
        with pytest.raises(ValueError):
            History({ts: HistEntry("a", "b")})

    def test_history_rejects_non_entries(self):
        with pytest.raises(TypeError):
            History({1: ("a", "b")})

    def test_state_set_type_checks_the_new_component(self):
        state = sample_state()
        with pytest.raises(TypeError):
            state.set("tb", ("not", "a", "component"))
        with pytest.raises(TypeError):
            state.set(3, SubjState(1, 2, 3))  # type: ignore[arg-type]
        assert state == sample_state()

    def test_state_rejects_bad_parts(self):
        with pytest.raises(TypeError):
            State({"tb": 1})
        with pytest.raises(TypeError):
            State({1: SubjState(1, 2, 3)})
