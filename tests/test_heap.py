"""Unit tests for the union-map heap substrate."""

import pytest

from repro.heap import EMPTY, NULL, UNDEF, Heap, empty, fresh_ptr, heap_of, join_all, pts, ptr, ptrs


class TestPointers:
    def test_null_is_falsy(self):
        assert not NULL
        assert NULL.is_null

    def test_non_null_is_truthy(self):
        assert ptr(3)
        assert not ptr(3).is_null

    def test_ptr_zero_is_null(self):
        assert ptr(0) == NULL

    def test_negative_address_rejected(self):
        with pytest.raises(ValueError):
            ptr(-1)

    def test_ptrs_builds_many(self):
        assert ptrs(1, 2) == (ptr(1), ptr(2))

    def test_ordering(self):
        assert ptr(1) < ptr(2)

    def test_fresh_ptr_smallest_unused(self):
        assert fresh_ptr([ptr(1), ptr(3)]) == ptr(2)

    def test_fresh_ptr_never_null(self):
        assert fresh_ptr([]) == ptr(1)

    def test_repr(self):
        assert repr(NULL) == "null"
        assert repr(ptr(7)) == "p7"

    def test_hash_is_the_field_tuples(self):
        # Exactly the generated dataclass hash, so set and dict iteration
        # orders over pointers stay what they were.
        for addr in (0, 1, 7, 2**40):
            assert hash(ptr(addr)) == hash((addr,))

    def test_equality_and_ordering(self):
        assert ptr(3) == ptr(3) and ptr(3) != ptr(4)
        assert ptr(3) != 3 and ptr(3) != (3,)
        assert sorted([ptr(3), NULL, ptr(1)]) == [NULL, ptr(1), ptr(3)]
        assert ptr(2) <= ptr(2) < ptr(5) and ptr(5) > ptr(2)

    def test_pickle_and_deepcopy_round_trip(self):
        import copy
        import pickle

        for p in (NULL, ptr(5)):
            for twin in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p)):
                assert twin == p and hash(twin) == hash(p)
                assert bool(twin) == bool(p) and repr(twin) == repr(p)
        assert pts(ptr(5), "x").dom() == {copy.deepcopy(ptr(5))}

    def test_immutable(self):
        from dataclasses import FrozenInstanceError

        with pytest.raises(FrozenInstanceError):
            ptr(1).addr = 2


class TestHeapConstruction:
    def test_empty_heap_valid(self):
        assert empty().is_valid
        assert empty().is_empty

    def test_pts_singleton(self):
        h = pts(ptr(1), 42)
        assert h[ptr(1)] == 42
        assert h.dom() == {ptr(1)}

    def test_pts_at_null_rejected(self):
        with pytest.raises(ValueError):
            pts(NULL, 0)

    def test_heap_of(self):
        h = heap_of({ptr(1): "a", ptr(2): "b"})
        assert len(h) == 2

    def test_null_in_domain_rejected(self):
        with pytest.raises(ValueError):
            heap_of({NULL: 1})

    def test_non_ptr_domain_rejected(self):
        with pytest.raises(TypeError):
            heap_of({1: 1})  # type: ignore[dict-item]


class TestHeapJoin:
    def test_disjoint_join(self):
        h = pts(ptr(1), "a").join(pts(ptr(2), "b"))
        assert h.is_valid
        assert h.dom() == {ptr(1), ptr(2)}

    def test_overlapping_join_undefined(self):
        h = pts(ptr(1), "a").join(pts(ptr(1), "b"))
        assert not h.is_valid

    def test_undef_absorbs(self):
        assert not UNDEF.join(pts(ptr(1), 0)).is_valid
        assert not pts(ptr(1), 0).join(UNDEF).is_valid

    def test_unit_law(self):
        h = pts(ptr(1), "a")
        assert h.join(EMPTY) == h
        assert EMPTY.join(h) == h

    @pytest.mark.parametrize("unit", [EMPTY, Heap({})], ids=["EMPTY", "fresh-empty"])
    def test_empty_operand_returns_the_other(self, unit):
        h = heap_of({ptr(1): "a", ptr(2): ("b", 3)})
        slow = Heap(dict(h.items()))
        for joined in (h.join(unit), unit.join(h)):
            assert joined is h
            assert joined == slow and hash(joined) == hash(slow)
            assert joined.is_valid and joined.dom() == slow.dom()

    @pytest.mark.parametrize("unit", [EMPTY, Heap({})], ids=["EMPTY", "fresh-empty"])
    def test_undef_absorbs_the_empty_heap(self, unit):
        assert UNDEF.join(unit) is UNDEF
        assert unit.join(UNDEF) is UNDEF

    def test_empty_join_empty_is_the_valid_empty_heap(self):
        for joined in (EMPTY.join(EMPTY), EMPTY.join(Heap({})), Heap({}).join(EMPTY)):
            assert joined.is_valid and joined.is_empty and len(joined) == 0
            assert joined == EMPTY and hash(joined) == hash(Heap({}))

    def test_commutative(self):
        a, b = pts(ptr(1), 1), pts(ptr(2), 2)
        assert a.join(b) == b.join(a)

    def test_plus_operator(self):
        assert (pts(ptr(1), 1) + pts(ptr(2), 2)).dom() == {ptr(1), ptr(2)}

    def test_join_all(self):
        h = join_all([pts(ptr(i), i) for i in range(1, 4)])
        assert h.dom() == {ptr(1), ptr(2), ptr(3)}

    def test_join_all_empty(self):
        assert join_all([]) == EMPTY


class TestHeapOperations:
    def test_free_removes(self):
        h = pts(ptr(1), 1) + pts(ptr(2), 2)
        assert h.free(ptr(1)).dom() == {ptr(2)}

    def test_free_absent_is_noop(self):
        h = pts(ptr(1), 1)
        assert h.free(ptr(9)) == h

    def test_free_undef(self):
        assert not UNDEF.free(ptr(1)).is_valid

    def test_update_existing(self):
        h = pts(ptr(1), 1).update(ptr(1), 99)
        assert h[ptr(1)] == 99

    def test_update_dangling_faults(self):
        assert not pts(ptr(1), 1).update(ptr(2), 0).is_valid

    def test_update_preserves_footprint(self):
        h = pts(ptr(1), 1) + pts(ptr(2), 2)
        assert h.update(ptr(1), 0).dom() == h.dom()

    def test_alloc_fresh(self):
        p, h = pts(ptr(1), 1).alloc("new")
        assert p == ptr(2)
        assert h[p] == "new"

    def test_alloc_in_undef_raises(self):
        with pytest.raises(ValueError):
            UNDEF.alloc(0)

    def test_restrict(self):
        h = pts(ptr(1), 1) + pts(ptr(2), 2)
        assert h.restrict([ptr(1)]).dom() == {ptr(1)}

    def test_remove_all(self):
        h = pts(ptr(1), 1) + pts(ptr(2), 2)
        assert h.remove_all([ptr(1)]).dom() == {ptr(2)}

    def test_read_undef_raises(self):
        with pytest.raises(KeyError):
            UNDEF[ptr(1)]

    def test_get_default(self):
        assert pts(ptr(1), 1).get(ptr(9), "d") == "d"

    def test_contains(self):
        h = pts(ptr(1), 1)
        assert ptr(1) in h
        assert ptr(2) not in h
        assert ptr(1) not in UNDEF


class TestHeapEquality:
    def test_structural_equality(self):
        assert pts(ptr(1), 1) == heap_of({ptr(1): 1})

    def test_hashable(self):
        assert hash(pts(ptr(1), 1)) == hash(heap_of({ptr(1): 1}))
        assert len({EMPTY, empty()}) == 1

    def test_undef_equal_to_undef(self):
        assert UNDEF == Heap(_valid=False)

    def test_undef_not_equal_to_empty(self):
        assert UNDEF != EMPTY

    def test_repr_smoke(self):
        assert "p1" in repr(pts(ptr(1), 1))
        assert "UNDEF" in repr(UNDEF)
        assert "empty" in repr(EMPTY)
