"""Unit tests for subjective states and the label getters."""

import ast
import pickle
from pathlib import Path

import pytest

from repro.core.state import Delta, RecordingState, State, SubjState, record, state_of, subj
from repro.heap import EMPTY, pts, ptr


class TestSubjState:
    def test_transpose_swaps_self_other(self):
        s = subj(1, "j", 2)
        assert s.transpose() == subj(2, "j", 1)

    def test_transpose_involutive(self):
        s = subj(frozenset("a"), EMPTY, frozenset("b"))
        assert s.transpose().transpose() == s

    def test_with_updates(self):
        s = subj(1, 2, 3)
        assert s.with_self(9) == subj(9, 2, 3)
        assert s.with_joint(9) == subj(1, 9, 3)
        assert s.with_other(9) == subj(1, 2, 9)

    def test_repr(self):
        assert repr(subj(1, 2, 3)) == "[1 | 2 | 3]"


class TestState:
    def test_getters(self):
        s = state_of(a=subj(1, 2, 3))
        assert s.self_of("a") == 1
        assert s.joint_of("a") == 2
        assert s.other_of("a") == 3

    def test_missing_label_raises(self):
        with pytest.raises(KeyError):
            state_of(a=subj(1, 2, 3))["b"]

    def test_labels(self):
        s = state_of(a=subj(1, 2, 3), b=subj(4, 5, 6))
        assert s.labels() == {"a", "b"}

    def test_set_is_functional(self):
        s1 = state_of(a=subj(1, 2, 3))
        s2 = s1.set("a", subj(9, 2, 3))
        assert s1.self_of("a") == 1
        assert s2.self_of("a") == 9

    def test_update(self):
        s = state_of(a=subj(1, 2, 3)).update("a", lambda c: c.with_joint(0))
        assert s.joint_of("a") == 0

    def test_remove(self):
        s = state_of(a=subj(1, 2, 3), b=subj(4, 5, 6)).remove("a")
        assert s.labels() == {"b"}

    def test_restrict(self):
        s = state_of(a=subj(1, 2, 3), b=subj(4, 5, 6)).restrict({"a"})
        assert s.labels() == {"a"}

    def test_merge_disjoint(self):
        s = state_of(a=subj(1, 2, 3)).merge(state_of(b=subj(4, 5, 6)))
        assert s.labels() == {"a", "b"}

    def test_merge_conflict_raises(self):
        with pytest.raises(ValueError):
            state_of(a=subj(1, 2, 3)).merge(state_of(a=subj(9, 9, 9)))

    def test_merge_agreeing_ok(self):
        s = state_of(a=subj(1, 2, 3)).merge(state_of(a=subj(1, 2, 3)))
        assert s.labels() == {"a"}

    def test_transpose_whole_state(self):
        s = state_of(a=subj(1, 2, 3), b=subj(4, 5, 6)).transpose()
        assert s.self_of("a") == 3
        assert s.other_of("b") == 4

    def test_hashable_and_eq(self):
        s1 = state_of(a=subj(1, EMPTY, 3))
        s2 = state_of(a=subj(1, EMPTY, 3))
        assert s1 == s2
        assert hash(s1) == hash(s2)
        assert len({s1, s2}) == 1

    def test_heap_components(self):
        h = pts(ptr(1), 10)
        s = state_of(pv=subj(h, EMPTY, EMPTY))
        assert s.self_of("pv")[ptr(1)] == 10

    def test_non_string_label_rejected(self):
        with pytest.raises(TypeError):
            State({1: subj(1, 2, 3)})  # type: ignore[dict-item]

    def test_non_subjstate_rejected(self):
        with pytest.raises(TypeError):
            State({"a": (1, 2, 3)})  # type: ignore[dict-item]

    def test_contains(self):
        s = state_of(a=subj(1, 2, 3))
        assert "a" in s
        assert "z" not in s


def _public_methods(cls: type) -> set[str]:
    """The callables ``cls`` defines, but for ``__init__`` and private names."""
    return {
        name
        for name, value in vars(cls).items()
        if callable(value)
        and name != "__init__"
        and (name.startswith("__") or not name.startswith("_"))
    }


BASE = state_of(a=subj(1, 2, 3), b=subj(4, 5, 6), c=subj(7, 8, 9))


class TestRecord:
    """``record`` logs which labels a run reads and how its outputs
    differ from its input; the closure's source memo rests on it."""

    def test_every_state_method_is_recorded_or_whole_state(self):
        methods = _public_methods(State)
        assert set(RecordingState.WHOLE_STATE) <= methods
        assert methods <= set(vars(RecordingState))

    @pytest.mark.parametrize(
        "read",
        [
            lambda s: "a" in s,
            lambda s: s["a"],
            lambda s: s.self_of("a"),
            lambda s: s.joint_of("a"),
            lambda s: s.other_of("a"),
        ],
        ids=["in", "[]", "self_of", "joint_of", "other_of"],
    )
    def test_label_reads_are_logged(self, read):
        def run(s):
            read(s)
            yield s

        assert record(run, BASE) == ((frozenset("a"), (Delta(False, ()),)))

    @pytest.mark.parametrize("name", RecordingState.WHOLE_STATE)
    def test_whole_state_reads_are_unrecordable(self, name):
        calls = {
            "remove": ("a",),
            "restrict": (["a"],),
            "merge": (BASE,),
            "__eq__": (BASE,),
        }

        def run(s):
            getattr(s, name)(*calls.get(name, ()))
            yield s

        assert record(run, BASE) is None

    def test_pickling_and_set_iteration_are_whole_state(self):
        assert record(lambda s: [pickle.loads(pickle.dumps(s))], BASE) is None
        assert record(lambda s: [s for __ in {s}], BASE) is None

    def test_outputs_not_derived_from_the_input_are_unrecordable(self):
        assert record(lambda s: [BASE], BASE) is None
        assert record(lambda s: [s, State({})], BASE) is None

    def test_writes_are_replayed_on_an_agreeing_state(self):
        def run(s):
            yield s.update("a", lambda c: c.with_self(c.self_ + 1))
            yield s.set("c", subj(0, 0, 0))

        reads, deltas = record(run, BASE)
        assert reads == frozenset("a")
        other = BASE.set("b", subj(0, 0, 0)).set("c", subj(1, 1, 1))
        assert [d.apply(other) for d in deltas] == list(run(other))

    def test_transpose_logs_nothing_and_flips_what_is_not_written(self):
        def run(s):
            flipped = s.transpose()
            yield flipped.set("b", flipped["b"].with_joint(0)).transpose()
            yield flipped

        reads, deltas = record(run, BASE)
        assert reads == frozenset("b")
        assert [d.flipped for d in deltas] == [False, True]
        other = BASE.set("a", subj(0, 1, 2))
        assert [d.apply(other) for d in deltas] == list(run(other))

    def test_a_raising_run_propagates(self):
        def run(s):
            yield s["z"]

        with pytest.raises(KeyError):
            record(run, BASE)

    def test_recording_state_is_a_state_equal_to_its_input(self):
        seen = []

        def run(s):
            seen.append(s)
            return [s]

        record(run, BASE)
        (s,) = seen
        assert isinstance(s, RecordingState) and s == BASE and hash(s) == hash(BASE)
        assert repr(s) == repr(BASE)
        assert type(pickle.loads(pickle.dumps(s))) is State


class TestPartsAreSealed:
    """The recorder sees only what goes through ``State``'s methods, so
    no module but ``core/state.py`` may read a state's ``_parts``."""

    def test_no_other_module_names_parts(self):
        import repro

        root = Path(repro.__file__).parent
        offenders = []
        for path in sorted(root.rglob("*.py")):
            if path == root / "core" / "state.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Attribute) and node.attr == "_parts":
                    offenders.append(f"{path.relative_to(root)}:{node.lineno}")
        assert offenders == []
