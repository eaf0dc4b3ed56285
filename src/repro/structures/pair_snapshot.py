"""The atomic pair snapshot (§6, after Qadeer et al. [43] / Liang & Feng [34]).

Two shared cells ``X`` and ``Y``, each stored with a *version* counter.
Writers bump a cell's content and version in one RMW; ``read_pair``
obtains a consistent snapshot lock-free::

    read_pair() = loop {
        (cx, vx)  <- read X
        (cy, __)  <- read Y
        (__, vx') <- read X
        if vx == vx' then return (cx, cy) else retry
    }

If ``X``'s version did not change across the interval, ``X`` held ``cx``
throughout; in particular the pair ``(cx, cy)`` was *simultaneously*
present at the moment ``Y`` was read — a linearization point in the middle
of the interval, which is what makes this example interesting.

The spec follows the paper's history treatment ([47]): ``self``/``other``
are **time-stamped histories** whose entries record atomic changes of the
full abstract state ``(cx, cy, vx, vy)`` — contents *and* versions, so
idempotent content writes (which still bump the version) are first-class.
Coherence ties the heap to the replayed history; the fact justifying the
version check — versions only grow, and an unchanged version pins the
content — is checked in its stable form in the verification below.

``read_pair``'s postcondition: the returned pair occurred as the
pair-state at some timestamp between invocation and return, and the
reader's own history is unchanged (reading contributes nothing).

Table 2: this structure uses only its own ``ReadPair`` concurroid.
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping, Sequence

from ..core.action import Action
from ..core.concurroid import Concurroid, Transition
from ..core.prog import Prog, act, bind, ffix, ret
from ..core.spec import Spec
from ..core.state import State, SubjState, state_of
from ..heap import Heap, Ptr, heap_of, ptr
from ..pcm.base import PCM
from ..pcm.histories import History, HistEntry, HistoryPCM

RP_LABEL = "rp"
X = ptr(1)
Y = ptr(2)

#: A pair-state: the contents of (X, Y).
Pair = tuple

#: The full abstract state recorded in history entries: (cx, cy, vx, vy).
AbsState = tuple


class PairSnapshotConcurroid(Concurroid):
    """The ``ReadPair`` concurroid: versioned cells + write histories."""

    def __init__(
        self,
        label: str = RP_LABEL,
        initial_pair: Pair = (0, 0),
        value_domain: Sequence[Any] = (0, 1),
        max_writes: int = 3,
    ):
        self._label = label
        self._initial = (initial_pair[0], initial_pair[1], 0, 0)
        self._values = tuple(value_domain)
        #: Model bound on total writes (history length) for finite closure.
        self._max_writes = max_writes
        self._pcm = HistoryPCM()

    @property
    def labels(self) -> tuple[str, ...]:
        return (self._label,)

    def pcms(self) -> Mapping[str, PCM]:
        return {self._label: self._pcm}

    # -- projections ----------------------------------------------------------------

    def cells(self, state: State) -> tuple[tuple, tuple]:
        joint = state.joint_of(self._label)
        return joint[X], joint[Y]

    def pair(self, state: State) -> Pair:
        (cx, __), (cy, ___) = self.cells(state)
        return (cx, cy)

    def abstract(self, state: State) -> AbsState:
        (cx, vx), (cy, vy) = self.cells(state)
        return (cx, cy, vx, vy)

    def total_history(self, state: State) -> History:
        comp = state[self._label]
        return self._pcm.join(comp.self_, comp.other)

    # -- coherence --------------------------------------------------------------------

    def coherent(self, state: State) -> bool:
        if self._label not in state:
            return False
        comp = state[self._label]
        joint = comp.joint
        if not isinstance(joint, Heap) or joint.dom() != frozenset((X, Y)):
            return False
        for p in (X, Y):
            cell = joint[p]
            if not (isinstance(cell, tuple) and len(cell) == 2):
                return False
        total = self._pcm.join(comp.self_, comp.other)
        if not self._pcm.valid(total):
            return False
        if not total.continuous_from(self._initial):
            return False
        return total.final_state(self._initial) == self.abstract(state)

    # -- transitions --------------------------------------------------------------------

    def transitions(self) -> Sequence[Transition]:
        lbl = self._label

        def write_params(state: State) -> Iterator[tuple[Ptr, Any]]:
            if len(self.total_history(state)) >= self._max_writes:
                return
            for target in (X, Y):
                for v in self._values:
                    yield (target, v)

        def write_requires(state: State, param: tuple[Ptr, Any]) -> bool:
            return len(self.total_history(state)) < self._max_writes

        def write_effect(state: State, param: tuple[Ptr, Any]) -> State:
            target, v = param

            def upd(comp: SubjState) -> SubjState:
                before = self.abstract(state)
                after = _write_abs(before, target, v)
                __, version = comp.joint[target]
                new_joint = comp.joint.update(target, (v, version + 1))
                ts = self.total_history(state).last_timestamp() + 1
                new_self = comp.self_.extend(ts, HistEntry(before, after))
                return SubjState(new_self, new_joint, comp.other)

            return state.update(lbl, upd)

        return (Transition(f"{lbl}.write", write_requires, write_effect, write_params),)

    # -- initial states --------------------------------------------------------------------

    def initial(
        self,
        self_hist: History | None = None,
        other_hist: History | None = None,
    ) -> SubjState:
        """A state whose heap replays the supplied (default empty) histories."""
        self_hist = self_hist if self_hist is not None else History()
        other_hist = other_hist if other_hist is not None else History()
        total = self._pcm.join(self_hist, other_hist)
        cx, cy, vx, vy = total.final_state(self._initial)
        joint = heap_of({X: (cx, vx), Y: (cy, vy)})
        return SubjState(self_hist, joint, other_hist)


# -- atomic actions ------------------------------------------------------------------------


class ReadCellAction(Action):
    """Read one versioned cell: returns ``(content, version)``; idle."""

    def __init__(self, conc: PairSnapshotConcurroid, target: Ptr):
        super().__init__(conc)
        self._conc = conc
        self._target = target
        self.name = f"{conc.label}.read_{'x' if target == X else 'y'}"

    def safe(self, state: State, *args: Any) -> bool:
        return self._conc.label in state and self._target in state.joint_of(self._conc.label)

    def step(self, state: State, *args: Any) -> tuple[tuple, State]:
        return state.joint_of(self._conc.label)[self._target], state


class WriteCellAction(Action):
    """One-RMW write: update content, bump version, extend own history."""

    def __init__(self, conc: PairSnapshotConcurroid, target: Ptr):
        super().__init__(conc)
        self._conc = conc
        self._target = target
        self.name = f"{conc.label}.write_{'x' if target == X else 'y'}"

    def safe(self, state: State, value: Any) -> bool:
        conc = self._conc
        if conc.label not in state:
            return False
        return len(conc.total_history(state)) < conc._max_writes

    def step(self, state: State, value: Any) -> tuple[None, State]:
        conc = self._conc
        comp = state[conc.label]
        before = conc.abstract(state)
        after = _write_abs(before, self._target, value)
        __, version = comp.joint[self._target]
        new_joint = comp.joint.update(self._target, (value, version + 1))
        ts = conc.total_history(state).last_timestamp() + 1
        new_self = comp.self_.extend(ts, HistEntry(before, after))
        return None, state.set(conc.label, SubjState(new_self, new_joint, comp.other))

    def footprint(self, state: State, value: Any) -> frozenset[Ptr]:
        return frozenset((self._target,))


class PairSnapshotActions:
    """Action bundle for one ``ReadPair`` instance."""

    def __init__(self, conc: PairSnapshotConcurroid):
        self.concurroid = conc
        self.read_x = ReadCellAction(conc, X)
        self.read_y = ReadCellAction(conc, Y)
        self.write_x = WriteCellAction(conc, X)
        self.write_y = WriteCellAction(conc, Y)


# -- the program ------------------------------------------------------------------------------


def make_read_pair(actions: PairSnapshotActions) -> Prog:
    """The optimistic snapshot loop."""

    def gen(loop):
        def body() -> Prog:
            return bind(
                act(actions.read_x),
                lambda x1: bind(
                    act(actions.read_y),
                    lambda y1: bind(
                        act(actions.read_x),
                        lambda x2: (
                            ret((x1[0], y1[0])) if x1[1] == x2[1] else loop()
                        ),
                    ),
                ),
            )

        return body

    return ffix(gen, label="read_pair")()


def write_prog(actions: PairSnapshotActions, target: Ptr, value: Any) -> Prog:
    action = actions.write_x if target == X else actions.write_y
    return act(action, value)


# -- specification -----------------------------------------------------------------------------


def _write_abs(before: AbsState, target: Ptr, value: Any) -> AbsState:
    cx, cy, vx, vy = before
    if target == X:
        return (value, cy, vx + 1, vy)
    return (cx, value, vx, vy + 1)


def pair_states_since(conc: PairSnapshotConcurroid, s1: State, s2: State) -> list[Pair]:
    """All pair-states the structure inhabited from ``s1`` to ``s2``:
    the state at invocation plus the ``after`` of every later entry."""
    k1 = conc.total_history(s1).last_timestamp()
    total2 = conc.total_history(s2)
    states = [conc.pair(s1)]
    for ts, entry in total2.items():
        if ts > k1:
            states.append(entry.after[:2])
    return states


def read_pair_spec(conc: PairSnapshotConcurroid) -> Spec:
    """``read_pair`` returns a pair that was simultaneously present at some
    moment during the call, and contributes no history entries itself."""

    def pre(s: State) -> bool:
        return True

    def post(r: Any, s2: State, s1: State) -> bool:
        if s2.self_of(conc.label) != s1.self_of(conc.label):
            return False
        return tuple(r) in set(pair_states_since(conc, s1, s2))

    return Spec("read_pair_tp", pre, post)


def write_spec(conc: PairSnapshotConcurroid, target: Ptr, value: Any) -> Spec:
    """A write adds exactly one entry to the writer's history, whose
    ``after`` shows the written value."""

    index = 0 if target == X else 1

    def pre(s: State) -> bool:
        return len(conc.total_history(s)) < conc._max_writes

    def post(r: Any, s2: State, s1: State) -> bool:
        h1, h2 = s1.self_of(conc.label), s2.self_of(conc.label)
        fresh = h2.timestamps() - h1.timestamps()
        if len(fresh) != 1:
            return False
        (ts,) = fresh
        return h2[ts].after[index] == value

    return Spec(f"write_tp({target!r}, {value!r})", pre, post)


def initial_state(conc: PairSnapshotConcurroid, **kwargs) -> State:
    return state_of(**{conc.label: conc.initial(**kwargs)})


# -- verification (Table 1 row "Pair snapshot") ------------------------------------------------


def verify_pair_snapshot(*, env_budget: int = 2) -> "VerificationReport":
    """Discharge every obligation for the pair snapshot."""
    from ..core.action import check_action
    from ..core.concurroid import check_concurroid, protocol_closure
    from ..core.prog import par
    from ..core.spec import Scenario
    from ..core.stability import check_stability
    from ..core.verify import ReportBuilder, VerificationReport, check_triple, triple_issues
    from ..core.world import World
    from ..pcm.laws import check_all_laws

    conc = PairSnapshotConcurroid()
    actions = PairSnapshotActions(conc)
    builder = ReportBuilder("Pair snapshot")

    # Libs: history-PCM laws (the paper's [47] machinery).
    builder.obligation("history-pcm-laws", "Libs", lambda: check_all_laws(HistoryPCM()))

    states = protocol_closure(conc, [initial_state(conc)], max_states=50_000)

    builder.obligation(
        "readpair-metatheory", "Conc", lambda: check_concurroid(conc, states)
    )

    for action, args in (
        (actions.read_x, [()]),
        (actions.read_y, [()]),
        (actions.write_x, [(0,), (1,)]),
        (actions.write_y, [(0,), (1,)]),
    ):
        builder.obligation(
            f"action-{action.name}",
            "Acts",
            lambda action=action, args=args: check_action(action, states, args),
        )

    # Stab: the key stability lemma behind the version check — having
    # *observed* (vx = v, cx = c), the stable residue is "either the version
    # is still v and the content still c, or the version has strictly
    # grown".  (The naive "vx = v -> cx = c" is unstable: it holds
    # vacuously at vx < v and the environment can then enter vx = v with
    # different content — the checker catches exactly that if tried.)
    def observed_version_pins(v: int, c: Any):
        def assertion(s: State) -> bool:
            (cx, vx), __ = conc.cells(s)
            return (vx == v and cx == c) or vx > v

        return assertion

    for v, c in ((0, 0), (1, 1), (2, 0)):
        builder.obligation(
            f"observed-version-pins-content(v={v}, c={c})",
            "Stab",
            lambda v=v, c=c: check_stability(
                observed_version_pins(v, c),
                f"(vx={v} /\\ cx={c}) \\/ vx>{v}",
                conc,
                states,
            ),
        )
    builder.obligation(
        "version-monotone",
        "Stab",
        lambda: check_stability(
            lambda s: conc.cells(s)[0][1] >= 1, "vx >= 1", conc, states
        ),
    )
    builder.obligation(
        "own-history-stable",
        "Stab",
        lambda: check_stability(
            lambda s: s.self_of(conc.label) == History(),
            "self history empty",
            conc,
            states,
        ),
    )

    # Main: read_pair under adversarial interference, plus writer triples
    # and a reader/writer race.
    world = World((conc,))
    builder.obligation(
        "read_pair-triple",
        "Main",
        lambda: triple_issues(
            check_triple(
                world,
                read_pair_spec(conc),
                [Scenario(initial_state(conc), make_read_pair(actions), label="read_pair")],
                max_steps=30,
                env_budget=env_budget,
            )
        ),
    )
    builder.obligation(
        "write-triple",
        "Main",
        lambda: triple_issues(
            check_triple(
                world,
                write_spec(conc, X, 1),
                [Scenario(initial_state(conc), write_prog(actions, X, 1), label="write x 1")],
                max_steps=10,
                env_budget=env_budget,
            )
        ),
    )

    def race_post(r: Any, s2: State, s1: State) -> bool:
        snapshot, __ = r
        return tuple(snapshot) in set(pair_states_since(conc, s1, s2))

    from ..core.spec import Spec as _Spec

    builder.obligation(
        "reader-writer-race-triple",
        "Main",
        lambda: triple_issues(
            check_triple(
                world,
                _Spec("race", lambda s: True, race_post),
                [
                    Scenario(
                        initial_state(conc),
                        par(make_read_pair(actions), write_prog(actions, X, 1)),
                        label="read_pair || write x",
                    ),
                    Scenario(
                        initial_state(conc),
                        par(
                            make_read_pair(actions),
                            par(write_prog(actions, X, 1), write_prog(actions, Y, 1)),
                        ),
                        label="read_pair || (write x || write y)",
                    ),
                ],
                max_steps=40,
                env_budget=1,
            )
        ),
    )

    return builder.build()
