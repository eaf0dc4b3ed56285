"""Deliberately defective locks: in-tree positive cases for fcsl-live.

Every registry case study is clean by design — the analyses must stay
silent on them — which leaves nothing in-tree for the liveness rules to
*find*.  This module adds two demonstration structures (registry rows
marked ``demo=True``, excluded from the paper tables and the default
verification sweep):

* **Two-lock demo** — two independent CAS spinlocks acquired in opposite
  orders by two parallel ladder clients.  Each ladder is safe on its own
  (and verified sequentially below), but the lock-order graph of the
  parallel composition has the classic ``la -> lb -> la`` cycle, so
  fcsl-live reports FCSL050 deadlock potential.

* **Unfair lock demo** — a CAS spinlock whose acquire loop retries three
  times per round, *claimed* (falsely, unlike the ticketed lock) to be
  FIFO-fair.  Safety verifies, but the bounded livelock detector finds a
  schedule in which the environment takes the lock and works under it in
  a cycle while the claimant's CAS keeps failing — a starvation lasso
  the ``fifo-fairness`` obligation fails with, recorded as a replayable
  witness for ``repro explain``.

The three-attempt spin matters for the dynamic detector: a lasso needs
every intermediate configuration to be fresh, and a single-attempt spin
only revisits its own position (a scheduler stutter, deliberately not
reported).  Three structurally distinct attempt continuations interleaved
with environment steps trace a simple cycle through the product of
thread phase and protocol state.
"""

from __future__ import annotations

from ...core.action import check_action
from ...core.concurroid import check_concurroid, protocol_closure
from ...core.entangle import Priv
from ...core.prog import Prog, act, bind, ffix, par, ret, seq
from ...core.spec import Scenario, Spec
from ...core.stability import check_stability
from ...core.state import State, SubjState, state_of
from ...core.verify import (
    ReportBuilder,
    VerificationReport,
    check_triple,
    triple_issues,
)
from ...core.world import World
from ...heap import EMPTY, Heap, ptr, pts
from ...pcm.laws import check_all_laws
from ...pcm.natpcm import NatPCM
from .caslock import CASLock, CASLockConcurroid, make_cas_lock
from .verify import (
    CAS_BIT,
    LABEL,
    RES_CELL,
    _counter_inv,
    bump_client,
    lock_initial_state,
    lock_world,
)

# -- the two-lock deadlock demo ---------------------------------------------------------

LA = "la"
LB = "lb"
LA_RES = ptr(10)
LA_BIT = ptr(11)
LB_RES = ptr(12)
LB_BIT = ptr(13)

#: Each demo lock protects its own one-cell counter.
RES_OF = {LA: LA_RES, LB: LB_RES}


def _res_inv(cell):
    def inv(resource: Heap, total) -> bool:
        return resource.dom() == frozenset((cell,)) and resource[cell] == total

    return inv


def make_demo_locks(max_total: int = 1) -> tuple[CASLock, CASLock]:
    """Two independent CAS locks over disjoint cells and labels."""

    def one(label: str, bit, res) -> CASLock:
        return make_cas_lock(
            label,
            bit,
            NatPCM(sample_bound=max_total),
            _res_inv(res),
            crit_values=tuple(range(max_total + 2)),
        )

    return one(LA, LA_BIT, LA_RES), one(LB, LB_BIT, LB_RES)


def demo_world(la: CASLock, lb: CASLock) -> World:
    return World((Priv("pv"), la.concurroid, lb.concurroid))


def demo_initial_state(
    la: CASLock,
    lb: CASLock,
    a1: int = 0,
    b1: int = 0,
    a2: int = 0,
    b2: int = 0,
) -> State:
    return state_of(
        **{
            LA: la.concurroid.initial(pts(LA_RES, a1 + b1), a1, b1),
            LB: lb.concurroid.initial(pts(LB_RES, a2 + b2), a2, b2),
            "pv": SubjState(EMPTY, EMPTY, EMPTY),
        }
    )


def ladder(first: CASLock, second: CASLock) -> Prog:
    """acquire first; acquire second; bump second's cell; release both.

    The lock-order fact this contributes is "first held while acquiring
    second"; two ladders with opposite orders close the cycle.
    """
    res = RES_OF[second.concurroid.label]
    return seq(
        first.acquire(),
        second.acquire(),
        bind(second.read(res), lambda v: second.write(res, v + 1)),
        second.release(lambda a: a + 1),
        first.release(lambda a: a),
    )


def deadlock_par(la: CASLock, lb: CASLock) -> Prog:
    """The deadlock-prone composition: opposite-order ladders in parallel."""
    return par(ladder(la, lb), ladder(lb, la))


def verify_two_lock_demo(*, aux_bound: int = 1, env_budget: int = 1) -> VerificationReport:
    """Safety obligations for the two-lock demo (all green).

    The deadlock-prone ``deadlock_par`` composition is deliberately *not*
    among the Main triples — it can spin forever under an adversarial
    schedule, which is exactly the defect fcsl-live's static lock-order
    analysis reports (FCSL050).  What is verified: each ladder, run as
    the sole client under interference, is safe and bumps exactly its
    second lock's counter.
    """
    la, lb = make_demo_locks()
    builder = ReportBuilder("Two-lock demo")

    initials = [
        demo_initial_state(la, lb, a1, b1, a2, b2)
        for a1 in range(aux_bound + 1)
        for b1 in range(aux_bound + 1)
        for a2 in range(aux_bound + 1)
        for b2 in range(aux_bound + 1)
    ]
    for lock in (la, lb):
        conc = lock.concurroid
        lbl = conc.label
        states = protocol_closure(conc, initials, max_states=50_000)
        builder.obligation(
            f"{lbl}-pcm-laws",
            "Libs",
            lambda conc=conc, lbl=lbl: check_all_laws(conc.pcms()[lbl]),
        )
        builder.obligation(
            f"{lbl}-metatheory",
            "Conc",
            lambda conc=conc, states=states: check_concurroid(conc, states),
        )
        for action, args in (
            (lock.try_acquire_action, [()]),
            (lock.read_action, [(RES_OF[lbl],)]),
            (lock.write_action, [(RES_OF[lbl], 0), (RES_OF[lbl], 1)]),
        ):
            builder.obligation(
                f"action-{action.name}",
                "Acts",
                lambda action=action, states=states, args=args: check_action(
                    action, states, args
                ),
            )
        builder.obligation(
            f"{lbl}-quiescent-stable",
            "Stab",
            lambda lock=lock, conc=conc, states=states: check_stability(
                lambda s: lock.quiescent(s), "quiescent", conc, states
            ),
        )

    world = demo_world(la, lb)
    for first, second, tag in ((la, lb, "la-then-lb"), (lb, la, "lb-then-la")):
        spec = Spec(
            f"ladder-{tag}",
            pre=lambda s: la.quiescent(s) and lb.quiescent(s),
            post=lambda r, s2, s1, first=first, second=second: (
                first.quiescent(s2)
                and second.quiescent(s2)
                and second.client_self(s2) == second.client_self(s1) + 1
                and first.client_self(s2) == first.client_self(s1)
            ),
        )
        scenarios = [
            Scenario(
                demo_initial_state(la, lb, a1, b1, a2, b2),
                ladder(first, second),
                label=f"ladder-{tag} a1={a1} b1={b1} a2={a2} b2={b2}",
            )
            for a1 in range(aux_bound)
            for b1 in range(aux_bound)
            for a2 in range(aux_bound)
            for b2 in range(aux_bound)
        ]
        builder.obligation(
            f"ladder-{tag}-triple",
            "Main",
            lambda spec=spec, scenarios=scenarios: triple_issues(
                check_triple(
                    world, spec, scenarios, max_steps=40, env_budget=env_budget
                )
            ),
        )
    return builder.build()


# -- the unfair (falsely FIFO-claiming) lock --------------------------------------------


class UnfairLock(CASLock):
    """A CAS lock whose acquire loop makes three CAS attempts per round.

    Functionally identical to :class:`CASLock` for safety; the triple
    retry only changes the *shape* of the spin, giving the acquire loop
    three structurally distinct phases.  The structure ships with a FIFO
    fairness claim it cannot honour (no tickets, no queue): a waiter's
    CAS can lose to the environment forever.
    """

    def acquire(self) -> Prog:
        attempt = self._try_acquire
        spin = ffix(
            lambda loop: lambda: bind(
                act(attempt),
                lambda g1: ret(None)
                if g1
                else bind(
                    act(attempt),
                    lambda g2: ret(None)
                    if g2
                    else bind(
                        act(attempt),
                        lambda g3: ret(None) if g3 else loop(),
                    ),
                ),
            ),
            label=f"{self.concurroid.label}.acquire",
        )
        return spin()


def make_unfair_lock(max_total: int = 2) -> UnfairLock:
    """An unfair lock over the same counter protocol as the CAS-lock."""
    return UnfairLock(
        CASLockConcurroid(
            LABEL,
            CAS_BIT,
            NatPCM(sample_bound=max_total),
            _counter_inv,
            crit_values=tuple(range(max_total + 2)),
        )
    )


def verify_unfair_lock(
    *,
    aux_bound: int = 1,
    env_budget: int = 1,
    fairness_env_budget: int = 3,
) -> VerificationReport:
    """Obligations for the unfair lock: safety green, fairness failing.

    The ``fifo-fairness`` Main obligation operationalises the (false)
    FIFO claim through the bounded livelock detector: any schedule that
    cycles without the claimant progressing refutes bounded bypass, and
    is recorded as a replayable livelock witness.
    """
    lock = make_unfair_lock()
    conc = lock.concurroid
    builder = ReportBuilder("Unfair lock demo")

    initials = [
        lock_initial_state(lock, a, b)
        for a in range(aux_bound + 1)
        for b in range(aux_bound + 1)
    ]
    states = protocol_closure(conc, initials, max_states=50_000)

    builder.obligation(
        "subjective-pcm-laws", "Libs", lambda: check_all_laws(conc.pcms()[LABEL])
    )
    builder.obligation(
        "lock-metatheory", "Conc", lambda: check_concurroid(conc, states)
    )
    for action, args in (
        (lock.try_acquire_action, [()]),
        (lock.read_action, [(RES_CELL,)]),
        (lock.write_action, [(RES_CELL, 0), (RES_CELL, 2)]),
    ):
        builder.obligation(
            f"action-{action.name}",
            "Acts",
            lambda action=action, args=args: check_action(action, states, args),
        )
    builder.obligation(
        "quiescent-stable",
        "Stab",
        lambda: check_stability(
            lambda s: lock.quiescent(s), "quiescent", conc, states
        ),
    )

    world = lock_world(lock)
    spec = Spec(
        "bump-client",
        pre=lambda s: lock.quiescent(s),
        post=lambda r, s2, s1: (
            lock.quiescent(s2)
            and lock.client_self(s2) == lock.client_self(s1) + 1
        ),
    )
    scenarios = [
        Scenario(
            lock_initial_state(lock, a, b),
            bump_client(lock),
            label=f"bump a={a} b={b}",
        )
        for a in range(aux_bound + 1)
        for b in range(aux_bound + 1)
    ]
    builder.obligation(
        "bump-triple",
        "Main",
        lambda: triple_issues(
            check_triple(world, spec, scenarios, max_steps=40, env_budget=env_budget)
        ),
    )

    par_spec = Spec(
        "par-bump",
        pre=lambda s: lock.quiescent(s),
        post=lambda r, s2, s1: (
            lock.quiescent(s2)
            and lock.client_self(s2) == lock.client_self(s1) + 2
        ),
    )
    par_scenarios = [
        Scenario(
            lock_initial_state(lock, 0, b),
            par(bump_client(lock), bump_client(lock)),
            label=f"par-bump b={b}",
        )
        for b in range(aux_bound + 1)
    ]
    builder.obligation(
        "mutual-exclusion-par-triple",
        "Main",
        lambda: triple_issues(
            check_triple(
                world, par_spec, par_scenarios, max_steps=80, env_budget=env_budget
            )
        ),
    )

    def fifo_issues():
        # Imported lazily: structures must not import the analysis package
        # at module load (the analysis targets import structures).
        from ...analysis.liveness import fairness_issues

        return fairness_issues(
            "Unfair lock demo",
            world,
            lock_initial_state(lock, 0, 0),
            bump_client(lock),
            env_budget=fairness_env_budget,
            max_steps=30,
        )

    builder.obligation("fifo-fairness", "Main", fifo_issues)
    return builder.build()
