"""The verifier pre-pass: lint facts that discharge dynamic obligations.

:func:`repro.core.stability.check_stability` is the verifier's per-
assertion brute force: an interference-closure BFS from every start
state.  For a large class of assertions that exploration is provably
redundant, and this module proves it *statically* (per model, amortized
over all its stability obligations):

1. **Environment closure** — every environment move from every modelled
   state lands back inside the modelled family (one sweep per protocol
   graph, held by the graph:
   :meth:`~repro.core.concurroid.ProtocolGraph.env_closed_and_self_preserving`).
2. **Self preservation** — those moves never change any label's ``self``
   projection (checked in the same sweep; this is the other-preservation
   metatheory fact seen from the observer's side).
3. **Self-framedness** — the assertion is constant on classes of states
   sharing all ``self`` components (:func:`repro.analysis.specs.probe_self_framed`).

Given 1-3, any interference path from a start state where the assertion
holds stays inside the start's self-projection class, where the
assertion is constantly true — so ``check_stability`` would return no
issues.  :meth:`StaticPrepass.discharges` says exactly when that
argument applies; the hook in ``check_stability`` then skips the BFS and
the report shows the skip count.  Verdicts are identical by
construction: only obligations whose dynamic outcome is provably empty
are skipped.

Usage::

    with options_installed(VerifyOptions(prepass=StaticPrepass())):
        report = verify_cas_lock()
    assert report.prepass_skips  # e.g. the contribution-stable(a=...) family
"""

from __future__ import annotations

from typing import Callable, Iterable

from ..core.concurroid import Concurroid, state_graph
from ..core.state import State
from .specs import probe_self_framed


class StaticPrepass:
    """The hook ``check_stability`` consults, carried by
    :class:`~repro.core.verify.VerifyOptions`.  It holds no state, so one
    instance serves any number of runs, threads and pool workers."""

    def discharges(
        self,
        assertion: Callable[[State], bool],
        name: str,
        conc: Concurroid,
        states: Iterable[State],
    ) -> bool:
        """True iff the stability BFS for ``assertion`` is provably empty."""
        graph = state_graph(conc, states)
        if not graph.states or not graph.env_closed_and_self_preserving():
            return False
        framed, __ = probe_self_framed(assertion, graph.states)
        return framed
