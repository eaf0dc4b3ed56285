"""fcsl-lint pre-pass ablation — verification with and without lint facts.

Runs a subset of the Table 1 verifiers twice — once plain, once with a
:class:`repro.analysis.StaticPrepass` in the installed verifier options —
and reports per-program wall time, the number of dynamic obligations the
pre-pass discharged statically, and (the soundness requirement) that
every obligation's verdict is bit-for-bit identical in both runs.
"""

from __future__ import annotations

import time

from repro.analysis import StaticPrepass
from repro.core.verify import VerifyOptions, options_installed
from repro.structures.registry import all_programs

from conftest import emit

#: The fast verifiers — the bench must not rerun the whole of Table 1.
PROGRAMS = ("CAS-lock", "Ticketed lock", "CG increment")


def _verdicts(report):
    return {o.name: (o.ok, tuple(o.issues)) for o in report.obligations}


def _run_pair(info):
    started = time.perf_counter()
    base = info.verifier()
    base_secs = time.perf_counter() - started

    with options_installed(VerifyOptions(prepass=StaticPrepass())):
        started = time.perf_counter()
        pre = info.verifier()
        pre_secs = time.perf_counter() - started
    return base, base_secs, pre, pre_secs


def test_lint_prepass_prunes_obligations(out_dir):
    lines = [
        "fcsl-lint pre-pass ablation",
        f"{'program':<16} {'plain (s)':>10} {'prepass (s)':>12} {'discharged':>11}",
    ]
    total_skips = 0
    by_name = {info.name: info for info in all_programs()}
    for name in PROGRAMS:
        base, base_secs, pre, pre_secs = _run_pair(by_name[name])
        # Soundness: the pre-pass must never change a verdict.
        assert _verdicts(base) == _verdicts(pre), name
        assert base.prepass_skips == 0
        total_skips += pre.prepass_skips
        lines.append(
            f"{name:<16} {base_secs:>10.3f} {pre_secs:>12.3f} "
            f"{pre.prepass_skips:>11d}"
        )
    lines.append(f"total obligations statically discharged: {total_skips}")
    # The point of the pre-pass: at least one obligation class is pruned.
    assert total_skips >= 1
    emit(out_dir, "lint_prepass.txt", "\n".join(lines))

