"""Subprocess driver for the durability chaos tests.

Runs a small synthetic sweep (fast module-level verifiers, no real case
studies) with journaling into a caller-chosen cache directory, and
prints the bits the test asserts on as one JSON object.  Invoked as::

    python tests/_durability_driver.py CACHE_DIR [--resume] \
        [--faults SPEC] [--jobs N]

The test SIGKILLs this process mid-sweep via an injected ``sigkill``
fault, re-invokes it with ``--resume``, and compares the output against
an uninterrupted run — so everything emitted here must be deterministic.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.verify import ReportBuilder  # noqa: E402
from repro.engine import sweep  # noqa: E402
from repro.structures.registry import ProgramInfo  # noqa: E402


def _ok_verifier(**kwargs):
    builder = ReportBuilder(kwargs.get("label", "ok"))
    builder.obligation("trivial", "Libs", lambda: [])
    builder.obligation("main", "Main", lambda: [])
    return builder.build()


def _failing_verifier(**kwargs):
    builder = ReportBuilder(kwargs.get("label", "failing"))
    builder.obligation("good", "Libs", lambda: [])
    builder.obligation(
        "bad", "Main", lambda: ["postcondition violated: x == 0"]
    )
    return builder.build()


def _mk(name: str, verifier=_ok_verifier) -> ProgramInfo:
    return ProgramInfo(
        name=name,
        concurroids={},
        modules=(),
        verifier=verifier,
        verifier_kwargs={"label": name},
    )


#: Deterministic trio: two clean programs around one failing one, so the
#: resumed sweep must reproduce a *mixed* verdict set, not just "all ok".
PROGRAMS = (
    _mk("Alpha"),
    _mk("Failing", _failing_verifier),
    _mk("Gamma"),
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("cache_dir")
    parser.add_argument("--resume", action="store_true")
    parser.add_argument("--faults", default=None)
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)

    result = sweep(
        PROGRAMS,
        jobs=args.jobs,
        cache=False,
        cache_dir=args.cache_dir,
        prepass=False,
        faults=args.faults,
        resume=args.resume,
    )
    verdicts = {
        o.name: {
            "status": o.status,
            "obligations": {
                ob.name: [ob.ok, list(ob.issues), len(ob.witnesses)]
                for ob in (o.report.obligations if o.report else [])
            },
        }
        for o in result.outcomes
    }
    print(
        json.dumps(
            {
                "exit_code": result.exit_code(),
                "verdicts": verdicts,
                "replayed_units": result.replayed,
                "interrupted": result.interrupted,
                "warnings": result.warnings,
                "journal": result.journal_path,
            },
            sort_keys=True,
        )
    )
    return result.exit_code()


if __name__ == "__main__":
    sys.exit(main())
