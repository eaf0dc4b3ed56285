"""Memo-compaction benchmark for the single-program explorer.

``tracemalloc`` peaks of one mid-size exploration with the dedupe memo
storing compact visit records (the default search) vs the liveness run
(``liveness=True``), the one layout that still pins whole configurations
(the lasso detector compares their traces).  Compaction must strictly
lower the peak (the fix this gate protects: the ``seen`` memo used to
pin every Config it ever saw).  Artifact:
``benchmarks/out/explore_compaction.json``.
"""

from __future__ import annotations

import json
import tracemalloc

from repro.analysis.scenarios import MAIN_SCENARIOS, run_scenario

from conftest import emit


def test_explore_compaction(out_dir):
    wx = next(s for s in MAIN_SCENARIOS if s.key == "Pair snapshot/rp||wx")
    peaks = {}
    for compact in (True, False):
        tracemalloc.start()
        result = run_scenario(wx, liveness=not compact)
        __, peaks[compact] = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert result.ok
    assert peaks[True] < peaks[False], (
        f"compaction did not lower the traced peak: "
        f"{peaks[True]} vs {peaks[False]} bytes"
    )
    payload = {
        "scenario": wx.key,
        "peak_bytes_compact": peaks[True],
        "peak_bytes_pinned": peaks[False],
        "saving": 1 - peaks[True] / peaks[False],
    }
    (out_dir / "explore_compaction.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    emit(
        out_dir,
        "explore_compaction.txt",
        f"compact   {payload['scenario']:<24} peak "
        f"{payload['peak_bytes_compact']} B vs {payload['peak_bytes_pinned']} B "
        f"pinned  saving {payload['saving']:.1%}",
    )
