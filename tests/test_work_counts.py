"""The work counts of tools/work_counts.py against their ledger,
tests/work_counts.json: exact and host-independent, so one extra reduction,
census call or fork per unit of work fails here rather than hiding in
timing noise.  A ledger edit is declared in CHANGES.md with its reason."""

import json
import os
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "work_counts.py"
LEDGER = ROOT / "tests" / "work_counts.json"


def test_work_counts_match_the_ledger(monkeypatch):
    namespace = {"__name__": "work_counts", "__file__": str(TOOL)}
    # executed from its source, so nothing is imported from or written under tools/
    exec(compile(TOOL.read_text(encoding="utf-8"), str(TOOL), "exec"), namespace)
    # the fork count is w - 1 for w = min(workers, CPU count): pinned to two CPUs
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    counts = namespace["labelled_counts"]()
    ledger = json.loads(LEDGER.read_text(encoding="utf-8"))
    for label, expected in ledger.items():
        assert counts.get(label) == expected, label
    assert list(counts) == list(ledger)
