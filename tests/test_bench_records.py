"""Committed benchmark summaries agree with their own raw records.

Every ``BENCH_*.json`` at the repository root holds, per workload in
``final``, the result record of each run (tagged with its ``side``, parent or
change, and its ``pair``) and a summary of them. The summary must be what the
records give: per side the median and the numpy-linear quartiles of each
end-to-end metric, and the number of pairs in which the change read lower.
"""

import json
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("wall_s", "setup_s", "peak_rss_mb")
SIDES = ("parent", "change")

CASES = [
    (path.name, workload)
    for path in sorted(ROOT.glob("BENCH_*.json"))
    for workload in json.loads(path.read_text(encoding="utf-8"))["final"]
]


@pytest.mark.parametrize("name,workload", CASES)
def test_summary_is_recomputed_from_the_records(name, workload):
    final = json.loads((ROOT / name).read_text(encoding="utf-8"))["final"][workload]
    records = final["records"]
    assert all(r["correct"] and r["failed"] == 0 for r in records)
    assert all(r["workload"] == workload for r in records)
    by_pair: dict[int, dict[str, dict]] = {}
    for r in records:
        assert r["side"] not in by_pair.setdefault(r["pair"], {})
        by_pair[r["pair"]][r["side"]] = r
    assert all(set(sides) == set(SIDES) for sides in by_pair.values())
    for metric in METRICS:
        stored = final["summary"][metric]
        for side in SIDES:
            values = [by_pair[p][side]["metrics"][metric]["value"] for p in sorted(by_pair)]
            q25, median, q75 = np.quantile(values, [0.25, 0.5, 0.75])
            assert stored[side] == {"q25": q25, "median": median, "q75": q75}
        lower = sum(
            sides["change"]["metrics"][metric]["value"] < sides["parent"]["metrics"][metric]["value"]
            for sides in by_pair.values()
        )
        assert stored["change_lower_in_pairs"] == lower
        assert stored["pairs"] == len(by_pair)
