"""Compare two result sets of ``run.py`` against the benchmark's own bounds.

    python bench/compare.py A.json B.json

For every workload and end-to-end metric: both values, the ratio B/A with A
as its base, and a verdict. ``worse`` and ``better`` mean B left the bound
around A; ``within`` means it did not. The verdict is ``unresolved``, never
``within``, when either set's own rounds disagree by more than the bound or
``bench.calib_ms`` moved by more than 10% between the sets — then the
machine, not the code, may be what differs. Exit status 1 if any metric is
``worse``, ``unresolved``, or the output digests differ.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence

if __name__ == "__main__":
    # Run as a script: the repository root, not this directory, is the import root.
    sys.path[0] = str(Path(__file__).resolve().parent.parent)

from bench.metrics import END_TO_END  # noqa: E402

CALIB_DRIFT_LIMIT = 0.10


def round_spread(values: Sequence[float]) -> float:
    """Largest distance between a set's rounds, over their median."""
    if len(values) < 2:
        return 0.0
    return (max(values) - min(values)) / statistics.median(values)


def verdict(base: Dict[str, object], other: Dict[str, object], bound: float, calib_moved: bool) -> str:
    if (
        calib_moved
        or round_spread(base["per_round"]) > bound
        or round_spread(other["per_round"]) > bound
    ):
        return "unresolved"
    ratio = other["value"] / base["value"]
    if ratio > 1.0 + bound:
        return "worse"
    if ratio < 1.0 - bound:
        return "better"
    return "within"


def report(first: Dict[str, object], second: Dict[str, object]) -> int:
    """Print the comparison; return how many rows are not ``within``/``better``."""
    bad = 0
    for name, base in first["workloads"].items():
        other = second["workloads"][name]
        calib_a = statistics.median(base["calib_ms"])
        calib_b = statistics.median(other["calib_ms"])
        calib_moved = abs(calib_b / calib_a - 1.0) > CALIB_DRIFT_LIMIT
        same_bytes = base["digest"] is not None and base["digest"] == other["digest"]
        print(
            f"\n{name}: bench.calib_ms {calib_a:.3f} -> {calib_b:.3f}"
            f"{' (moved more than 10%)' if calib_moved else ''}; "
            f"output digests {'identical' if same_bytes else 'DIFFER'}"
        )
        bad += 0 if same_bytes else 1
        for metric in END_TO_END:
            a, b = base["metrics"][metric.name], other["metrics"][metric.name]
            outcome = verdict(a, b, metric.bound, calib_moved)
            bad += outcome in ("worse", "unresolved")
            print(
                f"  {metric.name:12s} {a['value']:12.6g} -> {b['value']:12.6g} {metric.unit:3s} "
                f"ratio {b['value'] / a['value']:.4f} (base: first set), "
                f"round spread {round_spread(a['per_round']):.3f}/{round_spread(b['per_round']):.3f}, "
                f"bound {metric.bound:.2f}: {outcome}"
            )
        for label, row in (("first", base), ("second", other)):
            if row["failures"]:
                bad += 1
                print(f"  {label} set: {len(row['failures'])} failed operations")
    return bad


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    sets = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            sets.append(json.load(handle))
    return 1 if report(*sets) else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
