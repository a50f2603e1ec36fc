#!/usr/bin/env python3
"""Peak RSS of one sharded top-1 query against the population size.

    python tools/rss_curve.py [--devices 16384 65536 262144] [--shard-size 4096] [--seed 2023]

Each size runs in a fresh interpreter (``--one N``), so no run inherits
another's heap: it runs the ``top1`` query on a ``repro run`` deployment
(``runtime.Deployment``) of N devices (1% of them malicious, 8
categories) at the given shard size under a fanout-16 tree — the
``intake_65k`` query at any N — and reports ``ru_maxrss`` once its imports
are done and again after the query. Each row after the first ends with the
slope from the previous size: what one more registered device costs at
peak.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
TOP1 = "aggr = sum(db); r = em(aggr); output(r);"


def maxrss_mb() -> float:
    """This process's peak resident set so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def one_run(devices: int, shard_size: int, seed: int) -> dict:
    sys.path.insert(0, str(REPO / "src"))
    from repro.runtime.deployment import Deployment

    imported = maxrss_mb()
    Deployment(
        recipe="run",
        query_name="top1",
        source=TOP1,
        devices=devices,
        categories=8,
        epsilon=4.0,
        sensitivity=1.0,
        committee_size=4,
        malicious=0.01,
        seed=seed,
        shard_size=shard_size,
        tree_fanout=16,
    ).run()
    return {"devices": devices, "imported_mb": imported, "peak_mb": maxrss_mb()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--devices", type=int, nargs="+", default=[16384, 65536, 262144])
    parser.add_argument("--shard-size", type=int, default=4096)
    parser.add_argument("--seed", type=int, default=2023)
    parser.add_argument("--one", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.one is not None:
        print(json.dumps(one_run(args.one, args.shard_size, args.seed)))
        return 0
    print(f"{'devices':>9}  {'after imports':>13}  {'peak':>9}  {'KB/device':>9}")
    previous = None
    for devices in sorted(args.devices):
        done = subprocess.run(
            [sys.executable, __file__, "--one", str(devices),
             "--shard-size", str(args.shard_size), "--seed", str(args.seed)],
            capture_output=True, text=True, check=True,
        )
        row = json.loads(done.stdout.strip().splitlines()[-1])
        slope = ""
        if previous is not None:
            grown = (row["peak_mb"] - previous["peak_mb"]) * 1024
            slope = f"{grown / (devices - previous['devices']):.3f}"
        print(
            f"{devices:>9}  {row['imported_mb']:>10.1f} MB  {row['peak_mb']:>6.1f} MB  {slope:>9}",
            flush=True,
        )
        previous = row
    return 0


if __name__ == "__main__":
    sys.exit(main())
