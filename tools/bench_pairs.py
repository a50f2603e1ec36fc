#!/usr/bin/env python3
"""Alternating parent/change runs of the benchmark, judged by the guide's rule.

    python tools/bench_pairs.py PARENT --workload intake_65k --seed 2023 --pairs 10

``PARENT`` is a git ref, checked out with ``git worktree`` into a temporary
directory and removed afterwards, or the path of a checkout that already
exists. Each pair runs ``bench/run.py --workload W --seed S --trace 0`` once
on the parent and once on this checkout, each side from its own files; which
side goes first alternates. Per workload and end-to-end metric it prints both
medians, both quartile pairs, the wins, and two verdicts:

* ``claim``: ``met`` when the change wins at least nine tenths of the pairs
  (ties count for neither side) and the medians differ by more than the
  distance between the parent's quartiles; otherwise ``unresolved``.
* ``bound``: ``within`` when the change's median is no worse than the parent's
  by more than the metric's bound in ``BENCHMARK.json`` and neither side's own
  quartile spread exceeds that bound (or every run of the change beats every
  run of the parent); ``worse`` when it is worse by more than the bound;
  otherwise ``unresolved`` — never "unchanged" on a spread wider than the bound.

Exit status 1 if the runs of one side print different output digests, an
operation failed, or a metric is ``worse``. A change that means to alter
released bytes prints one digest per side; that is reported, not counted.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Tuple

REPO = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> Tuple[Dict[str, float], str, int]:
    """One fresh benchmark process in ``checkout``: (metrics, output digest, failed)."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    digest = next((ln.split()[-1] for ln in lines if ln.startswith("output digest")), "")
    failed = result["failed"] + (0 if result["correct"] else 1)
    return {name: row["value"] for name, row in result["metrics"].items()}, digest, failed


def quartiles(values: List[float]) -> Tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def judge(name: str, parent: List[float], change: List[float], bound: float, unit: str,
          lower_is_better: bool) -> Tuple[str, bool]:
    """One metric over the pairs: (the printed row, whether it is worse than its bound)."""
    sign = 1.0 if lower_is_better else -1.0
    wins = sum(sign * c < sign * p for p, c in zip(parent, change))
    losses = sum(sign * c > sign * p for p, c in zip(parent, change))
    p_med, c_med = statistics.median(parent), statistics.median(change)
    (p_q1, p_q3), (c_q1, c_q3) = quartiles(parent), quartiles(change)
    gain = sign * (p_med - c_med)  # positive = the change is better
    claim = "met" if wins >= WIN_SHARE * len(parent) and gain > p_q3 - p_q1 else "unresolved"
    clean_sweep = max(sign * c for c in change) < min(sign * p for p in parent)
    if p_med and -gain / abs(p_med) > bound:
        held = "worse"
    elif clean_sweep or p_med == 0 or max(p_q3 - p_q1, c_q3 - c_q1) / abs(p_med) <= bound:
        held = "within"
    else:
        held = "unresolved"
    ratio = f"{c_med / p_med:.4f}" if p_med else "n/a"
    row = (
        f"  {name:12s} {p_med:10.5g} [{p_q1:.5g}, {p_q3:.5g}] -> {c_med:10.5g} "
        f"[{c_q1:.5g}, {c_q3:.5g}] {unit:3s} ratio {ratio} (base: parent) "
        f"wins {wins}/{len(parent)} losses {losses}; claim {claim}; bound {bound:.2f} {held}"
    )
    return row, held == "worse"


def compare(parent_dir: Path, workload: str, seed: int, pairs: int, seconds: float, metrics) -> int:
    """Run the pairs of one workload and print its rows; returns how many things are wrong."""
    sides = {"parent": parent_dir, "change": REPO}
    values: Dict[str, Dict[str, List[float]]] = {s: {m["name"]: [] for m in metrics} for s in sides}
    digests: Dict[str, set] = {s: set() for s in sides}
    failed = 0
    for pair in range(pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            got, digest, bad = run_once(sides[side], workload, seed, seconds)
            for name in values[side]:
                values[side][name].append(got[name])
            digests[side].add(digest)
            failed += bad
        print(
            f"  pair {pair + 1}/{pairs} ({order[0]} first): pass_s "
            f"{values['parent']['pass_s'][-1]:.4g} -> {values['change']['pass_s'][-1]:.4g}",
            flush=True,
        )
    unstable = [side for side in sides if len(digests[side]) != 1]
    if unstable:
        verdict = "DIFFER between runs of the " + " and the ".join(unstable)
    elif digests["parent"] == digests["change"]:
        verdict = "identical"
    else:
        verdict = "one per side (the change releases different bytes: {} -> {})".format(
            *(next(iter(digests[side]))[:12] for side in sides))
    print(f"\n{workload} seed {seed}: {pairs} pairs; output digests {verdict}; "
          f"{failed} failed operation(s)")
    problems = failed + len(unstable)
    for metric in metrics:
        name = metric["name"]
        row, worse = judge(name, values["parent"][name], values["change"][name],
                           metric["bound"], metric["unit"], metric["better"] == "lower")
        print(row)
        problems += worse
    return problems


@contextlib.contextmanager
def parent_checkout(parent: str):
    """The parent's files: an existing directory as is, a git ref as a temporary worktree."""
    if Path(parent).is_dir():
        yield Path(parent).resolve()
        return
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        parent_dir = Path(tmp) / "parent"
        subprocess.run(["git", "worktree", "add", "--detach", str(parent_dir), parent],
                       cwd=REPO, check=True, capture_output=True)
        try:
            yield parent_dir
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", str(parent_dir)],
                           cwd=REPO, check=False, capture_output=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="git ref of the parent commit, or a directory holding its checkout")
    parser.add_argument("--workload", action="append", help="repeatable; default: every workload in BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=2023)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    benchmark = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workload or [w["name"] for w in benchmark["workloads"]]
    seconds, metrics = benchmark["run_seconds"], benchmark["end_to_end"]

    with parent_checkout(args.parent) as parent_dir:
        problems = sum(
            compare(parent_dir, w, args.seed, args.pairs, seconds, metrics) for w in workloads
        )
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
