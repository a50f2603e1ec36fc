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

``PARENT=HEAD`` on a clean checkout is the A/A run: both sides are the same
commit, one from this checkout and one from the temporary worktree, so any
verdict other than ``bound within`` with no claim met is a location or order
effect of the two directories, not a change. Run one before judging a
workload whose pairs read worse on code the change does not touch.

Exit status 1 if the runs of one side print different output digests, an
operation failed, or a metric is ``worse``. A change that means to alter
released bytes prints one digest per side; that is reported, not counted.

``--record BENCH_path.json`` appends one row per workload, seed and metric to
the committed trajectory (a JSON list, one row a line): both medians and
quartiles, the wins, both verdicts, and the run's provenance — the parent and
change commits, the CPU model and core count from ``/proc/cpuinfo``, the crypto
backend, the seed, the pair count and the date.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Tuple

REPO = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9


def run_once(checkout: Path, workload: str, seed: int,
             seconds: float) -> Tuple[Dict[str, float], str, int, str]:
    """One fresh benchmark process in ``checkout``: (metrics, output digest, failed, backend)."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    digest = next((ln.split()[-1] for ln in lines if ln.startswith("output digest")), "")
    provenance = next((json.loads(ln.split(" ", 1)[1]) for ln in lines
                       if ln.startswith("provenance ")), {})
    failed = result["failed"] + (0 if result["correct"] else 1)
    metrics = {name: row["value"] for name, row in result["metrics"].items()}
    return metrics, digest, failed, provenance.get("crypto_backend", "unknown")


def quartiles(values: List[float]) -> Tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(parent: List[float], change: List[float], bound: float,
              lower_is_better: bool) -> Dict[str, object]:
    """One metric over the pairs: both sides' medians and quartiles, the wins and
    losses, and the ``claim`` and ``bound`` verdicts."""
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
    return {
        "parent": {"median": p_med, "q1": p_q1, "q3": p_q3},
        "change": {"median": c_med, "q1": c_q1, "q3": c_q3},
        "wins": wins, "losses": losses, "claim": claim, "bound": held,
    }


def row_text(name: str, summary: Dict[str, object], pairs: int, bound: float, unit: str) -> str:
    """The printed line of one metric's :func:`summarize`."""
    p, c = summary["parent"], summary["change"]
    ratio = f"{c['median'] / p['median']:.4f}" if p["median"] else "n/a"
    return (
        f"  {name:12s} {p['median']:10.5g} [{p['q1']:.5g}, {p['q3']:.5g}] -> {c['median']:10.5g} "
        f"[{c['q1']:.5g}, {c['q3']:.5g}] {unit:3s} ratio {ratio} (base: parent) "
        f"wins {summary['wins']}/{pairs} losses {summary['losses']}; claim {summary['claim']}; "
        f"bound {bound:.2f} {summary['bound']}"
    )


def compare(parent_dir: Path, workload: str, seed: int, pairs: int, seconds: float,
            metrics) -> Tuple[int, List[Dict[str, object]], str]:
    """Run the pairs of one workload and print its rows.

    Returns how many things are wrong, one summary row per metric, and the
    crypto backend the runs reported.
    """
    sides = {"parent": parent_dir, "change": REPO}
    values: Dict[str, Dict[str, List[float]]] = {s: {m["name"]: [] for m in metrics} for s in sides}
    digests: Dict[str, set] = {s: set() for s in sides}
    backends = set()
    failed = 0
    for pair in range(pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            got, digest, bad, backend = run_once(sides[side], workload, seed, seconds)
            for name in values[side]:
                values[side][name].append(got[name])
            digests[side].add(digest)
            backends.add(backend)
            failed += bad
        print(
            f"  pair {pair + 1}/{pairs} ({order[0]} first): pass_s "
            f"{values['parent']['pass_s'][-1]:.4g} -> {values['change']['pass_s'][-1]:.4g}",
            flush=True,
        )
    unstable = [side for side in sides if len(digests[side]) != 1]
    if unstable:
        kind = verdict = "DIFFER between runs of the " + " and the ".join(unstable)
    elif digests["parent"] == digests["change"]:
        kind = verdict = "identical"
    else:
        kind = "one per side"
        verdict = "one per side (the change releases different bytes: {} -> {})".format(
            *(next(iter(digests[side]))[:12] for side in sides))
    print(f"\n{workload} seed {seed}: {pairs} pairs; output digests {verdict}; "
          f"{failed} failed operation(s)")
    problems = failed + len(unstable)
    rows = []
    for metric in metrics:
        name, bound = metric["name"], metric["bound"]
        summary = summarize(values["parent"][name], values["change"][name], bound,
                            metric["better"] == "lower")
        print(row_text(name, summary, pairs, bound, metric["unit"]))
        problems += summary["bound"] == "worse"
        rows.append({
            "workload": workload, "metric": name, "unit": metric["unit"],
            "better": metric["better"], "allowed_worsening": bound, **summary,
            "digests": kind, "failed": failed,
        })
    return problems, rows, "/".join(sorted(backends))


def _git(cwd: Path, *args: str) -> str:
    done = subprocess.run(["git", *args], cwd=cwd, capture_output=True, text=True, check=False)
    return done.stdout.strip() if done.returncode == 0 else ""


def _cpu() -> Tuple[str, int]:
    """The CPU model and the number of logical cores, from ``/proc/cpuinfo``."""
    try:
        lines = Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines()
    except OSError:
        return "unknown", os.cpu_count() or 0
    keyed = [ln.split(":", 1) for ln in lines if ":" in ln]
    model = next((v.strip() for k, v in keyed if k.strip() == "model name"), "unknown")
    return model, sum(k.strip() == "processor" for k, _ in keyed)


def provenance(parent: str, parent_dir: Path, seed: int, pairs: int, backend: str) -> Dict[str, object]:
    """Where a pair run came from: both commits, the box, the backend, seed, pairs and date."""
    model, cores = _cpu()
    return {
        "parent": "checkout" if Path(parent).is_dir() else parent,
        "parent_commit": _git(parent_dir, "rev-parse", "HEAD") or "unknown",
        "change_commit": _git(REPO, "rev-parse", "HEAD") or "unknown",
        "change_dirty": bool(_git(REPO, "status", "--porcelain", "--untracked-files=no")),
        "cpu_model": model,
        "cores": cores,
        "backend": backend,
        "seed": seed,
        "pairs": pairs,
        "date": datetime.datetime.now(datetime.timezone.utc).date().isoformat(),
    }


def read_record(path: Path) -> List[Dict[str, object]]:
    return json.loads(path.read_text(encoding="utf-8")) if path.exists() else []


def append_record(path: Path, rows: List[Dict[str, object]]) -> None:
    """Append ``rows`` to the trajectory at ``path``, one JSON row a line."""
    everything = read_record(path) + rows
    body = ",\n".join(json.dumps(row, sort_keys=True, ensure_ascii=False) for row in everything)
    path.write_text(f"[\n{body}\n]\n", encoding="utf-8")


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
    parser.add_argument("--record", type=Path, metavar="JSON",
                        help="append one row per workload and metric to this trajectory file")
    args = parser.parse_args(argv)
    benchmark = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workload or [w["name"] for w in benchmark["workloads"]]
    seconds, metrics = benchmark["run_seconds"], benchmark["end_to_end"]

    problems = 0
    with parent_checkout(args.parent) as parent_dir:
        for workload in workloads:
            wrong, rows, backend = compare(parent_dir, workload, args.seed, args.pairs, seconds, metrics)
            problems += wrong
            if args.record:
                source = provenance(args.parent, parent_dir, args.seed, args.pairs, backend)
                append_record(args.record, [
                    {**row, "provenance": source} for row in rows
                ])
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
