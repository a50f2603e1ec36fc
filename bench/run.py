"""One benchmark for the whole query path.

    python bench/run.py                      two interleaved rounds of all five workloads
    python bench/run.py --trace              one traced round: the per-layer metrics
    python bench/run.py --check-stability    two full sets, compared against the bounds
    python bench/run.py --smoke              tiny sizes, every workload, every check
    python bench/run.py --workload W --seed N --seconds S --trace 0|1
                                             one run of one workload (what the driver calls)

A run of one workload builds its inputs from ``--seed``, sets up (imports,
generators, one warm-up pass), then repeats the workload's fixed *pass* for
about ``--seconds`` seconds, checks every pass's outputs, and prints each
metric by name with its unit; its last line of output is the JSON result.
Times are steady seconds (``clock.py``); the raw wall-clock is printed too.
Every workload runs in a process of its own, so ``peak_rss_mb`` is its own.
"""

from __future__ import annotations

import time

PROCESS_STARTED = time.perf_counter()  # before anything heavy is imported

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# The script directory would shadow the standard library's `trace`; the
# repository root and the program's sources take its place.
sys.path[0:1] = [str(ROOT), str(ROOT / "src")]

from bench.clock import CALIB_REF_S, SteadyClock  # noqa: E402  (light: no numpy, no repro)
from bench.metrics import ALL, END_TO_END, PER_LAYER, latency_summary  # noqa: E402

OUT_DIR = BENCH_DIR / "out"
DEFAULT_SEED = 2023
DEFAULT_SECONDS = 15


# ------------------------------------------------------------- one workload


@dataclass
class PassRecord:
    """One pass: when it ran, what its operations took, what the checks said."""

    started: float  # time.perf_counter() readings
    ended: float
    latencies: List[Tuple[float, float]]
    verdict: object  # checks.Verdict
    traced: bool


def _run_passes(workload, seconds: float, at_least: int, tracer=None, tally=None) -> List[PassRecord]:
    """Repeat the pass for about ``seconds`` of wall-clock.

    The count is whichever fits the budget best — another round starts only
    if more than half of it is expected to fit — but never under
    ``at_least``. ``seconds == 0`` (smoke) is exactly one round. With a
    ``tracer`` a round is an untraced pass and then a traced one: the two
    sit side by side in time, so what differs between them is the tracing.
    """
    from bench.checks import check_pass

    records: List[PassRecord] = []
    loop_started = time.perf_counter()
    while True:
        round_started = time.perf_counter()
        for traced in (False, True) if tracer else (False,):
            if traced:
                tracer.install()
            try:
                started = time.perf_counter()
                ops = workload.run_pass()
                ended = time.perf_counter()
            finally:
                if traced:
                    tracer.remove()
            records.append(
                PassRecord(started, ended, workload.latencies(ops), check_pass(workload, ops), traced)
            )
            if traced:
                tally.add(ops)
            del ops  # a 65,536-device population must not outlive its pass
        now = time.perf_counter()
        enough = seconds == 0 or len(records) >= at_least
        if enough and now - loop_started + (now - round_started) / 2 > seconds:
            return records


def _provenance(args, clock: SteadyClock) -> Dict[str, object]:
    import numpy

    from repro.crypto import backend

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "commit": commit or "unknown (not a git checkout)",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "crypto_backend": backend.active_backend_name(),
        "gmpy2_importable": backend.gmpy2_available(),
        "numba_importable": backend.numba_available(),
        "seed": args.seed,
        "calib_ref_ms": 1000.0 * CALIB_REF_S,
        "calib_ms": clock.calib_ms,
    }


def _setup_samples(args, own: Tuple[float, float]) -> Tuple[List[float], List[float]]:
    """This process's set-up time and that of two more fresh processes.

    One measurement of a second or so on a shared machine is a coin toss;
    the median of three is what ``setup_s`` reports. Smoke keeps the one.
    """
    raw, steady = [own[0]], [own[1]]
    for _ in range(0 if args.smoke else 2):
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=170,
        )
        if child.returncode != 0:
            raise RuntimeError(f"set-up run failed:\n{child.stdout}\n{child.stderr}")
        sample = json.loads(child.stdout.strip().splitlines()[-1])
        raw.append(sample["raw_s"])
        steady.append(sample["steady_s"])
    return raw, steady


@dataclass
class _Run:
    """What the timed part of a run hands to the reporting part."""

    workload: object = None
    warm: object = None  # the warm-up pass's verdict
    ready: float = 0.0  # clock reading when set-up was done
    records: List[PassRecord] = field(default_factory=list)
    tracer: object = None
    tally: object = None


def _timed_part(args) -> _Run:
    """Set-up and passes: everything the steady clock has to cover."""
    # The heavy imports are part of set-up, so they happen on the clock.
    from bench import checks, layers, trace, workloads
    from repro.crypto import backend

    # Pinned, and recorded in the provenance: an accelerated backend picked
    # up from the environment must not pass as the pure one.
    backend.set_backend("pure")
    run = _Run()
    OUT_DIR.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        run.workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke, scratch)
        warm_ops = run.workload.warm_up()
        run.ready = time.perf_counter()
        run.warm = checks.check_pass(run.workload, warm_ops)
        del warm_ops
        if args.setup_only:
            return run
        seconds = 0.0 if args.smoke else float(args.seconds)
        if args.trace:
            run.tracer = trace.Tracer()
            run.tally = layers.OutputTally()
            run.records = _run_passes(run.workload, seconds, 1, run.tracer, run.tally)
        else:
            run.records = _run_passes(run.workload, seconds, run.workload.min_passes)
        return run
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure(args) -> int:
    """Run one workload and print its metrics; the last line is the result."""
    clock = SteadyClock()
    clock.start()
    try:
        run = _timed_part(args)
    finally:
        clock.stop()
    ready, records, tracer, workload, warm = run.ready, run.records, run.tracer, run.workload, run.warm
    steady_seconds = clock.seconds
    if args.setup_only:
        print(json.dumps({
            "raw_s": ready - PROCESS_STARTED,
            "steady_s": steady_seconds(PROCESS_STARTED, ready),
        }))
        return 0
    from bench import layers, trace

    provenance = _provenance(args, clock)
    untraced = [r for r in records if not r.traced]
    traced = [r for r in records if r.traced]
    pass_raw = [r.ended - r.started for r in untraced]
    pass_steady = [steady_seconds(r.started, r.ended) for r in untraced]
    latencies_ms = [
        1000.0 * steady_seconds(start, end) for r in untraced for start, end in r.latencies
    ]
    attempted = warm.attempted + sum(r.verdict.attempted for r in records)
    failures = list(warm.failures) + [f for r in records for f in r.verdict.failures]
    digests = sorted({r.verdict.digest for r in records})
    if len(digests) > 1:
        failures.append(f"passes from one seed released different bytes: {digests}")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print(f"workload {args.workload}: {workload.why}")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(
        f"passes {len(untraced)} untraced + {len(traced)} traced; "
        f"raw pass median {statistics.median(pass_raw):.4f} s "
        f"(min {min(pass_raw):.4f}, max {max(pass_raw):.4f})"
    )
    print(f"output digest {digests[0] if digests else 'none'}")

    detail: Dict[str, object] = {
        "workload": args.workload,
        "trace": int(bool(args.trace)),
        "provenance": provenance,
        "passes": {"raw_s": pass_raw, "steady_s": pass_steady, "traced": len(traced)},
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "digest": digests[0] if len(digests) == 1 else None,
    }
    if tracer is None:
        own_setup = (ready - PROCESS_STARTED, steady_seconds(PROCESS_STARTED, ready))
        setup_raw, setup_steady = _setup_samples(args, own_setup)
        guaranteed = workload.min_passes * len(untraced[0].latencies)
        p50, tail, used = latency_summary(latencies_ms, guaranteed)
        values = {
            "setup_s": statistics.median(setup_steady),
            "pass_s": statistics.median(pass_steady),
            "peak_rss_mb": peak_rss_mb,
            "sub_p50_ms": p50,
            "sub_p95_ms": tail,
        }
        print(
            f"  pass_s over {len(pass_steady)} passes: min {min(pass_steady):.4f}, "
            f"max {max(pass_steady):.4f}; setup_s over {len(setup_steady)} set-ups "
            f"(raw {statistics.median(setup_raw):.3f} s); latency over "
            f"{len(latencies_ms)} operations, tail percentile p{used:g}"
        )
        print(f"  failed_share = {len(failures) / attempted:.6f} ({len(failures)} of {attempted} operations)")
        detail["latencies_ms"] = latencies_ms
        detail["setup"] = {"raw_s": setup_raw, "steady_s": setup_steady}
        metrics = {m.name: {"value": values[m.name], "unit": m.unit} for m in END_TO_END}
    else:
        windows = [(r.started, r.ended) for r in traced]
        totals = trace.layer_totals(tracer.recorder, clock.steady, windows)
        traced_steady = [steady_seconds(*w) for w in windows]
        values = layers.layer_metrics(
            totals,
            tracer.recorder,
            run.tally,
            steady_seconds,
            [s / (end - start) for s, (start, end) in zip(traced_steady, windows)],
            traced_steady,
            statistics.median(pass_steady),
            len(tracer.missing),
            clock.calib_ms,
        )
        for name in tracer.missing:
            print(f"  trace target missing, its layer reads 0: {name}")
        with open(OUT_DIR / f"trace-{args.workload}.json", "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "workload": args.workload,
                    "clock": "steady seconds since the first calibration sample",
                    "passes": [list(map(float, clock.steady(w))) for w in windows],
                    "span_fields": ["name", "parent", "start", "end"],
                    "spans": totals.spans,
                },
                handle,
            )
        metrics = {m.name: {"value": values[m.name], "unit": m.unit} for m in PER_LAYER}
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    for failure in failures:
        print(f"  FAILED {failure}")
    detail["metrics"] = metrics
    if args.detail:
        with open(args.detail, "w", encoding="utf-8") as handle:
            json.dump(detail, handle)
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    # Failed operations are in the result line; the exit status only says
    # whether the run itself completed.
    return 0


# ---------------------------------------------------------------- full sets


def _child(workload: str, seed: int, seconds: int, traced: bool, smoke: bool, tag: str) -> Dict[str, object]:
    """One workload in a fresh process; its detail record."""
    OUT_DIR.mkdir(exist_ok=True)
    detail = OUT_DIR / f"detail-{workload}-{tag}.json"
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(traced)),
        "--detail", str(detail),
    ] + (["--smoke"] if smoke else [])
    child = subprocess.run(command, capture_output=True, text=True, timeout=600)
    lines = child.stdout.strip().splitlines()
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if child.returncode != 0 or not detail.exists():
        raise RuntimeError(f"{workload} did not finish:\n{child.stdout}\n{child.stderr}")
    with open(detail, encoding="utf-8") as handle:
        return json.load(handle)


def run_set(seed: int, seconds: int, traced: bool, smoke: bool, tag: str) -> Dict[str, object]:
    """Every workload, in interleaved rounds (A..E, then A..E), pooled.

    Two rounds because the box drifts between launches minutes apart; a
    traced set or a smoke set is one round.
    """
    rounds = 1 if traced or smoke else 2
    runs: Dict[str, List[Dict[str, object]]] = {name: [] for name in ALL}
    for index in range(rounds):
        for name in ALL:
            print(f"--- round {index + 1}/{rounds}: {name}")
            runs[name].append(_child(name, seed, seconds, traced, smoke, f"{tag}{index + 1}"))
    pooled: Dict[str, object] = {}
    for name, details in runs.items():
        failures = [f for d in details for f in d["failures"]]
        digests = sorted({str(d["digest"]) for d in details})
        if len(digests) > 1:
            failures.append(f"rounds released different bytes from seed {seed}: {digests}")
        per_run = {
            metric: [d["metrics"][metric]["value"] for d in details]
            for metric in details[0]["metrics"]
        }
        if traced:
            values = {metric: statistics.median(v) for metric, v in per_run.items()}
        else:
            # Passes and set-ups pool across rounds; a run's latency samples
            # already carry its percentiles, so those pool as medians of runs.
            values = {
                "setup_s": statistics.median(s for d in details for s in d["setup"]["steady_s"]),
                "pass_s": statistics.median(s for d in details for s in d["passes"]["steady_s"]),
                "peak_rss_mb": max(per_run["peak_rss_mb"]),
                "sub_p50_ms": statistics.median(per_run["sub_p50_ms"]),
                "sub_p95_ms": statistics.median(per_run["sub_p95_ms"]),
            }
        attempted = sum(d["attempted"] for d in details)
        pooled[name] = {
            "metrics": {
                metric: {
                    "value": values[metric],
                    "unit": details[0]["metrics"][metric]["unit"],
                    "per_round": per_run[metric],
                }
                for metric in values
            },
            "failed_share": len(failures) / attempted,
            "attempted": attempted,
            "failures": failures,
            "digest": digests[0] if len(digests) == 1 else None,
            "passes": [len(d["passes"]["steady_s"]) for d in details],
            "calib_ms": [d["provenance"]["calib_ms"] for d in details],
        }
    provenance = dict(runs[ALL[0]][0]["provenance"])
    provenance.pop("calib_ms")
    return {
        "provenance": provenance,
        "traced": traced,
        "workloads": pooled,
        # This benchmark defines the baseline; it measures no change.
        "claim": None,
    }


def _print_set(result: Dict[str, object]) -> int:
    failed = 0
    print("\nprovenance " + json.dumps(result["provenance"], sort_keys=True))
    for name, row in result["workloads"].items():
        print(
            f"\n{name}: passes {row['passes']}, calib_ms "
            + ", ".join(f"{c:.3f}" for c in row["calib_ms"])
            + f", digest {row['digest']}"
        )
        for metric, entry in row["metrics"].items():
            print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")
        print(f"  failed_share = {row['failed_share']:.6f} of {row['attempted']} operations")
        for failure in row["failures"]:
            print(f"  FAILED {failure}")
        failed += len(row["failures"])
    print('\nsummary ' + json.dumps({"failed_operations": failed, "claim": result["claim"]}))
    return failed


def full(args) -> int:
    if args.check_stability:
        from bench import compare

        first = run_set(args.seed, args.seconds, False, False, "a")
        second = run_set(args.seed, args.seconds, False, False, "b")
        for tag, result in (("a", first), ("b", second)):
            with open(OUT_DIR / f"results-{tag}.json", "w", encoding="utf-8") as handle:
                json.dump(result, handle, indent=1)
        failed = _print_set(first) + _print_set(second)
        return 1 if compare.report(first, second) or failed else 0
    result = run_set(args.seed, args.seconds, bool(args.trace), args.smoke, "t" if args.trace else "r")
    name = "smoke" if args.smoke else "trace" if args.trace else "results"
    with open(OUT_DIR / f"{name}.json", "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
    return 1 if _print_set(result) else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=ALL, help="run this one workload in this process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS, help="wall-clock to measure for, per run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: install the span wrappers and report the per-layer metrics")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, one pass, every check")
    parser.add_argument("--check-stability", action="store_true",
                        help="run two full sets and compare them against the bounds")
    parser.add_argument("--detail", help="also write this run's detail record here (JSON)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload:
        return measure(args)
    return full(args)


if __name__ == "__main__":
    raise SystemExit(main())
