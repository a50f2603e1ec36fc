#!/usr/bin/env python3
"""A sampling profile of untraced passes of one benchmark workload.

    python tools/profile_workload.py service_mix [--seed 2023] [--passes 2] [--interval-ms 2]
                                                 [--callers NAME]

Builds the workload exactly as ``bench/run.py`` does (same seed, same sizes,
pure backend, one warm-up pass first), then runs ``--passes`` passes while a
``SIGPROF`` interval timer fires every ``--interval-ms`` of process CPU time.
Each signal records where the main thread is — every workload runs its
passes there — and the run ends with two tables of sample shares per
``(file, function)``: *self* (the function was executing; the line named is
its most-sampled one) and *inclusive* (it was anywhere on the stack).
``--callers NAME`` adds, for every function whose qualified name contains
``NAME``, the share of its inclusive samples that came through each immediate
caller — which of its callers a hot leaf such as ``PureBackend.powmod`` is
working for.

Unlike cProfile this costs the same whatever the code does, so it neither
inflates call-heavy Python frames (about 2.5x on this code) nor hides time
spent inside C builtins: a long ``pow(base, exp, mod)`` is charged to the
line that called it. Use it to find where a pass spends its time; the
benchmark, not this tool, says whether a change made it faster.

One thing a sample cannot tell apart: the cyclic garbage collector runs
*inside* whichever allocation tipped its threshold, and Python handles a
signal at the next bytecode, so SIGPROF charges a collection to the allocating
frame — a dataclass ``__init__`` that shows 14% self time may be an innocent
allocation paying for a walk of the whole heap. The collector line under the
tables (collections and seconds per generation, from ``gc.callbacks``)
says how much of the profile that is; with the hook in place the next bytecode
after a collection is the hook's, so part of that time shows as the
``Collector.__call__`` row instead.
"""

from __future__ import annotations

import argparse
import gc
import signal
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, Tuple

REPO = Path(__file__).resolve().parent.parent

Key = Tuple[str, str]  # (file, function)


class Collector:
    """The cyclic collector's runs during a profile: a ``gc.callbacks`` entry
    counting collections and the seconds inside them per generation.

    Timed on ``perf_counter``: a collection never blocks, so its wall time is
    its CPU time, and while ``ITIMER_PROF`` is armed ``process_time`` only
    advances a 4 ms tick at a time here — most collections would read 0.
    """

    def __init__(self) -> None:
        self.collections = [0, 0, 0]
        self.seconds = [0.0, 0.0, 0.0]
        self._started = 0.0

    def __call__(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.collections[info["generation"]] += 1
            self.seconds[info["generation"]] += time.perf_counter() - self._started

    def line(self, cpu_s: float) -> str:
        """Per generation ``collections/seconds``, and their share of ``cpu_s``."""
        generations = "  ".join(
            f"gen{gen} {count} in {seconds:.3f} s"
            for gen, (count, seconds) in enumerate(zip(self.collections, self.seconds))
        )
        share = 100 * sum(self.seconds) / cpu_s if cpu_s > 0 else 0.0
        return (
            f"collector: {generations} = {share:.1f}% of the profiled CPU "
            "(sampled as self time of Collector.__call__ or of whichever frame was allocating)"
        )


class Samples:
    """Where the sampled thread was: per function, self and inclusive counts,
    and per (function, immediate caller) pair the samples that had it on the
    stack (the outermost frame's caller is ``None``)."""

    def __init__(self) -> None:
        self.total = 0
        self.self_counts: Counter = Counter()
        self.inclusive: Counter = Counter()
        self.called_from: Counter = Counter()
        self.lines: Dict[Key, Counter] = {}
        self.collector = Collector()

    def record(self, frame) -> None:
        self.total += 1
        key = _key(frame.f_code)
        self.self_counts[key] += 1
        self.lines.setdefault(key, Counter())[frame.f_lineno] += 1
        on_stack, edges = set(), set()
        while frame is not None:
            frame = frame.f_back
            caller = _key(frame.f_code) if frame is not None else None
            on_stack.add(key)
            edges.add((key, caller))
            key = caller
        self.inclusive.update(on_stack)
        self.called_from.update(edges)


def _key(code) -> Key:
    return code.co_filename, getattr(code, "co_qualname", code.co_name)


def sample(fn: Callable[[], object], interval_s: float) -> Samples:
    """Run ``fn`` on the calling (main) thread under the CPU-time sampler."""
    samples = Samples()
    previous = signal.signal(signal.SIGPROF, lambda _signum, frame: samples.record(frame))
    gc.callbacks.append(samples.collector)
    signal.setitimer(signal.ITIMER_PROF, interval_s, interval_s)
    try:
        fn()
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        gc.callbacks.remove(samples.collector)
        signal.signal(signal.SIGPROF, previous)
    return samples


def _short(path: str) -> str:
    try:
        return str(Path(path).resolve().relative_to(REPO))
    except (ValueError, OSError):
        return path


def report(samples: Samples, top: int) -> str:
    """The two tables, most-sampled first."""
    total = max(samples.total, 1)
    out = [f"{'self%':>6} {'incl%':>6}  function (most-sampled line)"]
    for key, count in samples.self_counts.most_common(top):
        line = samples.lines[key].most_common(1)[0][0]
        out.append(
            f"{100 * count / total:6.1f} {100 * samples.inclusive[key] / total:6.1f}  "
            f"{_short(key[0])}:{line} {key[1]}"
        )
    out.append("")
    out.append(f"{'incl%':>6} {'self%':>6}  function")
    for key, count in samples.inclusive.most_common(top):
        out.append(
            f"{100 * count / total:6.1f} {100 * samples.self_counts[key] / total:6.1f}  "
            f"{_short(key[0])} {key[1]}"
        )
    return "\n".join(out)


def callers_report(samples: Samples, name: str) -> str:
    """Per function whose qualified name contains ``name``: its inclusive
    samples split by immediate caller. A sample counts once per (function,
    caller) pair, so the shares of a recursive function can pass 100%."""
    total = max(samples.total, 1)
    out = []
    for key, count in samples.inclusive.most_common():
        if name not in key[1]:
            continue
        out.append(f"{100 * count / total:6.1f}% incl  {_short(key[0])} {key[1]}  called from")
        through: Counter = Counter(
            {caller: n for (callee, caller), n in samples.called_from.items() if callee == key}
        )
        for caller, n in through.most_common():
            where = f"{_short(caller[0])} {caller[1]}" if caller is not None else "(outermost frame)"
            out.append(f"  {100 * n / count:6.1f}%  {where}")
    return "\n".join(out) if out else f"no sampled function matches {name!r}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, default=2023)
    parser.add_argument("--passes", type=int, default=2)
    parser.add_argument("--interval-ms", type=float, default=2.0)
    parser.add_argument("--top", type=int, default=90, help="rows per table")
    parser.add_argument(
        "--callers",
        metavar="NAME",
        help="also split the samples of each function whose qualified name contains NAME "
        "by immediate caller",
    )
    args = parser.parse_args(argv)

    sys.path[0:0] = [str(REPO), str(REPO / "src")]
    from bench import workloads
    from repro.crypto import backend

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    backend.set_backend("pure")  # what bench/run.py measures
    with tempfile.TemporaryDirectory(prefix=f"profile-{args.workload}-") as scratch:
        workload = workloads.WORKLOADS[args.workload](args.seed, False, scratch)
        workload.warm_up()
        failed = []

        def passes() -> None:
            for _ in range(args.passes):
                failed.extend(op for op in workload.run_pass() if op.error)

        started = time.process_time()
        samples = sample(passes, args.interval_ms / 1000.0)
        cpu_s = time.process_time() - started
    print(
        f"{args.workload} seed {args.seed}: {args.passes} untraced pass(es), {cpu_s:.2f} s CPU, "
        f"{samples.total} samples every {args.interval_ms:g} ms\n"
    )
    print(report(samples, args.top))
    if args.callers:
        print("\n" + callers_report(samples, args.callers))
    print("\n" + samples.collector.line(cpu_s))
    for op in failed:
        print(f"FAILED operation {op.name}: {op.error}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
