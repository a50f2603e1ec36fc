"""The sampler of ``tools/profile_workload.py``: time inside a C builtin is
charged to the Python line that called it, callers get it inclusively, and
``--callers`` splits a function's samples by who called it."""

import gc
import importlib.util
import re
import signal
from pathlib import Path
from types import SimpleNamespace

_SPEC = importlib.util.spec_from_file_location(
    "profile_workload", Path(__file__).resolve().parent.parent / "tools" / "profile_workload.py"
)
profile_workload = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(profile_workload)

MODULUS = (1 << 2203) - 1


def _modexps():
    for base in range(3, 23):
        pow(base, MODULUS - 2, MODULUS)  # a few ms each, all of it inside C


def _caller():
    _modexps()


def test_samples_land_on_the_line_that_called_the_builtin():
    before = signal.getsignal(signal.SIGPROF)
    samples = profile_workload.sample(_caller, 0.001)
    assert signal.getsignal(signal.SIGPROF) == before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert samples.total >= 20
    hot = (__file__, "_modexps")
    assert samples.self_counts[hot] >= 0.9 * samples.total
    assert samples.inclusive[(__file__, "_caller")] == samples.inclusive[hot]
    assert samples.self_counts[(__file__, "_caller")] <= 0.1 * samples.total
    line = samples.lines[hot].most_common(1)[0][0]
    assert "pow(base" in Path(__file__).read_text().splitlines()[line - 1]
    table = profile_workload.report(samples, top=5)
    assert "tests/test_profile_workload.py" in table and "_modexps" in table


def _cycles():
    for _ in range(30_000):
        ring = []
        ring.append(ring)  # only the cyclic collector can free it


def test_collector_line_counts_the_collections_the_profile_ran_through():
    callbacks = list(gc.callbacks)
    samples = profile_workload.sample(_cycles, 0.001)
    assert gc.callbacks == callbacks  # the hook is gone again
    collector = samples.collector
    # About one collection per threshold's worth of rings (700 by default).
    assert collector.collections[0] >= 20 and collector.collections[0] > collector.collections[1]
    assert all(seconds >= 0.0 for seconds in collector.seconds)
    assert sum(collector.seconds) > 0.0
    line = collector.line(cpu_s=2 * sum(collector.seconds))
    assert re.fullmatch(
        r"collector: gen0 \d+ in \d+\.\d{3} s  gen1 \d+ in \d+\.\d{3} s  "
        r"gen2 \d+ in \d+\.\d{3} s = 50\.0% of the profiled CPU \(.*allocating\)",
        line,
    )
    assert f"gen0 {collector.collections[0]} in" in line
    assert "= 0.0% of" in profile_workload.Collector().line(cpu_s=0.0)


def _stack(*names):
    """A synthetic frame chain, outermost first; returns the innermost frame."""
    frame = None
    for name in names:
        code = SimpleNamespace(co_filename="synthetic.py", co_qualname=name, co_name=name)
        frame = SimpleNamespace(f_code=code, f_lineno=1, f_back=frame)
    return frame


def test_callers_report_splits_a_function_by_immediate_caller():
    samples = profile_workload.Samples()
    for _ in range(6):
        samples.record(_stack("main", "encrypt", "Backend.powmod"))
    for _ in range(3):
        samples.record(_stack("main", "keygen", "is_prime", "Backend.powmod"))
    samples.record(_stack("main", "keygen"))
    # Recursion: one sample, two (walk, walk) frames — the pair counts once.
    samples.record(_stack("main", "walk", "walk", "walk"))
    key = ("synthetic.py", "Backend.powmod")
    assert samples.inclusive[key] == 9
    assert samples.called_from[(key, ("synthetic.py", "encrypt"))] == 6
    assert samples.called_from[(key, ("synthetic.py", "is_prime"))] == 3
    assert samples.called_from[(("synthetic.py", "main"), None)] == samples.total == 11
    walk = ("synthetic.py", "walk")
    assert samples.called_from[(walk, walk)] == 1
    assert samples.called_from[(walk, ("synthetic.py", "main"))] == 1
    assert profile_workload.callers_report(samples, "powmod").splitlines() == [
        "  81.8% incl  synthetic.py Backend.powmod  called from",
        "    66.7%  synthetic.py encrypt",
        "    33.3%  synthetic.py is_prime",
    ]
    assert profile_workload.callers_report(samples, "main").splitlines() == [
        " 100.0% incl  synthetic.py main  called from",
        "   100.0%  (outermost frame)",
    ]
    # A substring of the qualified name selects every match, hottest first.
    matched = profile_workload.callers_report(samples, "k").splitlines()
    assert [line.split()[3] for line in matched if " incl " in line] == [
        "Backend.powmod",
        "keygen",
        "walk",
    ]
    assert profile_workload.callers_report(samples, "absent") == (
        "no sampled function matches 'absent'"
    )
