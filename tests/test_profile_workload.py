"""The sampler of ``tools/profile_workload.py``: time inside a C builtin is
charged to the Python line that called it, and callers get it inclusively."""

import gc
import importlib.util
import re
import signal
from pathlib import Path

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
