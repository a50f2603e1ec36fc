"""Every callable the benchmark's tracer wraps still exists in ``src/``.

``bench/trace.py`` skips a target it cannot resolve and only counts it in
``bench.trace_targets_missing``, which the slow ``make bench-tests`` checks.
Some names are kept alive in ``src/`` for the tracer alone (the executor's
``prove`` and the aggregator's ``zkp_verify`` imports); this test is the
tier-1 guard that dropping one fails loudly. The targets are only read.
"""

import importlib

from bench.trace import TARGETS


def _resolves(target) -> bool:
    """Whether ``target.attribute`` is in its owner's own namespace — where
    the tracer looks it up and replaces it."""
    module, _, cls = target.owner.partition(":")
    try:
        owner = importlib.import_module(module)
        if cls:
            owner = getattr(owner, cls)
    except (ImportError, AttributeError):
        return False
    return target.attribute in vars(owner)


def test_every_harness_target_resolves_against_src():
    assert len(TARGETS) == 64
    missing = [f"{t.owner}.{t.attribute}" for t in TARGETS if not _resolves(t)]
    assert missing == []
