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


def test_executor_gate_goes_through_both_traced_names():
    # One call of each name the tracer wraps for ``verify.gate_s`` per run,
    # so the gate cannot route around the trace.
    import random

    from bench.trace import Target, Tracer
    from repro import FederatedNetwork, Planner, QueryEnvironment, QueryExecutor

    env = QueryEnvironment(num_participants=32, row_width=8, epsilon=4.0, sensitivity=1.0)
    planning = Planner(env).plan_source("aggr = sum(db); output(em(aggr));", "gate")
    network = FederatedNetwork(32, rng=random.Random(11))
    network.load_categorical_data(8)
    executor = QueryExecutor(
        network, planning, committee_size=4, key_prime_bits=96, rng=random.Random(12)
    )
    calls = {}

    def counter(name):
        def observe(recorder, args, result):
            calls[name] = calls.get(name, 0) + 1

        return observe

    gate_targets = [t for t in TARGETS if t.span == "verify.gate_s"]
    tracer = Tracer([Target(None, t.owner, t.attribute, counter(t.attribute)) for t in gate_targets])
    tracer.install()
    try:
        executor.run()
    finally:
        tracer.remove()
    assert tracer.missing == []
    assert calls == {"verify_planning_result": 1, "analyze_planning_result": 1}
