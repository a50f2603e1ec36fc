"""Self-time arithmetic, and wrappers that leave no trace of themselves."""

import numpy as np
import pytest

from bench import trace
from bench.trace import Target, Tracer, layer_totals, self_times


def test_self_time_is_duration_minus_direct_children():
    #  0: root   [0, 10]
    #  1:   a    [1, 6]      child of 0
    #  2:     b  [2, 4]      child of 1
    #  3:   c    [7, 9]      child of 0
    #  4: other  [20, 21]    a second root
    own = self_times([-1, 0, 1, 0, -1], [0, 1, 2, 7, 20], [10, 6, 4, 9, 21])
    assert own.tolist() == [10 - 5 - 2, 5 - 2, 2, 2, 1]
    # The self times add up to the time inside any span: the roots' durations.
    assert own.sum() == 10 + 1


def test_layer_totals_sum_only_spans_begun_inside_a_pass():
    recorder = trace.Recorder()
    comparison = recorder.add("mpc.engine.cmp_s", -1, 1.0, 5.0)
    recorder.add("mpc.engine.mul_s", comparison, 2.0, 3.0)  # two multiplications inside it
    recorder.add("mpc.engine.mul_s", comparison, 3.5, 4.0)
    recorder.add("mpc.engine.mul_s", -1, 50.0, 51.0)  # between passes: kept, not summed
    totals = layer_totals(recorder, lambda readings: np.asarray(readings, dtype=float), [(0.0, 10.0)])
    assert totals.seconds["mpc.engine.cmp_s"] == pytest.approx(4.0 - 1.5)
    assert totals.seconds["mpc.engine.mul_s"] == pytest.approx(1.5)
    assert totals.spanned["mpc.engine.cmp_s"] == pytest.approx(4.0)
    assert totals.calls["mpc.engine.mul_s"] == 2
    assert totals.covered == pytest.approx(4.0)
    assert len(totals.spans) == 4


def _originals():
    found = {}
    for target in trace.TARGETS:
        owner = trace._resolve(target.owner)
        found[(target.owner, target.attribute)] = vars(owner)[target.attribute]
    return found


def test_every_target_exists_at_this_commit():
    tracer = Tracer()
    tracer.install()
    tracer.remove()
    assert tracer.missing == []


def test_wrappers_are_restored_after_a_traced_run():
    before = _originals()
    tracer = Tracer()
    tracer.install()
    during = _originals()
    tracer.remove()
    after = _originals()
    assert all(after[key] is before[key] for key in before)
    wrapped = [key for key in before if during[key] is not before[key]]
    assert len(wrapped) == len(before)


def test_a_missing_target_is_skipped_and_reported():
    tracer = Tracer([Target("mpc.engine.mul_s", "repro.mpc.engine:MPCEngine", "no_such_method")])
    tracer.install()
    tracer.remove()
    assert tracer.missing == ["repro.mpc.engine:MPCEngine.no_such_method"]


def test_spans_nest_and_survive_exceptions():
    from repro.crypto import merkle

    tracer = Tracer([Target("crypto.merkle.build_s", "repro.crypto.merkle:MerkleTree", "__init__")])
    tracer.install()
    try:
        merkle.MerkleTree([b"a", b"b"])
        with pytest.raises(Exception):
            merkle.MerkleTree(None)
    finally:
        tracer.remove()
    recorder = tracer.recorder
    assert len(recorder.starts) == 2
    assert all(end >= start > 0.0 for start, end in zip(recorder.starts, recorder.ends))
    assert recorder.stack == [-1]
    assert not hasattr(merkle.MerkleTree.__init__, "__wrapped__")


def test_an_end_to_end_run_installs_nothing():
    """`--trace 0` never constructs a tracer: the callables stay the originals."""
    import argparse

    from bench import run

    before = _originals()
    args = argparse.Namespace(
        workload="plan_catalog", seed=5, seconds=0, trace=0, smoke=True, setup_only=True
    )
    timed = run._timed_part(args)
    assert timed.tracer is None
    assert all(_originals()[key] is before[key] for key in before)
