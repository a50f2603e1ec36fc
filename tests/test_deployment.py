"""One validated deployment value (runtime/deployment.py).

A :class:`Deployment` refuses, at construction, every value no protocol run
can use, so ``repro run`` and ``repro chaos`` end in one line instead of a
traceback from inside ``run()``. Its manifest is the journal's ``open``
record, byte for byte what earlier builds wrote.
"""

import hashlib
import json
import math
from dataclasses import replace

import pytest
from hypothesis import event, given, strategies as st

from repro.cli import _chaos_execute, build_parser, main
from repro.faults import get_scenario, list_scenarios
from repro.queries.catalog import get
from repro.runtime import Deployment, DeploymentInvalid
from repro.runtime.deployment import CHAOS_QUERY
from repro.runtime.executor import ExecutionError, QueryExecutor, QueryRejected
from repro.runtime.journal import canonical_json
from tests.conftest import FUZZ

#: ``repro run top1 --devices 32`` with every other flag at its default.
RUN = Deployment(
    recipe="run", query_name="top1", source=get("top1").source, devices=32,
    categories=8, epsilon=4.0, sensitivity=1.0, committee_size=4, malicious=0.0,
    seed=0, shard_size=1024, tree_fanout=16,
)

#: Each flag value ``repro run top1 --devices 32`` refuses, with the field named.
REFUSED = [
    ("--committee-size", "0", "committee_size"),
    ("--committee-size", "1", "committee_size"),
    ("--committee-size", "2", "committee_size"),
    ("--committee-size", "48", "committee_size"),
    ("--tree-fanout", "1", "tree_fanout"),
    ("--epsilon", "0", "epsilon"),
    ("--epsilon", "nan", "epsilon"),
    ("--epsilon", "inf", "epsilon"),
    ("--sensitivity", "0", "sensitivity"),
    ("--sensitivity", "-1", "sensitivity"),
    ("--devices", "3", "devices"),
    ("--shard-size", "0", "shard_size"),
    ("--categories", "0", "categories"),
    ("--malicious", "1.0", "malicious"),
    ("--malicious", "-0.1", "malicious"),
]


class TestRefusedAtConstruction:
    @pytest.mark.parametrize(
        "flag, value, field", REFUSED, ids=[f"{flag[2:]}={value}" for flag, value, _ in REFUSED]
    )
    def test_repro_run_refuses_in_one_line(self, flag, value, field, monkeypatch, capsys):
        kind = type(getattr(RUN, field))
        with pytest.raises(DeploymentInvalid) as caught:
            replace(RUN, **{field: kind(float(value)) if kind is int else kind(value)})
        assert caught.value.field == field and isinstance(caught.value, QueryRejected)

        def no_build(*_args, **_kwargs):
            raise AssertionError("a refused deployment reached planning")

        monkeypatch.setattr(Deployment, "build", no_build)
        assert main(["run", "top1", "--devices", "32", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"repro run: {caught.value}"]
        assert captured.err.startswith(f"repro run: {field}: ")

    def test_repro_chaos_refuses_in_one_line(self, capsys):
        assert main(["chaos", "--scenario", "none", "--committee-size", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("repro chaos: committee_size: ")
        assert len(captured.err.splitlines()) == 1 and "Traceback" not in captured.err

    def test_a_query_that_does_not_plan_is_a_planning_failure(self, tmp_path, capsys):
        query = tmp_path / "q.arb"
        query.write_text("x")
        assert main(["run", str(query), "--devices", "32"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("planning failed: ") and len(err.splitlines()) == 1

    def test_a_typed_execution_failure_ends_in_one_line(self, monkeypatch, capsys):
        def fail(_executor):
            raise ExecutionError("the committee could not finish")

        monkeypatch.setattr(QueryExecutor, "run", fail)
        assert main(["run", "top1", "--devices", "32"]) == 1
        assert capsys.readouterr().err == (
            "repro run: ExecutionError: the committee could not finish\n"
        )


class TestManifest:
    #: sha256 of the ``open`` line each journal starts with, taken on the build
    #: before ``Deployment`` existed.
    PINS = {
        "run": "f160b2426dad5863a6ed46aaf389ff41b0bd474e493a2159ec298806e53b68ac",
        "chaos": "34ff8b9afe5bd2753b624d904de1dc768b52da512ee60430f232c25712f23d6f",
    }

    @pytest.mark.parametrize("recipe", ["run", "chaos"])
    def test_the_open_record_is_byte_identical_to_earlier_builds(self, recipe, tmp_path, capsys):
        path = str(tmp_path / f"{recipe}.journal")
        if recipe == "run":
            assert main(["run", "top1", "--devices", "32", "--journal", path]) == 0
        else:  # the baseline journal of ``repro chaos --crash-sweep``
            _chaos_execute(build_parser().parse_args(["chaos"]), get_scenario("none"), path)
        with open(path, "rb") as handle:
            assert hashlib.sha256(handle.readline()).hexdigest() == self.PINS[recipe]


#: Values of the wrong type or out of every field's range.
_JUNK = st.sampled_from([None, True, "x", 0, -1, float("nan"), float("inf"), {}])


def _mostly(strategy):
    """``strategy``, and now and then a junk value."""
    return st.integers(0, 9).flatmap(lambda roll: _JUNK if roll == 9 else strategy)


class TestDeploymentProperties:
    @FUZZ
    @given(data=st.data())
    def test_a_drawn_deployment_is_refused_or_round_trips(self, data):
        recipe = data.draw(_mostly(st.sampled_from(["run", "chaos"])))
        carried = {
            "run": ("malicious",), "chaos": ("key_prime_bits", "fault_seed", "scenario"),
        }.get(recipe if isinstance(recipe, str) else None, ())
        scenarios = st.sampled_from([plan.as_dict() for plan in list_scenarios()])
        drawn = st.builds(
            Deployment,
            recipe=st.just(recipe),
            query_name=_mostly(st.sampled_from(["top1", "chaos"])),
            source=_mostly(st.sampled_from([CHAOS_QUERY, "x"])),
            devices=_mostly(st.integers(4, 40)),
            categories=_mostly(st.integers(1, 9)),
            epsilon=_mostly(st.floats(0.01, 16) | st.integers(1, 8)),
            sensitivity=_mostly(st.floats(0.01, 4)),
            committee_size=_mostly(st.integers(3, 8)),
            seed=_mostly(st.integers(-(2**70), 2**70)),
            shard_size=_mostly(st.integers(1, 9)),
            tree_fanout=_mostly(st.integers(2, 9)),
            **{
                name: _mostly(strategy if name in carried else st.none())
                for name, strategy in (
                    ("malicious", st.floats(0, 0.99)),
                    ("key_prime_bits", st.integers(8, 256)),
                    ("fault_seed", st.integers(0, 9)),
                    ("scenario", scenarios | st.just({"events": []})),
                )
            },
        )
        try:
            deployment = data.draw(drawn)
        except DeploymentInvalid as refused:
            assert refused.field in Deployment.__dataclass_fields__
            event(f"refused: {refused.field}")
            return
        event("round-trips")
        assert math.isfinite(deployment.epsilon) and deployment.epsilon > 0
        manifest = deployment.as_manifest()
        assert Deployment.from_manifest(manifest) == deployment
        # What the journal stores and reads back is the canonical JSON.
        assert Deployment.from_manifest(json.loads(canonical_json(manifest))) == deployment
