"""Committees compare at the width the plan's certified ranges need.

``less_than`` at width k is right only for |a - b| < 2^k. These tests pin
the rule that sizes k (``repro.runtime.width``), the executor's refusal
past what the field can mask, and an argmax tournament whose scores are
more than 2^40 apart — wrong at a fixed 40 bits, and wrong again at one bit
short of the derived width.
"""

import random

import pytest

from repro.analysis.ranges import Interval
from repro.analysis.types import QueryEnvironment, ValueType
from repro.mpc.beaver import OfflineDealer
from repro.mpc.engine import MPCEngine
from repro.mpc.protocols import FIXPOINT_SCALE, to_fixpoint
from repro.planner.search import Planner
from repro.privacy.accountant import PrivacyAccountant
from repro.privacy.mechanisms import gumbel_sample, gumbel_support
from repro.queries.catalog import ALL_QUERIES, get
from repro.runtime import executor as executor_module
from repro.runtime.executor import ComparisonWidthError, QueryExecutor, QueryRejected
from repro.runtime.network import FederatedNetwork
from repro.runtime.width import ComparisonSite, comparison_sites, comparison_width
from repro.session import AnalyticsSession

TOP1 = "aggr = sum(db); output(em(aggr));"
COUNT = "aggr = sum(db); output(laplace(aggr[0], sens / epsilon));"


class TestEngineWidth:
    @pytest.mark.parametrize("seed", range(20))
    def test_less_than_is_right_only_at_the_width_its_span_needs(self, seed):
        a, b = 2**41 + 5, 3
        narrow = MPCEngine(5, rng=random.Random(seed), bit_width=40)
        lt = narrow.less_than(narrow.input_value(a), narrow.input_value(b))
        assert narrow.open(lt) != 0  # the old fixed width opens garbage
        width = ComparisonSite(0, "a < b", a - b).bits
        assert width == 42
        engine = MPCEngine(5, rng=random.Random(seed), bit_width=width)
        lt = engine.less_than(engine.input_value(a), engine.input_value(b))
        assert engine.open(lt) == 0
        gt = engine.less_than(engine.input_value(b), engine.input_value(a))
        assert engine.open(gt) == 1


def _catalog_environment(spec, devices=256):
    """The scaled-down environments the benchmark's program mix runs."""
    categories = {"hypotest": 1, "cms": 1, "k-medians": 20}.get(spec.name, 8)
    epsilon = {"bayes": 16.0, "k-medians": 40.0}.get(spec.name, 8.0)
    return spec.environment(devices, categories=categories, epsilon=epsilon)


def _width(spec, env):
    return comparison_width(Planner(env).plan_source(spec.source, name=spec.name).logical_plan)


class TestWidthRule:
    def test_catalog_widths_at_256_devices(self):
        widths = {spec.name: _width(spec, _catalog_environment(spec)) for spec in ALL_QUERIES}
        assert widths == {
            "top1": 25, "topK": 25, "gap": 25, "auction": 31, "hypotest": 1,
            "secrecy": 25, "median": 26, "cms": 1, "bayes": 1, "k-medians": 9,
        }

    def test_auction_at_paper_scale_is_past_the_field(self):
        spec = get("auction")
        assert _width(spec, spec.environment()) == 91
        assert _width(get("top1"), get("top1").environment()) == 46

    def test_released_values_are_not_comparison_sites(self):
        """hypotest compares a Laplace release and k-medians clips one: both
        are public, so only k-medians' clip of the aggregate is a site."""
        def sites(name):
            spec = get(name)
            plan = Planner(_catalog_environment(spec)).plan_source(spec.source, name=name)
            return [site.expr for site in comparison_sites(plan.logical_plan)]

        assert sites("hypotest") == []
        assert sites("k-medians") == ["clip(aggr[i], 1, N)"]
        assert sites("gap") == ["em(aggr)", "max(rest)"]

    def test_a_loop_that_narrows_a_value_is_sized_by_its_widest_pass(self):
        """The loop's first iteration compares the raw count; the checker's
        last pass only sees it clipped to [0, 10]."""
        source = """
aggr = sum(db);
x = aggr[0];
for i = 0 to 2 do
  below = x < 5;
  x = clip(x, 0, 10);
endfor
output(em(aggr));
"""
        env = _catalog_environment(get("top1"))
        plan = Planner(env).plan_source(source, name="narrowing")
        bits = {site.expr: site.bits for site in comparison_sites(plan.logical_plan)}
        assert bits["(x < 5)"] == (256 - 5).bit_length()
        assert bits["clip(x, 0, 10)"] == (256 - 0).bit_length()

    def test_em_span_is_scores_plus_the_gumbel_support(self):
        spec = get("top1")
        env = _catalog_environment(spec)
        plan = Planner(env).plan_source(spec.source, name="top1")
        (site,) = comparison_sites(plan.logical_plan)
        lo, hi = gumbel_support(2.0 * env.sensitivity / env.epsilon)
        assert site.span == (256 + hi - lo) * FIXPOINT_SCALE + 1

    def test_gumbel_support_is_the_samplers_extremes(self):
        class Extreme(random.Random):
            def __init__(self, u):
                super().__init__(0)
                self.u = u

            def random(self):
                return self.u

        lo, hi = gumbel_support(3.0)
        assert gumbel_sample(3.0, Extreme(2.0**-53)) == lo
        assert gumbel_sample(3.0, Extreme(1.0 - 2.0**-53)) == hi
        assert lo == pytest.approx(-3.604 * 3.0, rel=1e-3)
        assert hi == pytest.approx(36.737 * 3.0, rel=1e-3)


#: Per-device cell bound: eight devices at it put the top scores 2^45 apart
#: in fixpoint, past 40 bits and past half the certified span.
CELL = int(1.2 * 2**26)
DEVICES, CATEGORIES = 8, 4


@pytest.fixture(scope="module")
def wide_planning():
    env = QueryEnvironment(
        num_participants=DEVICES,
        row_width=CATEGORIES,
        db_element=ValueType("int", Interval(0.0, float(CELL))),
        epsilon=64.0,
        sensitivity=float(CELL),
        row_encoding="bounded",
    )
    return Planner(env).plan_source(TOP1, name="wide-top1")


def _run_wide(planning, seed):
    network = FederatedNetwork(DEVICES, rng=random.Random(seed))
    for device in network.devices:
        device.value = [CELL, CELL, 0, 0]
    executor = QueryExecutor(network, planning, rng=random.Random(100 + seed))
    (released,) = executor.run().outputs
    # The cleartext argmax over the same labelled noise streams.
    env = planning.logical_plan.env
    scale = 2.0 * env.sensitivity / env.epsilon
    _style, batch, _fanout = executor._em_parameters()
    totals = [DEVICES * CELL, DEVICES * CELL, 0, 0]
    noised = []
    for start in range(0, CATEGORIES, batch):
        stream = executor.faults.fresh(f"noise/em0/{start}")
        for total in totals[start : start + batch]:
            noised.append(total * FIXPOINT_SCALE + to_fixpoint(gumbel_sample(scale, stream)))
    return released, max(range(CATEGORIES), key=noised.__getitem__)


class TestArgmaxTreePastFortyBits:
    def test_the_certified_width_is_past_forty_and_within_the_field(self, wide_planning):
        assert comparison_width(wide_planning.logical_plan) == 46

    @pytest.mark.parametrize("seed", range(4))
    def test_release_is_the_cleartext_argmax(self, wide_planning, seed):
        released, expected = _run_wide(wide_planning, seed)
        assert released == expected

    def test_one_bit_short_releases_a_wrong_winner(self, wide_planning, monkeypatch):
        """The data reach the top bit: a width one short of the rule's
        breaks the same run."""
        derived = executor_module.comparison_width
        monkeypatch.setattr(
            executor_module, "comparison_width", lambda logical: derived(logical) - 1
        )
        released, expected = _run_wide(wide_planning, 0)
        assert released != expected


class TestRefusalPastTheField:
    def test_auction_at_paper_scale_is_refused_before_any_charge(self):
        spec = get("auction")
        planning = Planner(spec.environment()).plan_source(spec.source, name="auction")
        network = FederatedNetwork(16, rng=random.Random(3))
        network.load_categorical_data(8)
        accountant = PrivacyAccountant(10.0, 1e-6)
        executor = QueryExecutor(
            network, planning, rng=random.Random(4), accountant=accountant
        )
        with pytest.raises(ComparisonWidthError, match=r"line 9: em\(rev\) needs 91-bit") as info:
            executor.run()
        assert isinstance(info.value, QueryRejected)
        assert accountant.spent.epsilon == 0.0
        assert not accountant.charged("auction")
        assert executor.pool is None and executor.events == []


class TestSessionStreams:
    def test_dealer_draws_of_one_query_move_no_value_of_the_next(self, monkeypatch):
        def released(extra_dealer_draws):
            network = FederatedNetwork(40, rng=random.Random(71))
            network.load_categorical_data(8, distribution=[25, 1, 1, 1, 1, 1, 1, 1])
            session = AnalyticsSession(
                network, epsilon_budget=10.0, epsilon_per_query=4.0, rng=random.Random(72)
            )
            with monkeypatch.context() as patch:
                if extra_dealer_draws:
                    triple = OfflineDealer.triple

                    def one_more_draw(self):
                        self._rng.getrandbits(64)
                        return triple(self)

                    patch.setattr(OfflineDealer, "triple", one_more_draw)
                first = session.ask(TOP1, categories=8, name="q1").outputs
            second = session.ask(COUNT, categories=8, name="q2").outputs
            return first, second

        assert released(True) == released(False)
