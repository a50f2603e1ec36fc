"""Shape tests for the evaluation harness (§7).

These assert the *qualitative* claims of each table/figure — who wins, by
roughly what factor, where crossovers fall — which is what the reproduction
is accountable for (absolute numbers come from a calibrated model).
"""

import math

import pytest

from repro.cli import main
from repro.eval.experiments import (
    PAPER_CONSTRAINTS,
    chaos_sweep,
    committee_selection_fraction,
    fig6,
    fig7,
    fig8,
    fig10,
    table1,
    table2,
)
from repro.eval.hetero import heterogeneity_experiment
from repro.eval.power import BATTERY_BUDGET_FRACTION, IPHONE_SE_BATTERY_MAH, fig11

EM_QUERIES = {"top1", "topK", "gap", "auction", "secrecy", "median"}
LAPLACE_QUERIES = {"hypotest", "cms", "bayes", "k-medians"}


class TestTable1:
    def test_rows(self):
        rows = table1()
        approaches = [r.approach for r in rows]
        assert approaches == [
            "FHE",
            "All-to-all MPC",
            "Böhler [14]",
            "Orchard [54]",
            "Arboretum",
        ]

    def test_arboretum_is_the_only_full_solution(self):
        rows = {r.approach: r for r in table1()}
        arb = rows["Arboretum"]
        assert arb.categorical == "yes"
        assert arb.optimization == "automatic"
        assert arb.participants_contribute == "yes"
        assert rows["Orchard [54]"].categorical == "limited"

    def test_fhe_takes_years(self):
        rows = {r.approach: r for r in table1()}
        assert "years" in rows["FHE"].aggregator_computation

    def test_arboretum_worst_case_about_a_gigabyte(self):
        rows = {r.approach: r for r in table1()}
        text = rows["Arboretum"].participant_bandwidth_worst
        assert "MB" in text or "GB" in text


class TestTable2:
    def test_ten_rows_with_lines(self):
        rows = table2()
        assert len(rows) == 10
        assert all(3 <= r.lines <= 40 for r in rows)


class TestFig6:
    def test_em_queries_cost_more(self):
        rows = {(r.query, r.system): r for r in fig6()}
        cheapest_em = min(
            rows[(q, "arboretum")].total_seconds for q in EM_QUERIES
        )
        priciest_laplace = max(
            rows[(q, "arboretum")].total_seconds for q in LAPLACE_QUERIES
        )
        assert cheapest_em > priciest_laplace

    def test_expected_costs_low_in_absolute_terms(self):
        """§7.2: each participant sends between ~100 kB and a few MB and
        computes for seconds to about a minute."""
        for r in fig6():
            assert 1e4 < r.total_bytes < 2e7
            assert 0.1 < r.total_seconds < 120

    def test_matches_legacy_systems_in_expectation(self):
        rows = {(r.query, r.system): r for r in fig6()}
        for query, system in (("cms", "Honeycrisp"), ("bayes", "Orchard")):
            ours = rows[(query, "arboretum")].total_seconds
            theirs = rows[(query, system)].total_seconds
            assert 0.5 < ours / theirs < 2.0


class TestFig7:
    def test_keygen_is_most_expensive_committee(self):
        """§7.2: the key-generation committee consumes ~700 MB and ~14 min."""
        rows = [r for r in fig7() if r.system == "arboretum" and r.query == "top1"]
        by_type = {r.committee_type: r for r in rows}
        keygen = by_type["keygen"]
        assert 8 * 60 < keygen.seconds < 20 * 60
        assert 4e8 < keygen.bytes_sent < 1e9

    def test_all_committee_costs_within_device_limits(self):
        """§7.2 constraints: <= 4 GB and <= 20 minutes."""
        for r in fig7():
            if r.system != "arboretum":
                continue
            assert r.seconds <= 20 * 60 + 1
            assert r.bytes_sent <= 4e9

    def test_orchard_committee_worse_than_arboretum_operations(self):
        rows = fig7()
        orchard_bayes = max(
            r.seconds for r in rows if r.query == "bayes" and r.system == "Orchard"
        )
        arboretum_ops = max(
            r.seconds
            for r in rows
            if r.query == "bayes"
            and r.system == "arboretum"
            and r.committee_type == "operations"
        )
        assert arboretum_ops < orchard_bayes

    def test_selection_fraction_below_one_percent(self):
        """§7.2: at most ~0.5% of participants serve per run."""
        for query in ("top1", "topK", "k-medians"):
            assert committee_selection_fraction(query) < 0.01


class TestFig8:
    def test_em_queries_need_more_forwarding(self):
        rows = {(r.query, r.system): r for r in fig8()}
        em_traffic = min(rows[(q, "arboretum")].forwarding_bytes for q in EM_QUERIES)
        lap_traffic = max(
            rows[(q, "arboretum")].forwarding_bytes for q in LAPLACE_QUERIES
        )
        assert em_traffic > 3 * lap_traffic

    def test_total_hours_below_paper_ceiling(self):
        """§7.2: below ~15 hours with 1,000 cores."""
        for r in fig8():
            assert r.hours_on_cores(1000) < 15

    def test_verification_dominates(self):
        """§7.6: checking the ZKPs is the aggregator's dominant job."""
        rows = [r for r in fig8() if r.system == "arboretum"]
        for r in rows:
            assert r.verification_core_seconds > r.operations_core_seconds


class TestFig10:
    @pytest.fixture(scope="class")
    def points(self):
        return fig10(exponents=range(20, 31), limits=(1000.0, None))

    def test_aggregator_grows_with_n(self, points):
        unlimited = [p for p in points if p.limit_core_hours is None]
        hours = [p.aggregator_hours for p in unlimited]
        # The chosen instantiation may switch once at small N (the em
        # crossover); past that the cost grows monotonically — and by
        # orders of magnitude overall.
        tail = hours[3:]
        assert tail == sorted(tail)
        assert hours[-1] > min(hours) * 100

    def test_expected_cost_declines_with_n(self, points):
        """Fig 10(b): the expected participant cost decreases with N
        because the chance of serving on a committee shrinks."""
        unlimited = [p for p in points if p.limit_core_hours is None]
        minutes = [p.expected_minutes for p in unlimited]
        assert minutes[0] > 2 * minutes[-1]

    def test_limited_line_stops(self, points):
        """The A=1000 line becomes infeasible once mandatory verification
        alone exceeds the limit (paper: beyond N=2^28)."""
        limited = [p for p in points if p.limit_core_hours == 1000.0]
        feasible = [p for p in limited if p.aggregator_hours is not None]
        infeasible = [p for p in limited if p.aggregator_hours is None]
        assert feasible and infeasible
        cutoff = max(p.num_participants for p in feasible)
        assert 2**27 <= cutoff <= 2**29
        assert all(p.num_participants > cutoff for p in infeasible)

    def test_limit_respected_when_feasible(self, points):
        for p in points:
            if p.limit_core_hours and p.aggregator_hours is not None:
                assert p.aggregator_hours <= p.limit_core_hours + 1e-6

    def test_max_cost_roughly_constant(self, points):
        unlimited = [p for p in points if p.limit_core_hours is None]
        maxima = [p.max_minutes for p in unlimited]
        assert max(maxima) < 3 * min(maxima)


class TestFig11:
    def test_all_queries_within_battery_budget(self):
        budget = BATTERY_BUDGET_FRACTION * IPHONE_SE_BATTERY_MAH
        rows = fig11()
        assert len(rows) == 10
        for r in rows:
            assert r.mah <= budget, r.query

    def test_power_nontrivial(self):
        """§7.4: 'certainly nontrivial, but manageable'."""
        for r in fig11():
            assert r.mah > 5.0

    def test_base_cost_small(self):
        for r in fig11():
            assert r.base_mah < r.mah


class TestHeterogeneity:
    @pytest.fixture(scope="class")
    def results(self):
        return heterogeneity_experiment(num_parties=12, num_scores=8)

    def test_geo_distribution_dominates(self, results):
        by_name = {r.scenario: r for r in results}
        geo = by_name["geo-distributed"]
        slow = by_name["4 slow devices"]
        # Paper: +606% for geo, +51% for slow devices.
        assert 300 < geo.increase_pct < 900
        assert 20 < slow.increase_pct < 120
        assert geo.increase_pct > 4 * slow.increase_pct

    def test_rounds_are_real_protocol_counts(self, results):
        assert results[0].rounds > 100


class TestChaosSweep:
    def test_every_completed_row_releases_its_twins_value(self):
        # ``identical`` is ``run-twin-identical`` against the fault-free run.
        rows = chaos_sweep(fault_counts=(0, 2), seeds=(3,))
        assert [(r.num_faults, r.completed, r.identical) for r in rows] == [
            (0, True, True),
            (2, True, True),
        ]

    def test_the_full_sweep_prints_its_eight_rows(self, capsys):
        assert main(["eval", "chaos"]) == 0
        assert capsys.readouterr().out.splitlines()[2:] == [
            "     0     3  True      True       0          0     0.0s",
            "     1     3  True      True       0          0    14.0s",
            "     2     3  True      True       2          2   120.0s",
            "     3     3  True      True       0          0     0.0s",
            "     0     4  True      True       0          0     0.0s",
            "     1     4  True      True       1          1    60.0s",
            "     2     4  True      True       0          0     3.3s",
            "     3     4  True      True       2          2   150.0s",
        ]
