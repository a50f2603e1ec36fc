"""The verdict rule of ``tools/bench_pairs.py`` (the guide's: nine wins in ten
and a median gap wider than the parent's own quartile distance), and the
committed trajectory ``BENCH_path.json`` its ``--record`` appends to."""

import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("bench_pairs", REPO / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

PARENT = [3.0, 3.1, 2.9, 3.0, 3.05, 2.95, 3.0, 3.0, 3.1, 2.9]


def verdicts(parent, change, bound=0.2, lower=True):
    summary = bench_pairs.summarize(parent, change, bound, lower)
    row = bench_pairs.row_text("pass_s", summary, len(parent), bound, "s")
    assert row.endswith(f"claim {summary['claim']}; bound {bound:.2f} {summary['bound']}")
    return summary["claim"], summary["bound"], summary["bound"] == "worse"


def test_a_clear_gain_meets_the_claim():
    assert verdicts(PARENT, [v - 1.0 for v in PARENT]) == ("met", "within", False)
    # higher-is-better metrics win by rising
    assert verdicts(PARENT, [v + 1.0 for v in PARENT], lower=False) == ("met", "within", False)


def test_eight_wins_or_a_gap_inside_the_parents_spread_is_unresolved():
    change = [v - 1.0 for v in PARENT]
    change[0], change[1] = PARENT[0] + 0.01, PARENT[1] + 0.01
    assert verdicts(PARENT, change)[0] == "unresolved"
    assert verdicts(PARENT, [v - 0.01 for v in PARENT])[0] == "unresolved"  # 10 wins, tiny gap
    # ties count for neither side
    assert verdicts(PARENT, list(PARENT)) == ("unresolved", "within", False)


def test_bound_verdicts():
    assert verdicts(PARENT, [v * 1.3 for v in PARENT]) == ("unresolved", "worse", True)
    noisy = [1.0, 2.0, 0.5, 1.0, 1.9, 0.4, 1.0, 2.1, 0.6, 1.0]
    assert verdicts(noisy, noisy[::-1])[1] == "unresolved"  # spread wider than the bound
    # ... unless every run of the change beats every run of the parent
    assert verdicts(noisy, [0.1] * 10)[1] == "within"


def test_quartiles_of_one_run():
    assert bench_pairs.quartiles([2.0]) == (2.0, 2.0)


#: What every row measured by ``--record`` says about where it came from.
MEASURED = {
    "parent", "parent_commit", "change_commit", "change_dirty", "cpu_model", "cores",
    "backend", "seed", "pairs", "date",
}
#: A row copied from the prose tables that predate the series.
BACKFILLED = {"backfilled", "source", "backend", "seed", "pairs"}

#: The ROADMAP's "latest median" column: ``pass_s`` of the change, per workload and seed.
ROADMAP_MEDIANS = {
    ("service_mix", 2023): 1.218,
    ("service_mix", 7): 1.174,
    ("program_mix", 2023): 0.328,
    ("intake_65k", 2023): 1.160,
    ("durable_16k", 2023): 0.882,
    ("plan_catalog", 2023): 0.403,
    ("plan_catalog", 7): 0.399,
}


def test_the_trajectory_parses_and_every_row_has_provenance():
    rows = bench_pairs.read_record(REPO / "BENCH_path.json")
    for row in rows:
        source = row["provenance"]
        assert (BACKFILLED if source.get("backfilled") else MEASURED) <= source.keys(), row
        assert {"workload", "metric", "unit", "better"} <= row.keys(), row
        assert {"median"} <= row["parent"].keys() and {"median"} <= row["change"].keys(), row
    backfilled = {
        (row["workload"], row["provenance"]["seed"]): row["change"]["median"]
        for row in rows
        if row["metric"] == "pass_s" and row["provenance"].get("backfilled")
    }
    assert {key: backfilled.get(key) for key in ROADMAP_MEDIANS} == ROADMAP_MEDIANS


def test_a_measured_row_records_every_provenance_key():
    assert bench_pairs.provenance("HEAD", REPO, 7, 10, "pure").keys() == MEASURED


def test_record_appends_one_row_a_line(tmp_path):
    path = tmp_path / "path.json"
    bench_pairs.append_record(path, [{"workload": "a"}])
    bench_pairs.append_record(path, [{"workload": "b", "source": "§46"}, {"workload": "c"}])
    assert bench_pairs.read_record(path) == [
        {"workload": "a"}, {"workload": "b", "source": "§46"}, {"workload": "c"},
    ]
    assert len(path.read_text(encoding="utf-8").splitlines()) == 5
