"""The verdict rule of ``tools/bench_pairs.py`` (the guide's: nine wins in ten
and a median gap wider than the parent's own quartile distance)."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

PARENT = [3.0, 3.1, 2.9, 3.0, 3.05, 2.95, 3.0, 3.0, 3.1, 2.9]


def verdicts(parent, change, bound=0.2, lower=True):
    row, worse = bench_pairs.judge("pass_s", parent, change, bound, "s", lower)
    claim = row.split("claim ")[1].split(";")[0]
    return claim, row.rsplit(" ", 1)[1], worse


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
