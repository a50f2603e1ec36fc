"""Verdicts of compare.py: bounds, spreads that hide them, a machine that moved."""

from bench import compare, metrics


def _set(pass_s, rounds=None, calib=(2.3, 2.3), digest="d"):
    def entry(value, per_round=None):
        return {"value": value, "unit": "s", "per_round": per_round or [value, value]}

    row = {
        "metrics": {m.name: entry(1.0) for m in metrics.END_TO_END},
        "calib_ms": list(calib),
        "digest": digest,
        "failures": [],
    }
    row["metrics"]["pass_s"] = entry(pass_s, rounds)
    return {"workloads": {"plan_catalog": row}}


def _verdict(first, second, calib_moved=False):
    a = first["workloads"]["plan_catalog"]["metrics"]["pass_s"]
    b = second["workloads"]["plan_catalog"]["metrics"]["pass_s"]
    return compare.verdict(a, b, 0.15, calib_moved)


def test_inside_and_outside_the_bound():
    assert _verdict(_set(1.0), _set(1.10)) == "within"
    assert _verdict(_set(1.0), _set(1.20)) == "worse"
    assert _verdict(_set(1.0), _set(0.80)) == "better"


def test_a_set_whose_rounds_disagree_beyond_the_bound_resolves_nothing():
    noisy = _set(1.0, rounds=[0.9, 1.1])
    assert _verdict(noisy, _set(1.0)) == "unresolved"
    assert _verdict(_set(1.0), noisy) == "unresolved"


def test_a_machine_that_moved_resolves_nothing(capsys):
    assert _verdict(_set(1.0), _set(1.0), calib_moved=True) == "unresolved"
    bad = compare.report(_set(1.0), _set(1.0, calib=(2.9, 3.0)))
    assert bad == len(metrics.END_TO_END)
    assert "moved more than 10%" in capsys.readouterr().out


def test_identical_sets_compare_clean_and_differing_digests_do_not(capsys):
    assert compare.report(_set(1.0), _set(1.0)) == 0
    assert compare.report(_set(1.0), _set(1.0, digest="other")) == 1
    assert "DIFFER" in capsys.readouterr().out
