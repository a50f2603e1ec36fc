"""Every script under ``examples/`` runs to completion, in-process.

Nothing else executes the examples in tier-1, which is how
``federated_clustering.py`` stayed broken for two PRs after ``Device`` got
slots. They also put caller shapes no benchmark workload has — a
multi-round bounded-range :class:`~repro.session.AnalyticsSession` — on
the executor's one intake path.
"""

import runpy
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples").glob("*.py"))


def test_the_six_examples_are_found():
    assert len(EXAMPLES) == 6


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(script, capsys):
    runpy.run_path(str(script), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip()
    if script.stem == "federated_clustering":
        # Three answered rounds, then the committee refuses the fourth.
        assert "round 2: centers ->" in out
        assert "round 3: REFUSED" in out
