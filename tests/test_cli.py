"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestPlanCommand:
    def test_plan_builtin_query(self, capsys):
        code = main(
            ["plan", "cms", "--participants", "1000000", "--categories", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "certified" in out
        assert "vignette" in out
        assert "cost report" in out

    def test_plan_from_file(self, tmp_path, capsys):
        query = tmp_path / "q.arb"
        query.write_text("aggr = sum(db); output(em(aggr));")
        code = main(
            [
                "plan",
                str(query),
                "--participants",
                "1000000",
                "--categories",
                "16",
                "--epsilon",
                "1.0",
            ]
        )
        assert code == 0
        assert "select_max" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "participants, categories, walked",
        [("256", "8", 65), ("1000000000", str(2**15), 364)],
    )
    def test_plan_stats_print_the_legal_and_the_walked_space(
        self, capsys, participants, categories, walked
    ):
        code = main(
            [
                "plan", "top1",
                "--participants", participants,
                "--categories", categories,
                "--stats",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert (
            f"search space: 364 candidates, {walked} distinct instantiations walked;"
            in out
        )

    def test_plan_with_constraints(self, capsys):
        code = main(
            [
                "plan",
                "top1",
                "--participants", "1000000",
                "--categories", "64",
                "--max-participant-minutes", "30",
                "--max-participant-gb", "4",
            ]
        )
        assert code == 0

    def test_infeasible_returns_nonzero(self, capsys):
        code = main(
            [
                "plan",
                "top1",
                "--participants", "1000000000",
                "--max-aggregator-core-hours", "0.001",
            ]
        )
        assert code == 1
        assert "planning failed" in capsys.readouterr().err

    def test_a_limit_of_zero_is_a_limit(self, capsys):
        # Truthiness used to read 0 as "no limit" and plan unconstrained.
        for flag in (
            "--max-aggregator-core-hours",
            "--max-participant-minutes",
            "--max-participant-gb",
        ):
            assert main(["plan", "top1", flag, "0"]) == 1, flag
            assert "planning failed:" in capsys.readouterr().err

    def test_goal_option(self, capsys):
        code = main(
            [
                "plan", "cms",
                "--participants", "1000000",
                "--categories", "1",
                "--goal", "aggregator_bytes",
            ]
        )
        assert code == 0


class TestRunCommand:
    def test_run_builtin(self, capsys):
        code = main(
            [
                "run", "top1",
                "--devices", "32",
                "--categories", "4",
                "--epsilon", "8.0",
                "--seed", "5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "output(s):" in out
        assert "em selected" in out


class TestQueriesCommand:
    def test_lists_all(self, capsys):
        assert main(["queries"]) == 0
        out = capsys.readouterr().out
        for name in ("top1", "topK", "median", "k-medians"):
            assert name in out


class TestEvalCommand:
    def test_table2(self, capsys):
        assert main(["eval", "table2"]) == 0
        assert "supported queries" in capsys.readouterr().out

    def test_unknown_artifact(self, capsys):
        assert main(["eval", "fig99"]) == 1
        assert "unknown artifact" in capsys.readouterr().err


class TestExplain:
    def test_explain_prints_vignette_table(self, capsys):
        from repro.cli import main as cli_main

        code = cli_main(
            [
                "plan", "top1", "--explain",
                "--participants", "1000000",
                "--categories", "64",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "compute/inst" in out
        assert "keygen" in out
        assert "% of devices serve" in out


SERVICE_WORKLOAD = {
    "devices": 24,
    "seed": 7,
    "categories": 8,
    "distribution": [25, 1, 1, 1, 1, 1, 1, 1],
    "epsilon_budget": 10.0,
    "tenants": [
        {"name": "alice", "epsilon_budget": 6.0},
        {"name": "bob", "epsilon_budget": 4.0},
    ],
    "queries": [
        {
            "tenant": "alice",
            "query": "aggr = sum(db); output(laplace(aggr[0], sens / epsilon));",
            "epsilon": 1.0,
        },
        {
            "tenant": "bob",
            "query": "aggr = sum(db); output(laplace(aggr[0], sens / epsilon));",
            "epsilon": 1.0,
        },
    ],
}


class TestServiceCommands:
    def write_workload(self, tmp_path):
        import json

        path = tmp_path / "workload.json"
        path.write_text(json.dumps(SERVICE_WORKLOAD))
        return str(path)

    def test_serve_replays_workload(self, tmp_path, capsys):
        assert main(["serve", self.write_workload(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "2 submitted" in out
        assert "2 executed" in out
        assert "plan cache:" in out
        assert "alice" in out and "bob" in out

    def test_serve_json_report(self, tmp_path, capsys):
        import json

        assert main(["serve", self.write_workload(tmp_path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["statistics"]["executed"] == 2
        assert report["budget"]["spent_epsilon"] == pytest.approx(2.0)
        assert {row["tenant"] for row in report["tenants"]} == {"alice", "bob"}

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "cms", "--devices", "16", "--shard-workers", "2"],
            ["chaos", "--scenario", "none", "--shard-workers", "2"],
            ["serve", "WORKLOAD", "--workers", "2"],
            ["tenants", "WORKLOAD", "--workers", "2"],
            ["plan", "top1", "--workers", "2"],
        ],
        ids=["run", "chaos", "serve", "tenants", "plan"],
    )
    def test_the_removed_thread_counts_are_unrecognised(self, argv, tmp_path, capsys):
        workload = self.write_workload(tmp_path)
        argv = [workload if arg == "WORKLOAD" else arg for arg in argv]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        # The same command without the flag is a command.
        assert main(argv[:-2]) == 0

    def test_tenants_table(self, tmp_path, capsys):
        assert main(["tenants", self.write_workload(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "tenant" in out and "ε spent" in out
        assert "global: ε 2 spent of 10" in out

    def test_submit_one_query(self, tmp_path, capsys):
        query = tmp_path / "q.arb"
        query.write_text(
            "aggr = sum(db); output(laplace(aggr[0], sens / epsilon));"
        )
        code = main(
            [
                "submit", str(query),
                "--tenant", "alice",
                "--categories", "8",
                "--epsilon", "1.0",
                "--epsilon-budget", "5.0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "admitted 'alice/0001'" in out
        assert "outcome: executed" in out
        assert "ε charged: 1" in out

    @pytest.mark.parametrize(
        "flag, code, err",
        [
            ("--tenant-budget", 1, "rejected at admission (BudgetExhausted): "),
            ("--devices", 2, "repro submit: a federated deployment needs at least 4 devices"),
        ],
        ids=["tenant-budget", "devices"],
    )
    def test_an_explicit_zero_is_not_unset(self, flag, code, err, capsys):
        # A zero envelope admits nothing (not the global budget), and zero
        # devices deploy nothing (not the default 24).
        try:
            exit_code = main(["submit", "top1", flag, "0"])
        except SystemExit as exit_info:  # a usage error, as argparse's are
            exit_code = exit_info.code
        assert exit_code == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith(err)

    def test_submit_over_budget_is_typed_rejection(self, tmp_path, capsys):
        query = tmp_path / "q.arb"
        query.write_text(
            "aggr = sum(db); output(laplace(aggr[0], sens / epsilon));"
        )
        code = main(
            [
                "submit", str(query),
                "--tenant", "alice",
                "--categories", "8",
                "--epsilon", "6.0",
                "--epsilon-budget", "5.0",
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "BudgetExhausted" in err


class TestBackendsCommand:
    def test_backends_table(self, capsys):
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        assert "backend" in out and "available" in out
        assert "pure" in out and "accel" in out
        # Exactly one backend is marked active.
        assert out.count("selected:") == 1
        assert "REPRO_CRYPTO_BACKEND" in out

    def test_backends_json(self, capsys):
        import json

        assert main(["backends", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["env_var"] == "REPRO_CRYPTO_BACKEND"
        rows = {row["backend"]: row for row in report["backends"]}
        assert set(rows) == {"pure", "accel"}
        assert rows["pure"]["available"] is True
        assert sum(1 for row in rows.values() if row["selected"]) == 1
        selected = next(row for row in rows.values() if row["selected"])
        assert selected["selection_reason"]

    @pytest.mark.parametrize(
        "argv", [["backends"], ["run", "cms", "--devices", "16"]], ids=["backends", "run"]
    )
    def test_mis_set_env_var_is_a_usage_error(self, argv, monkeypatch, capsys):
        from repro.crypto.backend import set_backend

        monkeypatch.setenv("REPRO_CRYPTO_BACKEND", "foo")
        with pytest.raises(ValueError):
            set_backend(None)  # drop the cached selection; re-selecting fails
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert (
            "repro: error: REPRO_CRYPTO_BACKEND='foo' is not a known backend; "
            "expected one of ['accel', 'pure']"
        ) in err
        assert "Traceback" not in err

    def test_run_stats_name_the_backend(self, tmp_path, capsys):
        query = tmp_path / "q.arb"
        query.write_text("aggr = sum(db); r = em(aggr); output(r);")
        code = main(
            ["run", str(query), "--devices", "16", "--categories", "4", "--stats"]
        )
        assert code == 0
        out = capsys.readouterr().out
        from repro.crypto.backend import active_backend_name

        assert f"crypto_backend: {active_backend_name()}" in out
        from tests.test_sharded_runtime import TestIntakeCounts

        block = out.split("runtime statistics:\n", 1)[1].splitlines()
        assert tuple(line.split(":")[0].strip() for line in block) == TestIntakeCounts.KEYS
