"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``plan``     certify + plan a query (from a file or inline) and print the
             chosen plan with its six-metric cost report.
``run``      plan a query and execute it end-to-end on a simulated
             deployment, printing the protocol transcript and the answer.
``queries``  list the built-in Table 2 queries.
``eval``     regenerate an evaluation artifact (table1, table2, fig6..fig11,
             hetero, or all).
``verify-plan``  plan a query and run the static plan verifier on the result,
             printing the invariant report (exit 1 on any violation);
             ``--dataflow`` additionally runs the privacy dataflow
             analyzer and prints the derived privacy certificate.
``certificate``  plan a query, run the dataflow analyzer, and print the
             machine-checkable privacy certificate as JSON.
``verify-sweep``  dataflow-analyze every catalog query at paper scale plus
             the chaos-suite query; exit 1 unless every plan analyzes
             clean and yields a certificate.
``lint``     run the privacy-invariant source lint over the repro sources
             (exit 1 on any finding, warnings included).
``chaos``    replay named fault-injection scenarios against the runtime and
             check every recovery reproduces the fault-free answer
             bit-for-bit (exit 1 on any wrong value or unpaired fault);
             coordinator-crash scenarios run through the execution journal
             and its crash→resume path. ``--json`` emits the verdicts and
             fault logs as canonical JSON; ``--crash-sweep`` kills the
             coordinator at every checkpoint in turn and verifies each
             resumed run is digest-identical to the uninterrupted one.
``resume``   reload a ``--journal`` file from a dead run, rebuild the
             deployment from its manifest, and replay to completion.
``serve``    run the multi-tenant query service over a workload file:
             admission control against per-tenant envelopes, budget
             scheduling, the keyed plan cache, and per-submission
             exactly-once accounting; prints the dispatch ledger, the
             service counter block, and per-tenant accounting.
``submit``   one-shot service submission: admit, schedule, plan (or hit
             the cache), execute one query as a named tenant and print
             the decision, score decomposition, and budget report.
``tenants``  replay a workload (deterministic under its seed) and print
             only the per-tenant accounting table.
``backends`` list the pluggable crypto kernel backends (pure oracle vs
             gmpy2 accelerated), which one is active, why it was
             selected, and how to override (``REPRO_CRYPTO_BACKEND``).
"""

from __future__ import annotations

import argparse
import random
import sys
from typing import List, Optional

from .analysis.types import QueryEnvironment
from .planner.costmodel import Constraints, CostVector, Goal
from .planner.search import Planner, PlanningFailed
from .queries.catalog import ALL_QUERIES, BY_NAME


def _read_query(args) -> str:
    if args.query_file == "-":
        return sys.stdin.read()
    if args.query_file in BY_NAME:
        return BY_NAME[args.query_file].source
    try:
        with open(args.query_file) as handle:
            return handle.read()
    except OSError as exc:
        print(
            f"cannot read query {args.query_file!r}: {exc.strerror or exc}; "
            "pass a file, a built-in query name (see 'repro queries'), or '-'",
            file=sys.stderr,
        )
        raise SystemExit(2)


def _environment(args) -> QueryEnvironment:
    spec = BY_NAME.get(args.query_file)
    if spec is not None:
        return spec.environment(
            num_participants=args.participants,
            categories=args.categories,
            epsilon=args.epsilon,
        )
    return QueryEnvironment(
        num_participants=args.participants,
        row_width=args.categories,
        epsilon=args.epsilon,
        sensitivity=args.sensitivity,
    )


def _constraints(args) -> Constraints:
    # A limit of 0 is a limit; only an absent flag leaves a metric unbounded.
    def limit(value: Optional[float], unit: float) -> Optional[float]:
        return None if value is None else value * unit

    return Constraints(
        aggregator_core_seconds=limit(args.max_aggregator_core_hours, 3600),
        participant_max_seconds=limit(args.max_participant_minutes, 60),
        participant_max_bytes=limit(args.max_participant_gb, 1e9),
    )


def _print_cost(cost: CostVector) -> None:
    print("cost report:")
    print(f"  aggregator compute:     {cost.aggregator_core_seconds / 3600:,.1f} core-hours")
    print(f"  aggregator traffic:     {cost.aggregator_bytes / 1e12:,.1f} TB")
    print(
        f"  participant (expected): {cost.participant_expected_seconds:.1f} s, "
        f"{cost.participant_expected_bytes / 1e6:.2f} MB"
    )
    print(
        f"  participant (maximum):  {cost.participant_max_seconds / 60:.1f} min, "
        f"{cost.participant_max_bytes / 1e9:.2f} GB"
    )


def cmd_plan(args) -> int:
    source = _read_query(args)
    env = _environment(args)
    planner = Planner(env, constraints=_constraints(args), goal=Goal(args.goal))
    try:
        result = planner.plan_source(source, name=args.query_file)
    except PlanningFailed as failure:
        print(f"planning failed: {failure}", file=sys.stderr)
        return 1
    if args.json:
        import json

        from .planner.serialize import planning_result_to_dict

        print(json.dumps(planning_result_to_dict(result), indent=2))
        return 0
    print(f"certified: ε = {result.certificate.epsilon:g}, "
          f"δ = {result.certificate.delta:.2e}")
    print(result.plan.describe())
    if args.explain:
        print()
        print(result.plan.explain(planner.model, env.num_participants))
    _print_cost(result.plan.cost)
    stats = result.statistics
    print(
        f"planner: {stats.prefixes_considered} prefixes, "
        f"{stats.candidates_scored} candidates, "
        f"{stats.runtime_seconds * 1000:.0f} ms"
    )
    if args.stats:
        print(
            f"  search space: {stats.space_size} candidates; "
            f"{stats.candidates_feasible} feasible, "
            f"{stats.pruned_by_constraint} pruned by constraints, "
            f"{stats.pruned_by_bound} pruned by bound"
        )
        print(
            f"  cost cache: {stats.cost_cache_hits} hits / "
            f"{stats.cost_cache_misses} misses; "
            f"expansion cache: {stats.expansion_cache_hits} hits / "
            f"{stats.expansion_cache_misses} misses"
        )
        print(f"  ordering: {stats.nodes_reordered} nodes reordered")
    return 0


def _executor_from_manifest(manifest: dict, journal=None):
    """Rebuild a :class:`QueryExecutor` from a journal manifest.

    The manifest is the ``open`` record of an execution journal: every
    parameter that shaped the original deployment. Rebuilding from it must
    reproduce the original construction order exactly (network before
    data load before executor), because the shared RNGs are consumed in
    that order and resume correctness rests on replaying the same draws.

    A manifest written by one of the removed flat data planes (it names
    one, or predates ``shard_size`` and so ran the then-default
    ``vectorized``) is refused with a :class:`JournalError` before anything
    is built: that plane's RNG schedule no longer exists, so its
    checkpoints cannot be replayed bit-identically.
    """
    from .faults import FaultInjector, FaultPlan
    from .runtime.executor import QueryExecutor
    from .runtime.journal import JournalError
    from .runtime.network import FederatedNetwork

    plane = manifest.get(
        "data_plane", "sharded" if "shard_size" in manifest else "vectorized"
    )
    if plane != "sharded":
        raise JournalError(
            f"the journal was written by the {plane!r} data plane, which this "
            "version no longer has; it cannot be replayed bit-identically"
        )
    env = QueryEnvironment(
        num_participants=manifest["devices"],
        row_width=manifest["categories"],
        epsilon=manifest["epsilon"],
        sensitivity=manifest["sensitivity"],
    )
    planning = Planner(env).plan_source(
        manifest["source"], name=manifest["query_name"]
    )
    # A manifest written by PRs 16-21 also names an intake worker count; every
    # count released the serial drain's bytes, so the key is ignored.
    shard_kwargs = {
        "shard_size": manifest["shard_size"],
        "tree_fanout": manifest["tree_fanout"],
    }
    if manifest["recipe"] == "chaos":
        network = FederatedNetwork(
            manifest["devices"], rng=random.Random(manifest["seed"])
        )
        network.load_categorical_data(manifest["categories"])
        return QueryExecutor(
            network,
            planning,
            committee_size=manifest["committee_size"],
            key_prime_bits=manifest["key_prime_bits"],
            rng=random.Random(manifest["seed"] + 1),
            faults=FaultInjector(
                FaultPlan.from_dict(manifest["scenario"]),
                seed=manifest["fault_seed"],
            ),
            journal=journal,
            **shard_kwargs,
        )
    # recipe == "run": one rng shared by sortition and executor.
    rng = random.Random(manifest["seed"])
    network = FederatedNetwork(
        manifest["devices"], rng=rng, malicious_fraction=manifest["malicious"]
    )
    network.load_categorical_data(manifest["categories"])
    return QueryExecutor(
        network,
        planning,
        committee_size=manifest["committee_size"],
        rng=rng,
        journal=journal,
        **shard_kwargs,
    )


def cmd_run(args) -> int:
    from .runtime.journal import ExecutionJournal

    source = _read_query(args)
    manifest = {
        "recipe": "run",
        "query_name": args.query_file,
        "source": source,
        "devices": args.devices,
        "categories": args.categories,
        "epsilon": args.epsilon,
        "sensitivity": args.sensitivity,
        "committee_size": args.committee_size,
        "malicious": args.malicious,
        "seed": args.seed,
        "shard_size": args.shard_size,
        "tree_fanout": args.tree_fanout,
    }
    journal = (
        ExecutionJournal.create(args.journal, manifest) if args.journal else None
    )
    executor = _executor_from_manifest(manifest, journal)
    outcome = executor.run()
    for event in outcome.events:
        print(" ", event)
    print(f"rejected: {outcome.rejected_devices}")
    print(f"output(s): {outcome.outputs}")
    if journal is not None:
        print(
            f"journal: {journal.record_count} record(s) at {args.journal} "
            f"(tail digest {journal.tail_digest()[:16]}…)"
        )
    if args.stats and outcome.statistics is not None:
        print("runtime statistics:")
        for key, value in outcome.statistics.as_dict().items():
            if isinstance(value, float):
                print(f"  {key}: {value:.6f}")
            else:
                print(f"  {key}: {value}")
    return 0


def cmd_resume(args) -> int:
    from .faults import CoordinatorCrash, UnrecoverableFault
    from .runtime.journal import ExecutionJournal, JournalError

    try:
        journal = ExecutionJournal.load(args.journal)
    except JournalError as exc:
        print(f"cannot resume: {exc}", file=sys.stderr)
        return 1
    manifest = journal.manifest
    if not manifest or "recipe" not in manifest:
        print(
            "cannot resume: the journal carries no run manifest, so the "
            "deployment cannot be rebuilt",
            file=sys.stderr,
        )
        return 1
    if journal.completed:
        stored = journal.result
        print("journal is already complete; stored result:")
        for event in stored.get("events", []):
            print(" ", event)
        print(f"output(s): {stored['outputs_repr']}")
        print(f"ε charged: {stored['epsilon_charged']}")
        return 0
    try:
        executor = _executor_from_manifest(manifest, journal)
    except JournalError as exc:
        print(f"cannot resume: {exc}", file=sys.stderr)
        return 1
    print(
        f"resuming {manifest['recipe']} run of {manifest['query_name']!r} "
        f"from {journal.record_count} journaled record(s) "
        f"({journal.crash_count} recorded crash(es))"
    )
    resumes = 1
    while True:
        try:
            outcome = executor.run()
            break
        except UnrecoverableFault as exc:
            print(exc.log.format())
            print(f"aborted: {exc.reason}", file=sys.stderr)
            return 1
        except CoordinatorCrash as crash:
            resumes += 1
            if resumes > 8:
                print("giving up: the coordinator keeps dying", file=sys.stderr)
                return 1
            print(
                f"coordinator died again at checkpoint "
                f"{crash.checkpoint_seq} ({crash.checkpoint}); resuming"
            )
            journal = ExecutionJournal.load(args.journal)
            executor = _executor_from_manifest(manifest, journal)
    for event in outcome.events:
        print(" ", event)
    print(f"output(s): {outcome.outputs}")
    stats = outcome.statistics
    print(
        f"resumed across {resumes} incarnation(s): "
        f"{stats.journal_replayed} checkpoint(s) replay-verified, "
        f"{stats.resume_events} crash(es) stepped over, "
        f"{stats.journal_records} record(s) now journaled"
    )
    return 0


def cmd_verify_plan(args) -> int:
    from .verify import verify_planning_result

    source = _read_query(args)
    env = _environment(args)
    planner = Planner(env, constraints=_constraints(args), goal=Goal(args.goal))
    try:
        result = planner.plan_source(source, name=args.query_file)
    except PlanningFailed as failure:
        print(f"planning failed: {failure}", file=sys.stderr)
        return 1
    report = verify_planning_result(result)
    print(report.format())
    ok = report.ok
    if args.dataflow:
        from .verify import analyze_planning_result

        df_report, certificate = analyze_planning_result(result)
        print()
        print(df_report.format())
        if certificate is not None:
            print()
            print(certificate.format())
        ok = ok and df_report.ok and certificate is not None
    return 0 if ok else 1


def cmd_certificate(args) -> int:
    import json

    from .verify import analyze_planning_result

    source = _read_query(args)
    env = _environment(args)
    planner = Planner(env, constraints=_constraints(args), goal=Goal(args.goal))
    try:
        result = planner.plan_source(source, name=args.query_file)
    except PlanningFailed as failure:
        print(f"planning failed: {failure}", file=sys.stderr)
        return 1
    report, certificate = analyze_planning_result(result)
    if certificate is None:
        print(report.format(), file=sys.stderr)
        return 1
    print(json.dumps(certificate.to_dict(), indent=2))
    print(f"digest: sha256:{certificate.digest()}", file=sys.stderr)
    return 0


def cmd_verify_sweep(args) -> int:
    from .verify import analyze_planning_result

    failures = 0
    targets = [
        (spec.name, spec.source, spec.environment())
        for spec in ALL_QUERIES
    ]
    # The chaos suite executes one query under every fault scenario; its
    # plan must carry a certificate too, or `repro chaos` runs unproven.
    targets.append(
        (
            "chaos",
            "aggr = sum(db); output(em(aggr));",
            QueryEnvironment(
                num_participants=32,
                row_width=8,
                epsilon=4.0,
                sensitivity=1.0,
            ),
        )
    )
    for name, source, env in targets:
        try:
            result = Planner(env).plan_source(source, name=name)
        except PlanningFailed as failure:
            print(f"{name:12s} FAILED: planning failed: {failure}")
            failures += 1
            continue
        report, certificate = analyze_planning_result(result)
        if report.ok and certificate is not None:
            print(
                f"{name:12s} ok: {len(certificate.nodes)} mechanism use(s), "
                f"ε ≤ {certificate.total_epsilon.hi:g}, "
                f"δ ≤ {certificate.total_delta.hi:.3g}, "
                f"digest sha256:{certificate.digest()[:16]}…"
            )
        else:
            failures += 1
            print(f"{name:12s} FAILED:")
            for line in report.format().splitlines():
                print(f"  {line}")
    total = len(targets)
    print(f"\n{total - failures}/{total} plan(s) analyze clean")
    if failures:
        return 1
    print(
        "(covers the 10 catalog queries at paper scale and the query "
        "every chaos scenario replays)"
    )
    return 0


def cmd_lint(args) -> int:
    import pathlib

    from .verify import lint_paths

    paths = args.paths or [str(pathlib.Path(__file__).resolve().parent)]
    report = lint_paths(paths)
    print(report.format())
    # Warnings are findings too: a lint that only fails on errors rots
    # into an advisory nobody reads. Any finding fails the build.
    return 0 if not report.violations else 1


_CHAOS_QUERY = "aggr = sum(db); output(em(aggr));"


def _chaos_manifest(args, plan) -> dict:
    return {
        "recipe": "chaos",
        "query_name": "chaos",
        "source": _CHAOS_QUERY,
        "devices": args.devices,
        "categories": args.categories,
        "epsilon": args.epsilon,
        "sensitivity": 1.0,
        "committee_size": args.committee_size,
        "key_prime_bits": 96,
        "seed": args.seed,
        "fault_seed": args.seed,
        "scenario": plan.as_dict(),
        "shard_size": args.shard_size,
        "tree_fanout": args.tree_fanout,
    }


def _chaos_execute(args, plan, journal_path=None):
    """One chaos run; coordinator-crash plans go through crash→resume.

    Returns ``(outcome, resumes)``. A plan that kills the coordinator is
    executed under a journal (at ``journal_path`` or a temporary file)
    and driven to completion across incarnations.
    """
    import os
    import tempfile

    from .runtime.journal import run_to_completion

    manifest = _chaos_manifest(args, plan)
    if not plan.crashes_coordinator and journal_path is None:
        return _executor_from_manifest(manifest).run(), 0
    if journal_path is not None:
        return run_to_completion(
            lambda j: _executor_from_manifest(manifest, j), journal_path, manifest
        )
    with tempfile.TemporaryDirectory() as tmp:
        return run_to_completion(
            lambda j: _executor_from_manifest(manifest, j),
            os.path.join(tmp, f"{plan.name}.journal"),
            manifest,
        )


def _chaos_crash_sweep(args) -> int:
    """Kill the coordinator at every checkpoint; verify resumes converge.

    An uninterrupted baseline run (under a journal) enumerates the
    checkpoints. Then, for each checkpoint, a fresh run is killed exactly
    there and resumed; the resumed run must yield the same QueryResult
    and the same per-checkpoint payload digests as the baseline.
    """
    import os
    import tempfile

    from .faults import COORDINATOR_CRASH, FaultEvent, FaultPlan, get_scenario
    from .runtime.journal import ExecutionJournal, run_to_completion

    with tempfile.TemporaryDirectory() as tmp:
        base_path = os.path.join(tmp, "baseline.journal")
        baseline, _ = _chaos_execute(args, get_scenario("none"), base_path)
        base_digests = ExecutionJournal.load(base_path).checkpoint_digests()
        payloads = ExecutionJournal.load(base_path).checkpoint_payloads()
        print(
            f"baseline: value {baseline.value!r}, "
            f"{len(payloads)} checkpoint(s) journaled"
        )
        failures = 0
        for payload in payloads:
            seq, label = payload["seq"], payload["label"]
            plan = FaultPlan(
                f"crash-at-{seq}",
                f"coordinator dies at checkpoint {seq} ({label})",
                events=(
                    FaultEvent(COORDINATOR_CRASH, payload["phase"], target=seq),
                ),
            )
            manifest = _chaos_manifest(args, plan)
            path = os.path.join(tmp, f"crash-at-{seq}.journal")
            outcome, resumes = run_to_completion(
                lambda j: _executor_from_manifest(manifest, j), path, manifest
            )
            digests = ExecutionJournal.load(path).checkpoint_digests()
            same_result = outcome == baseline
            same_digests = digests == base_digests
            if same_result and same_digests:
                print(
                    f"  crash at checkpoint {seq:2d} ({label}): ok — "
                    f"{resumes} resume(s), digests identical"
                )
            else:
                failures += 1
                print(
                    f"  crash at checkpoint {seq:2d} ({label}): FAILED — "
                    f"result identical: {same_result}, "
                    f"digests identical: {same_digests}"
                )
    total = len(payloads)
    print(f"{total - failures}/{total} checkpoint crash(es) resume bit-identically")
    return 1 if failures else 0


def cmd_chaos(args) -> int:
    from .faults import (
        COORDINATOR_CRASH,
        UnrecoverableFault,
        get_scenario,
        list_scenarios,
    )

    if args.list:
        print(f"{'scenario':24s} {'events':>6s}  description")
        for plan in list_scenarios():
            print(f"{plan.name:24s} {len(plan.events):>6d}  {plan.description}")
        return 0
    if args.crash_sweep:
        return _chaos_crash_sweep(args)

    if args.scenario == "all":
        names = [plan.name for plan in list_scenarios()]
    else:
        try:
            names = [get_scenario(args.scenario).name]
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
    quiet = args.json
    baseline, _ = _chaos_execute(args, get_scenario("none"))
    if not quiet:
        print(f"fault-free baseline value: {baseline.value!r}")
    failures = 0
    reports = []
    for name in names:
        plan = get_scenario(name)
        if not quiet:
            print(f"\n== {name}: {plan.description}")
        report = {
            "scenario": name,
            "description": plan.description,
            "resumes": 0,
            "value": None,
            "fault_log": None,
        }
        reports.append(report)
        try:
            outcome, resumes = _chaos_execute(args, plan)
        except UnrecoverableFault as exc:
            report["fault_log"] = exc.log.as_dict()
            if not quiet:
                print(exc.log.format())
            if plan.expect_unrecoverable:
                verdict = f"ok — aborted as expected ({exc.reason})"
            else:
                verdict = f"FAILED — unexpected abort: {exc.reason}"
                failures += 1
            report["verdict"] = verdict
            if not quiet:
                print(f"verdict: {verdict}")
            continue
        report["resumes"] = resumes
        report["value"] = outcome.value
        report["fault_log"] = outcome.fault_log.as_dict()
        if not quiet:
            print(outcome.fault_log.format())
        resumed = f", {resumes} coordinator resume(s)" if resumes else ""
        if plan.expect_unrecoverable:
            verdict = "FAILED — run completed but was expected to abort"
            failures += 1
        elif plan.mutates_inputs:
            verdict = (
                f"ok — value {outcome.value!r} (inputs mutated; "
                "baseline comparison not applicable)"
            )
        elif outcome.value != baseline.value:
            verdict = (
                f"FAILED — value {outcome.value!r} differs from "
                f"fault-free {baseline.value!r}"
            )
            failures += 1
        elif (
            plan.crashes_coordinator
            and all(e.kind == COORDINATOR_CRASH for e in plan.events)
            and outcome != baseline
        ):
            # A pure coordinator-crash schedule injects no member faults,
            # so the resumed QueryResult must equal the baseline entirely
            # (fault log included), not just in its released value.
            verdict = "FAILED — resumed QueryResult differs from baseline"
            failures += 1
        elif not outcome.fault_log.all_recovered:
            verdict = "FAILED — fault record(s) left unresolved"
            failures += 1
        else:
            verdict = (
                f"ok — bit-identical value {outcome.value!r}, "
                f"{outcome.fault_log.recovered} fault(s) recovered/tolerated"
                f"{resumed}"
            )
        report["verdict"] = verdict
        if not quiet:
            print(f"verdict: {verdict}")
    if args.json:
        import json

        print(
            json.dumps(
                {
                    "baseline_value": baseline.value,
                    "scenarios": reports,
                    "failures": failures,
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print(f"\n{len(names) - failures}/{len(names)} scenario(s) ok")
    return 1 if failures else 0


# ------------------------------------------------------------ service verbs


def _load_workload(path: str) -> dict:
    import json

    if path == "-":
        return json.load(sys.stdin)
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        print(f"cannot read workload {path!r}: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _query_source(query: str) -> str:
    """A workload query is a catalog name or inline source text."""
    spec = BY_NAME.get(query)
    return spec.source if spec is not None else query


def _service_from_workload(workload: dict, args):
    import random as random_module

    from .runtime.network import FederatedNetwork
    from .service import QueryService, ServiceConfig, TenantPolicy
    from .session import AnalyticsSession

    devices = args.devices or workload.get("devices", 24)
    seed = args.seed if args.seed is not None else workload.get("seed", 7)
    categories = workload.get("categories", 8)
    network = FederatedNetwork(devices, rng=random_module.Random(seed))
    network.load_categorical_data(
        categories, distribution=workload.get("distribution")
    )
    session = AnalyticsSession(
        network,
        epsilon_budget=workload.get("epsilon_budget", 10.0),
        delta_budget=workload.get("delta_budget", 1e-6),
        rng=random_module.Random(seed + 1),
    )
    tenants = [
        TenantPolicy(
            entry["name"],
            entry["epsilon_budget"],
            entry.get("delta_budget", workload.get("delta_budget", 1e-6)),
            entry.get("weight", 1.0),
        )
        for entry in workload.get("tenants", [])
    ]
    if not tenants:
        print("workload declares no tenants", file=sys.stderr)
        raise SystemExit(2)
    return QueryService(session, tenants, ServiceConfig()), categories


def _replay_workload(service, workload: dict, categories: int):
    """Submit every workload query (rejections tallied), then drain."""
    from .runtime.executor import QueryRejected

    rejections = []
    requests = []
    for entry in workload.get("queries", []):
        requests.append(
            dict(
                tenant=entry["tenant"],
                source=_query_source(entry["query"]),
                categories=entry.get("categories", categories),
                epsilon=entry.get("epsilon"),
                utility=entry.get("utility"),
                deadline=entry.get("deadline"),
            )
        )
    outcomes = service.submit_many(requests)
    for index, outcome in enumerate(outcomes):
        if isinstance(outcome, QueryRejected):
            rejections.append((requests[index]["tenant"], str(outcome)))
    service.drain()
    return rejections


def _print_tenant_table(rows) -> None:
    print(
        f"{'tenant':12s} {'ε budget':>9s} {'ε spent':>9s} {'ε left':>9s} "
        f"{'sub':>4s} {'run':>4s} {'rej':>4s}"
    )
    for row in rows:
        print(
            f"{row['tenant']:12s} {row['epsilon_budget']:>9.3g} "
            f"{row['spent_epsilon']:>9.3g} {row['remaining_epsilon']:>9.3g} "
            f"{row['submitted']:>4d} {row['executed']:>4d} {row['rejected']:>4d}"
        )


def _service_report(service, rejections) -> dict:
    from .crypto.backend import active_backend_name

    return {
        "crypto_backend": active_backend_name(),
        "records": [record.as_dict() for record in service.records],
        "statistics": service.statistics.as_dict(),
        "tenants": service.tenant_report(),
        "budget": service.budget_report().as_dict(),
        "admission_rejections": [
            {"tenant": tenant, "error": error} for tenant, error in rejections
        ],
    }


def cmd_serve(args) -> int:
    import json

    workload = _load_workload(args.workload)
    service, categories = _service_from_workload(workload, args)
    rejections = _replay_workload(service, workload, categories)
    if args.json:
        print(json.dumps(_service_report(service, rejections), indent=2))
        return 0
    print(
        f"{'seq':>4s} {'tenant':12s} {'outcome':9s} {'cache':5s} "
        f"{'ε':>6s} {'plan ms':>8s} {'exec ms':>8s}  value"
    )
    for r in service.records:
        print(
            f"{r.seq:>4d} {r.tenant:12s} {r.outcome:9s} "
            f"{'hit' if r.cache_hit else 'miss':5s} {r.epsilon_charged:>6.2f} "
            f"{r.plan_seconds * 1000:>8.2f} {r.execute_seconds * 1000:>8.2f}  "
            f"{r.value if r.outcome == 'executed' else (r.error or '')}"
        )
    for tenant, error in rejections:
        print(f"   - {tenant:12s} rejected at admission: {error}")
    stats = service.statistics
    print(
        f"\nservice: {stats.submitted} submitted, {stats.admitted} admitted, "
        f"{stats.executed} executed, "
        f"{stats.rejected_budget} budget-rejected, "
        f"{stats.rejected_policy} policy-rejected, "
        f"{stats.expired_deadlines} expired"
    )
    print(
        f"plan cache: {stats.cache_hits} hit(s), {stats.cache_misses} miss(es), "
        f"{stats.cache_stale_evictions} stale eviction(s); "
        f"{stats.planner_invocations} planner search(es)"
    )
    from .crypto.backend import active_backend_name, selection_reason

    print(f"ε charged: {stats.epsilon_charged:g}")
    print(f"crypto backend: {active_backend_name()} ({selection_reason()})\n")
    _print_tenant_table(service.tenant_report())
    return 0


def cmd_submit(args) -> int:
    import json

    from .runtime.executor import QueryRejected

    workload = {
        "devices": args.devices or 24,
        "seed": args.seed if args.seed is not None else 7,
        "epsilon_budget": args.epsilon_budget,
        "delta_budget": 1e-6,
        "tenants": [
            {
                "name": args.tenant,
                "epsilon_budget": args.tenant_budget or args.epsilon_budget,
            }
        ],
    }
    service, categories = _service_from_workload(workload, args)
    source = _read_query(args)
    try:
        ticket = service.submit(
            args.tenant,
            source,
            categories=args.categories or categories,
            epsilon=args.epsilon,
            utility=args.utility,
            deadline=args.deadline,
        )
    except QueryRejected as exc:
        print(f"rejected at admission ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 1
    score = ticket.score
    print(
        f"admitted {ticket.submission.name!r}: priority {score.priority:.3f} "
        f"(utility {score.utility:.2f}, frugality {score.frugality:.2f}, "
        f"headroom {score.headroom:.2f})"
    )
    service.drain()
    record = ticket.record(timeout=0)
    print(
        f"outcome: {record.outcome} "
        f"({'cache hit' if record.cache_hit else 'planned'}, "
        f"plan {record.plan_seconds * 1000:.1f} ms, "
        f"execute {record.execute_seconds * 1000:.1f} ms)"
    )
    if record.outcome == "executed":
        print(f"value: {record.value!r}")
        print(f"ε charged: {record.epsilon_charged:g}")
    elif record.error:
        print(f"error: {record.error}", file=sys.stderr)
    if args.json:
        print(json.dumps(service.budget_report().as_dict(), indent=2))
    else:
        report = service.budget_report()
        print(
            f"budget: ε {report.spent_epsilon:g} spent / "
            f"{report.remaining_epsilon:g} remaining"
        )
    return 0 if record.outcome == "executed" else 1


def cmd_tenants(args) -> int:
    import json

    workload = _load_workload(args.workload)
    service, categories = _service_from_workload(workload, args)
    rejections = _replay_workload(service, workload, categories)
    if args.json:
        print(
            json.dumps(
                {
                    "tenants": service.tenant_report(),
                    "budget": service.budget_report().as_dict(),
                },
                indent=2,
            )
        )
        return 0
    _print_tenant_table(service.tenant_report())
    report = service.budget_report()
    print(
        f"\nglobal: ε {report.spent_epsilon:g} spent of "
        f"{report.epsilon_budget:g} "
        f"({len(rejections)} admission rejection(s))"
    )
    return 0


def cmd_backends(args) -> int:
    import json

    from .crypto import backend as crypto_backend

    rows = crypto_backend.describe_backends()
    if args.json:
        print(json.dumps({"backends": rows, "env_var": crypto_backend.BACKEND_ENV_VAR}, indent=2))
        return 0
    print(f"{'backend':8s} {'available':9s} {'active':6s}  detail")
    for row in rows:
        print(
            f"{row['backend']:8s} {'yes' if row['available'] else 'no':9s} "
            f"{'*' if row['selected'] else '':6s}  {row['detail']}"
        )
        if row["selected"]:
            print(f"{'':26s} selected: {row['selection_reason']}")
        elif row["unavailable_reason"]:
            print(f"{'':26s} unavailable: {row['unavailable_reason']}")
    print(
        f"\noverride with {crypto_backend.BACKEND_ENV_VAR}="
        f"{{pure,accel}} (accel runs powmod and powmod_vector under gmpy2, "
        "bit-identical to the pure oracle; see tests/test_backend_equivalence.py)"
    )
    return 0


def cmd_queries(_args) -> int:
    print(f"{'name':12s} {'action':28s} {'from':8s} {'lines':>5s}")
    for spec in ALL_QUERIES:
        print(f"{spec.name:12s} {spec.action:28s} {spec.source_paper:8s} {spec.lines:>5d}")
    return 0


def cmd_eval(args) -> int:
    from .eval import experiments, hetero, power

    if args.export:
        from .eval.export import export_all

        for path in export_all(args.export):
            print(f"wrote {path}")
        return 0

    from .eval import report as report_module

    targets = {
        "report": lambda: report_module.main("REPORT.md"),
        "table1": experiments.print_table1,
        "table2": experiments.print_table2,
        "fig6": experiments.print_fig6,
        "fig7": experiments.print_fig7,
        "fig8": experiments.print_fig8,
        "fig9": experiments.print_fig9,
        "fig10": experiments.print_fig10,
        "fig11": power.print_fig11,
        "hetero": hetero.print_hetero,
        "chaos": experiments.print_chaos,
    }
    if args.artifact == "all":
        for name, fn in targets.items():
            fn()
            print()
        return 0
    if args.artifact not in targets:
        print(f"unknown artifact {args.artifact!r}; known: "
              f"{', '.join([*targets, 'all'])}", file=sys.stderr)
        return 1
    targets[args.artifact]()
    return 0


def _add_planning_arguments(verb: argparse.ArgumentParser) -> None:
    """The query, environment, goal and limits of ``plan``, ``verify-plan``
    and ``certificate`` (read by ``_read_query``/``_environment``/``_constraints``)."""
    verb.add_argument("query_file", help="query file, built-in query name, or '-' for stdin")
    verb.add_argument("--participants", type=int, default=10**9)
    verb.add_argument("--categories", type=int, default=2**15)
    verb.add_argument("--epsilon", type=float, default=0.1)
    verb.add_argument("--sensitivity", type=float, default=1.0)
    verb.add_argument(
        "--goal", default="participant_expected_seconds", choices=CostVector.METRICS
    )
    verb.add_argument("--max-aggregator-core-hours", type=float, default=None)
    verb.add_argument("--max-participant-minutes", type=float, default=None)
    verb.add_argument("--max-participant-gb", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Arboretum: plan and run federated analytics queries with DP",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    plan = sub.add_parser("plan", help="certify and plan a query")
    _add_planning_arguments(plan)
    plan.add_argument("--json", action="store_true", help="emit the plan as JSON")
    plan.add_argument(
        "--explain", action="store_true",
        help="print a per-vignette cost table for the chosen plan",
    )
    plan.add_argument(
        "--stats", action="store_true",
        help="print search-effort, cache, and ordering counters",
    )
    plan.set_defaults(func=cmd_plan)

    run = sub.add_parser("run", help="plan and execute on a simulated deployment")
    run.add_argument("query_file")
    run.add_argument("--devices", type=int, default=48)
    run.add_argument("--categories", type=int, default=8)
    run.add_argument("--epsilon", type=float, default=4.0)
    run.add_argument("--sensitivity", type=float, default=1.0)
    run.add_argument("--committee-size", type=int, default=4)
    run.add_argument("--malicious", type=float, default=0.0)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--shard-size", type=int, default=1024,
        help="devices per intake shard (a smaller population is one shard)",
    )
    run.add_argument(
        "--tree-fanout", type=int, default=16,
        help="children per internal aggregation-tree node",
    )
    run.add_argument(
        "--stats",
        action="store_true",
        help="print runtime intake counters (uploads/sec, wall times)",
    )
    run.add_argument(
        "--journal", metavar="PATH", default=None,
        help="record a durable execution journal at PATH (digest-chained "
        "write-ahead log; 'repro resume PATH' replays it after a crash)",
    )
    run.set_defaults(func=cmd_run)

    resume = sub.add_parser(
        "resume",
        help="resume a crashed run from its execution journal",
    )
    resume.add_argument(
        "journal", help="journal file written by 'repro run --journal'"
    )
    resume.set_defaults(func=cmd_resume)

    queries = sub.add_parser("queries", help="list the built-in queries")
    queries.set_defaults(func=cmd_queries)

    verify = sub.add_parser(
        "verify-plan", help="plan a query and statically verify the result"
    )
    _add_planning_arguments(verify)
    verify.add_argument(
        "--dataflow", action="store_true",
        help="also run the privacy dataflow analyzer (taint, sensitivity "
        "intervals, budget intervals) and print the derived certificate",
    )
    verify.set_defaults(func=cmd_verify_plan)

    certificate = sub.add_parser(
        "certificate",
        help="plan a query and print its machine-checkable privacy "
        "certificate as JSON",
    )
    _add_planning_arguments(certificate)
    certificate.set_defaults(func=cmd_certificate)

    sweep = sub.add_parser(
        "verify-sweep",
        help="dataflow-analyze every catalog query plus the chaos query",
    )
    sweep.set_defaults(func=cmd_verify_sweep)

    lint = sub.add_parser(
        "lint", help="run the privacy-invariant source lint"
    )
    lint.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (default: the repro package)",
    )
    lint.set_defaults(func=cmd_lint)

    chaos = sub.add_parser(
        "chaos", help="run fault-injection scenarios against the runtime"
    )
    chaos.add_argument(
        "--list", action="store_true", help="enumerate the named scenarios"
    )
    chaos.add_argument(
        "--scenario", default="all", help="scenario name, or 'all' (default)"
    )
    chaos.add_argument("--devices", type=int, default=32)
    chaos.add_argument("--categories", type=int, default=8)
    chaos.add_argument("--epsilon", type=float, default=4.0)
    chaos.add_argument("--committee-size", type=int, default=4)
    chaos.add_argument("--seed", type=int, default=7)
    chaos.add_argument(
        "--shard-size", type=int, default=8,
        help="devices per shard (small default so the smoke deployment "
        "spans several shards and tree levels)",
    )
    chaos.add_argument(
        "--tree-fanout", type=int, default=2,
        help="children per internal aggregation-tree node",
    )
    chaos.add_argument(
        "--json", action="store_true",
        help="emit the verdicts and canonical fault logs as JSON",
    )
    chaos.add_argument(
        "--crash-sweep", action="store_true",
        help="kill the coordinator at every checkpoint in turn and verify "
        "each resumed run is digest-identical to the uninterrupted one",
    )
    chaos.set_defaults(func=cmd_chaos)

    serve = sub.add_parser(
        "serve",
        help="run the multi-tenant query service over a workload file",
    )
    serve.add_argument(
        "workload",
        help="workload JSON (tenants + queries; see docs/ARCHITECTURE.md "
        "§16) or '-' for stdin",
    )
    serve.add_argument(
        "--devices", type=int, default=None,
        help="override the workload's simulated device count",
    )
    serve.add_argument(
        "--seed", type=int, default=None,
        help="override the workload's deployment seed (replay is "
        "deterministic per seed)",
    )
    serve.add_argument(
        "--json", action="store_true",
        help="emit the dispatch ledger, counters, and per-tenant "
        "accounting as JSON",
    )
    serve.set_defaults(func=cmd_serve)

    submit = sub.add_parser(
        "submit",
        help="submit one query to a fresh single-tenant service",
    )
    submit.add_argument(
        "query_file", help="query file, built-in query name, or '-' for stdin"
    )
    submit.add_argument("--tenant", default="analyst")
    submit.add_argument("--devices", type=int, default=24)
    submit.add_argument("--categories", type=int, default=8)
    submit.add_argument("--seed", type=int, default=7)
    submit.add_argument(
        "--epsilon", type=float, default=None,
        help="requested ε for this query (default: the session's "
        "per-query ε)",
    )
    submit.add_argument("--epsilon-budget", type=float, default=10.0)
    submit.add_argument(
        "--tenant-budget", type=float, default=None,
        help="tenant envelope ε (default: the global budget)",
    )
    submit.add_argument(
        "--utility", type=float, default=None,
        help="analyst utility hint in [0, 1]",
    )
    submit.add_argument(
        "--deadline", type=int, default=None,
        help="logical-clock deadline tick",
    )
    submit.add_argument(
        "--json", action="store_true",
        help="also print the budget report as JSON",
    )
    submit.set_defaults(func=cmd_submit)

    tenants = sub.add_parser(
        "tenants",
        help="replay a workload and print per-tenant budget accounting",
    )
    tenants.add_argument("workload", help="workload JSON or '-' for stdin")
    tenants.add_argument("--devices", type=int, default=None)
    tenants.add_argument("--seed", type=int, default=None)
    tenants.add_argument("--json", action="store_true")
    tenants.set_defaults(func=cmd_tenants)

    backends = sub.add_parser(
        "backends",
        help="list crypto kernel backends, availability, and selection",
    )
    backends.add_argument(
        "--json", action="store_true",
        help="emit the availability/selection table as JSON",
    )
    backends.set_defaults(func=cmd_backends)

    evaluate = sub.add_parser("eval", help="regenerate an evaluation artifact")
    evaluate.add_argument(
        "artifact", nargs="?", default="all",
        help="table1|table2|fig6..fig11|hetero|chaos|report|all",
    )
    evaluate.add_argument(
        "--export", metavar="DIR", default=None,
        help="write every artifact as CSV into DIR instead of printing",
    )
    evaluate.set_defaults(func=cmd_eval)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    from .crypto.backend import get_backend

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        get_backend()  # a mis-set REPRO_CRYPTO_BACKEND fails here, once, for every verb
    except ValueError as exc:
        parser.error(str(exc))
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
