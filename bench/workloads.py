"""The five workloads: seeded input generators and the fixed pass each one times.

A workload is built from ``--seed`` alone (``random.Random`` seeded with a
string, so the same seed gives the same inputs on every machine) and the
program only ever receives the generated inputs. ``run_pass`` performs the
workload's fixed list of operations once and returns one :class:`Op` per
operation; ``warm_up`` is the reduced pass that set-up runs before timing.
Nothing here measures a layer — ``run.py`` times the pass, ``trace.py``
wraps the layers from outside, ``checks.py`` judges the outputs.

Every workload runs single-process and single-threaded
(``shard_workers=0``, one dispatcher, no pools): this box has two cores and
a second worker would only add scheduling noise to the numbers.
"""

from __future__ import annotations

import os
import random
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro import verify as plan_verify
from repro.analysis.ranges import Interval
from repro.analysis.types import QueryEnvironment, ValueType
from repro.eval.experiments import PAPER_CONSTRAINTS
from repro.faults import COORDINATOR_CRASH, FaultEvent, FaultInjector, FaultPlan
from repro.planner.costmodel import CostModel
from repro.planner.search import plan_query
from repro.privacy.accountant import PrivacyAccountant
from repro.queries.catalog import ALL_QUERIES, QuerySpec
from repro.runtime.executor import QueryExecutor
from repro.runtime.journal import ExecutionJournal, run_to_completion
from repro.runtime.network import FederatedNetwork
from repro.service import QueryService, TenantPolicy
from repro.session import AnalyticsSession

TOP1 = "aggr = sum(db); r = em(aggr); output(r);"


@dataclass
class Op:
    """One operation of a pass: what ran, how long, what came out.

    ``error`` is set when the operation raised; ``checks.py`` judges the
    output of the ones that did not.
    """

    name: str
    started: float  # time.perf_counter() readings
    ended: float
    output: object = None
    error: Optional[str] = None


def _timed(name: str, fn: Callable[[], object]) -> Op:
    """Run one operation; a raise is a failed operation, not a crash."""
    started = time.perf_counter()
    try:
        output = fn()
    except Exception as exc:  # the benchmark must finish and count it
        return Op(name, started, time.perf_counter(), None, f"{type(exc).__name__}: {exc}")
    return Op(name, started, time.perf_counter(), output)


class Workload:
    """Base: a name, the reason it exists, and its seeded generator."""

    name = ""
    why = ""
    #: Sizes for the measured run and for ``--smoke``.
    sizes: Dict[str, Dict[str, object]] = {}
    #: Passes a measured run makes however slow the machine: enough that the
    #: latency tail is always read at the same percentile (``metrics.TAIL_GRID``).
    min_passes = 1

    def __init__(self, seed: int, smoke: bool = False, scratch: str = "."):
        self.seed = seed
        self.size = dict(self.sizes["smoke" if smoke else "full"])
        self.scratch = scratch
        self.rng = random.Random(f"bench/{self.name}/{seed}")
        self.generate()

    def generate(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> List[Op]:
        return self.run_pass()

    def run_pass(self) -> List[Op]:
        raise NotImplementedError

    def latencies(self, ops: List[Op]) -> List[Tuple[float, float]]:
        """(start, end) readings of each user-visible operation of a pass."""
        return [(op.started, op.ended) for op in ops]


# ---------------------------------------------------------------- plan_catalog


class PlanCatalog(Workload):
    name = "plan_catalog"
    why = (
        "the planner is the paper's contribution and the only layer working "
        "here, so an intake or MPC change must show no movement"
    )
    min_passes = 7  # 30 plans a pass: 210 samples carry a p95
    sizes = {
        "full": {"participants": (10**5, 10**7, 10**9), "warm": (10**9,)},
        "smoke": {"participants": (10**7,), "warm": ()},
    }

    def generate(self) -> None:
        self.jobs = [(spec, n) for n in self.size["participants"] for spec in ALL_QUERIES]
        # The seed only orders the jobs: which plans exist is the catalog's
        # business, and equal work per seed keeps pass_s comparable.
        self.rng.shuffle(self.jobs)

    def _plan(self, spec: QuerySpec, participants: int):
        planning = plan_query(
            spec.source,
            spec.environment(participants),
            name=spec.name,
            constraints=PAPER_CONSTRAINTS,
            model=CostModel(),
        )
        # Through the module attribute, where the traced run wraps it.
        return planning, plan_verify.verify_planning_result(planning)

    def _ops(self, participants) -> List[Op]:
        return [
            _timed(f"{spec.name}@{n}", lambda s=spec, n=n: self._plan(s, n))
            for spec, n in self.jobs
            if n in participants
        ]

    def warm_up(self) -> List[Op]:
        return self._ops(self.size["warm"])

    def run_pass(self) -> List[Op]:
        return self._ops(self.size["participants"])


# ------------------------------------------------------------------ intake_65k


@dataclass
class Execution:
    """What the checks need from one executed query."""

    planning: object
    network: FederatedNetwork
    accountant: PrivacyAccountant
    result: object


def _top1_environment(devices: int, categories: int, epsilon: float) -> QueryEnvironment:
    return QueryEnvironment(
        num_participants=devices,
        row_width=categories,
        db_element=ValueType("int", Interval(0.0, 1.0)),
        epsilon=epsilon,
        sensitivity=1.0,
        row_encoding="one_hot",
    )


class Intake65k(Workload):
    name = "intake_65k"
    why = (
        "population, sortition and per-device intake are ~95% of the pass and "
        "the MPC program ~4%; the size the ROADMAP profile was taken at"
    )
    sizes = {
        "full": {"devices": 65536, "warm_devices": 4096, "shard_size": 4096},
        "smoke": {"devices": 1024, "warm_devices": 256, "shard_size": 256},
    }
    categories = 8
    malicious_fraction = 0.01

    def generate(self) -> None:
        self.network_seed = self.rng.getrandbits(63)
        self.executor_seed = self.rng.getrandbits(63)

    def _query(self, devices: int) -> Execution:
        network = FederatedNetwork(
            devices,
            rng=random.Random(self.network_seed),
            malicious_fraction=self.malicious_fraction,
        )
        network.load_categorical_data(self.categories)
        planning = plan_query(
            TOP1, _top1_environment(devices, self.categories, 4.0), name="top1"
        )
        accountant = PrivacyAccountant(100.0, 1e-6)
        executor = QueryExecutor(
            network,
            planning,
            committee_size=4,
            key_prime_bits=128,
            rng=random.Random(self.executor_seed),
            accountant=accountant,
            data_plane="sharded",
            shard_size=self.size["shard_size"],
            shard_workers=0,
            tree_fanout=16,
        )
        return Execution(planning, network, accountant, executor.run())

    def warm_up(self) -> List[Op]:
        return [_timed("top1", lambda: self._query(self.size["warm_devices"]))]

    def run_pass(self) -> List[Op]:
        return [_timed("top1", lambda: self._query(self.size["devices"]))]


# ----------------------------------------------------------------- program_mix


def _program_environment(spec: QuerySpec, devices: int):
    """Categories and ε per query, as ``tests/test_faults.py`` runs them."""
    categories = {"hypotest": 1, "cms": 1, "k-medians": 20}.get(spec.name, 8)
    epsilon = {"bayes": 16.0, "k-medians": 40.0}.get(spec.name, 8.0)
    return spec.environment(devices, categories=categories, epsilon=epsilon)


def _load_program_data(spec: QuerySpec, network: FederatedNetwork, rng: random.Random) -> None:
    if spec.name == "cms":
        network.load_numeric_data(0, 1, width=1)
    elif spec.name == "bayes":
        network.load_numeric_data(0, 1, width=8)
    elif spec.name == "k-medians":
        for device in network.devices:
            center = rng.randrange(10)
            row = [0] * 20
            row[center] = 1
            row[10 + center] = 1
            device.value = row
    elif spec.name == "hypotest":
        network.load_categorical_data(1)
    else:
        network.load_categorical_data(8, distribution=[20, 4, 1, 1, 1, 1, 1, 1])


class ProgramMix(Workload):
    name = "program_mix"
    why = (
        "the MPC program is ~80% of the pass and intake ~3%; comparison "
        "tournaments (EM) run beside add-noise-and-open (Laplace), so a gain "
        "for one that costs the other shows"
    )
    min_passes = 4  # ten queries a pass: 40 samples carry a p75
    sizes = {"full": {"devices": 256}, "smoke": {"devices": 32}}
    #: One tournament, one vector of Laplace releases, one ratio query.
    warm_queries = ("top1", "bayes", "k-medians")

    def generate(self) -> None:
        self.seeds = {
            spec.name: (self.rng.getrandbits(63), self.rng.getrandbits(63), self.rng.getrandbits(63))
            for spec in ALL_QUERIES
        }

    def _query(self, spec: QuerySpec) -> Execution:
        devices = self.size["devices"]
        network_seed, data_seed, executor_seed = self.seeds[spec.name]
        planning = plan_query(
            spec.source, _program_environment(spec, devices), name=spec.name
        )
        network = FederatedNetwork(devices, rng=random.Random(network_seed))
        _load_program_data(spec, network, random.Random(data_seed))
        accountant = PrivacyAccountant(100.0, 1e-6)
        executor = QueryExecutor(
            network,
            planning,
            committee_size=4,
            key_prime_bits=128,
            rng=random.Random(executor_seed),
            accountant=accountant,
            data_plane="sharded",
            shard_size=256,
            shard_workers=0,
            tree_fanout=16,
        )
        return Execution(planning, network, accountant, executor.run())

    def warm_up(self) -> List[Op]:
        return [
            _timed(spec.name, lambda s=spec: self._query(s))
            for spec in ALL_QUERIES
            if spec.name in self.warm_queries
        ]

    def run_pass(self) -> List[Op]:
        return [_timed(spec.name, lambda s=spec: self._query(s)) for spec in ALL_QUERIES]


# ----------------------------------------------------------------- durable_16k


@dataclass
class DurableRun:
    """One journaled run driven to completion, crashed or not."""

    result: object
    resumes: int
    planning: object
    accountant: PrivacyAccountant
    journal_path: str


class Durable16k(Workload):
    name = "durable_16k"
    why = (
        "journaled writes and replay-on-resume beside plain execution: an "
        "intake change that shifts an RNG schedule, fattens a checkpoint or "
        "breaks bit-identical resume is caught here and nowhere else"
    )
    sizes = {
        "full": {"devices": 16384, "warm_devices": 2048, "shard_size": 512},
        "smoke": {"devices": 512, "warm_devices": 512, "shard_size": 64},
    }
    categories = 8

    def generate(self) -> None:
        self.network_seed = self.rng.getrandbits(63)
        self.executor_seed = self.rng.getrandbits(63)
        self.fault_seed = self.rng.getrandbits(63)

    def _crash_plan(self, devices: int) -> FaultPlan:
        """Die at the middle shard's checkpoint (``input/shard16`` at full size)
        and again at the first checkpoint of the program phase."""
        middle = devices // self.size["shard_size"] // 2
        return FaultPlan(
            "crash-input-then-program",
            "the coordinator dies mid-intake and again entering the program",
            events=(
                FaultEvent(COORDINATOR_CRASH, "input", target=f"input/shard{middle}"),
                FaultEvent(COORDINATOR_CRASH, "program"),  # no target: its first checkpoint
            ),
        )

    def _run(self, label: str, plan: FaultPlan, devices: int) -> DurableRun:
        """A journaled run; every incarnation rebuilds the deployment."""
        path = os.path.join(self.scratch, f"{label}.journal")
        last: Dict[str, object] = {}

        def make_executor(journal: ExecutionJournal) -> QueryExecutor:
            network = FederatedNetwork(devices, rng=random.Random(self.network_seed))
            network.load_categorical_data(self.categories)
            planning = plan_query(
                TOP1, _top1_environment(devices, self.categories, 4.0), name="top1"
            )
            accountant = PrivacyAccountant(100.0, 1e-6)
            last.update(planning=planning, accountant=accountant)
            return QueryExecutor(
                network,
                planning,
                committee_size=4,
                key_prime_bits=128,
                rng=random.Random(self.executor_seed),
                accountant=accountant,
                faults=FaultInjector(plan, seed=self.fault_seed),
                data_plane="sharded",
                journal=journal,
                shard_size=self.size["shard_size"],
                shard_workers=0,
                tree_fanout=16,
            )

        result, resumes = run_to_completion(make_executor, path, {"bench": label})
        return DurableRun(result, resumes, last["planning"], last["accountant"], path)

    def _pass(self, devices: int) -> List[Op]:
        return [
            _timed("journaled", lambda: self._run("journaled", FaultPlan("none"), devices)),
            _timed(
                "crash-resume",
                lambda: self._run("crash-resume", self._crash_plan(devices), devices),
            ),
        ]

    def warm_up(self) -> List[Op]:
        return self._pass(self.size["warm_devices"])

    def run_pass(self) -> List[Op]:
        return self._pass(self.size["devices"])


# ----------------------------------------------------------------- service_mix

COUNT = "aggr = sum(db); output(laplace(aggr[0], sens / epsilon));"
CELL3 = "aggr = sum(db); output(laplace(aggr[3], sens / epsilon));"
TAIL = "aggr = sum(db); output(laplace(aggr[7], sens / epsilon));"
SERVICE_TOP1 = "aggr = sum(db); output(em(aggr));"

#: The four dashboard shapes that repeat (source, ε).
REPEATED_SHAPES = ((SERVICE_TOP1, 2.0), (COUNT, 1.0), (CELL3, 1.0), (TAIL, 0.5))
TENANTS = ("metrics", "growth", "research")


@dataclass
class Replay:
    """One closed-loop replay: the service and per-submission latencies."""

    service: QueryService
    submitted: int
    refused: List[str]
    #: seq -> (submit-call, dispatch start, ticket settled) clock readings
    timeline: Dict[int, Tuple[float, float, float]]


class ServiceMix(Workload):
    name = "service_mix"
    why = (
        "admission, scheduler, plan cache and queueing only exist here, and "
        "with 8 outstanding a saving in execution moves median latency by "
        "several times its own size"
    )
    min_passes = 2  # 160 submissions a pass: 320 samples carry a p95
    sizes = {
        "full": {"submissions": 160, "warm_submissions": 16},
        "smoke": {"submissions": 16, "warm_submissions": 4},
    }
    devices = 24
    categories = 8
    outstanding = 8

    def generate(self) -> None:
        self.network_seed = self.rng.getrandbits(63)
        self.session_seed = self.rng.getrandbits(63)
        self.requests = self._requests(self.size["submissions"])

    def _requests(self, count: int) -> List[Dict[str, object]]:
        """Three of four submissions repeat a shape; every fourth has its own ε.

        Each block of sixteen holds every repeated shape three times, once at
        each of three utility hints, so every seed offers the scheduler the
        same mix of cost and priority; the seed decides the order within the
        block and the tenants, never how much EM work a pass contains.
        """
        requests: List[Dict[str, object]] = []
        block: List[tuple] = []
        for index in range(count):
            if index % 4 == 3:
                # ε is the only thing that differs: a plan-cache miss.
                source = (COUNT, CELL3, TAIL, SERVICE_TOP1)[(index // 4) % 4]
                epsilon, utility = round(0.55 + 0.01 * (index // 4), 2), 0.5
            else:
                if not block:
                    block = [
                        (source, epsilon, utility)
                        for source, epsilon in REPEATED_SHAPES
                        for utility in (0.3, 0.6, 0.9)
                    ]
                    self.rng.shuffle(block)
                source, epsilon, utility = block.pop()
            requests.append(
                dict(
                    tenant=TENANTS[self.rng.randrange(len(TENANTS))],
                    source=source,
                    categories=self.categories,
                    epsilon=epsilon,
                    utility=utility,
                )
            )
        return requests

    def _replay(self, requests: List[Dict[str, object]]) -> Replay:
        network = FederatedNetwork(self.devices, rng=random.Random(self.network_seed))
        network.load_categorical_data(
            self.categories, distribution=[25, 1, 1, 1, 1, 1, 1, 1]
        )
        session = AnalyticsSession(
            network,
            epsilon_budget=4000.0,
            delta_budget=1e-6,
            rng=random.Random(self.session_seed),
        )
        service = QueryService(
            session, [TenantPolicy(name, 1000.0, 1e-6) for name in TENANTS]
        )
        replay = Replay(service, len(requests), [], {})
        submitted_at: Dict[int, float] = {}
        pending = deque(requests)
        clock = time.perf_counter
        # Closed loop, one generator: keep `outstanding` submissions queued,
        # dispatch one, top the queue up again.
        while pending or len(service.scheduler):
            while pending and len(service.scheduler) < self.outstanding:
                request = pending.popleft()
                started = clock()
                try:
                    ticket = service.submit(**request)
                except Exception as exc:  # a refusal is a failed operation
                    replay.refused.append(f"{type(exc).__name__}: {exc}")
                    continue
                submitted_at[ticket.submission.seq] = started
            dispatched = clock()
            record = service.process_next()
            settled = clock()
            if record is not None:
                replay.timeline[record.seq] = (submitted_at[record.seq], dispatched, settled)
        return replay

    def warm_up(self) -> List[Op]:
        warm = self.requests[: self.size["warm_submissions"]]
        return [_timed("replay", lambda: self._replay(warm))]

    def run_pass(self) -> List[Op]:
        return [_timed("replay", lambda: self._replay(self.requests))]

    def latencies(self, ops: List[Op]) -> List[Tuple[float, float]]:
        return [
            (submitted, settled)
            for op in ops
            if op.output is not None
            for submitted, _dispatched, settled in op.output.timeline.values()
        ]


WORKLOADS = {
    cls.name: cls for cls in (PlanCatalog, Intake65k, ProgramMix, Durable16k, ServiceMix)
}
