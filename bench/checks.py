"""Correctness of every pass: what counts as a failed operation, and the digest.

``check_pass`` judges one pass's operations. An operation fails when it
raised, was refused, or its output breaks one of the workload's checks
below; it counts once however many checks it breaks. The digest is a
SHA-256 over everything the pass released, so two passes from one seed —
in one run, or in two rounds minutes apart — must print the same one.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np

from repro.planner.serialize import planning_result_to_dict
from repro.runtime.journal import ExecutionJournal, canonical_json

from .workloads import DurableRun, Execution, Op, Replay, Workload

#: A Laplace release further than this many noise scales from the plaintext
#: aggregate is a wrong answer (chance e^-12 per honest release).
NOISE_SCALES = 12.0


@dataclass
class Verdict:
    attempted: int
    failures: List[str]
    digest: str


def _sha(*parts: str) -> str:
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(part.encode("utf-8"))
        hasher.update(b"\x00")
    return hasher.hexdigest()


# ------------------------------------------------------------------- planning


def plan_digest(planning) -> str:
    """Digest of a planning result, less the one field that is a wall-clock."""
    document = planning_result_to_dict(planning)
    document["statistics"].pop("runtime_seconds")
    return _sha(canonical_json(document))


def _check_plan(op: Op) -> List[str]:
    planning, report = op.output
    problems = []
    if not planning.succeeded:
        problems.append("no plan")
    if not report.ok:
        problems.append(f"plan does not verify: {report.errors[0].rule}")
    return problems


# ------------------------------------------------------------------ executions


def plaintext_aggregate(execution: Execution) -> np.ndarray:
    """Column sums of the honest online devices' data, from ``soa_view()``."""
    env = execution.planning.logical_plan.env
    _ids, values, online, malicious = execution.network.soa_view()
    rows = values[online & ~malicious]
    if env.row_encoding == "one_hot":
        return np.bincount(np.mod(rows, env.row_width), minlength=env.row_width)
    if rows.ndim == 1:
        rows = rows.reshape(-1, 1)
    return rows.sum(axis=0)


def _check_execution(execution: Execution) -> List[str]:
    """What must hold for any executed query, whatever it computes."""
    result, planning = execution.result, execution.planning
    _ids, _values, online, malicious = execution.network.soa_view()
    problems = []
    expected = (np.flatnonzero(online & malicious) + 1).tolist()
    if sorted(result.rejected_devices) != expected:
        problems.append(
            f"rejected {len(result.rejected_devices)} devices, "
            f"{len(expected)} malicious were online"
        )
    if result.audits_failed != 0:
        problems.append(f"{result.audits_failed} audits failed")
    if result.statistics.uploads_submitted != int(np.count_nonzero(online)):
        problems.append(
            f"{result.statistics.uploads_submitted} uploads counted, "
            f"{int(np.count_nonzero(online))} devices online"
        )
    epsilon = planning.certificate.epsilon
    if result.epsilon_charged != epsilon or execution.accountant.spent.epsilon != epsilon:
        problems.append(
            f"charged ε={result.epsilon_charged!r}/{execution.accountant.spent.epsilon!r}, "
            f"certificate ε={epsilon!r}"
        )
    return problems


def _in_range(value: object, categories: int) -> bool:
    return isinstance(value, int) and 0 <= value < categories


def _near(value: float, plaintext: float, scale: float) -> bool:
    return abs(value - plaintext) <= NOISE_SCALES * scale


def _check_em(execution: Execution) -> List[str]:
    categories = execution.planning.logical_plan.env.row_width
    outputs = execution.result.outputs
    if not all(_in_range(v, categories) for v in outputs):
        return [f"EM output {outputs!r} outside 0..{categories - 1}"]
    if len(set(outputs)) != len(outputs):
        return [f"EM winners {outputs!r} repeat"]
    return []


def _check_gap(execution: Execution) -> List[str]:
    env = execution.planning.logical_plan.env
    aggregate = plaintext_aggregate(execution)
    winner, gap = execution.result.outputs
    if not _in_range(winner, env.row_width):
        return [f"EM output {winner!r} outside 0..{env.row_width - 1}"]
    plaintext = aggregate[winner] - np.delete(aggregate, winner).max()
    if not _near(gap, plaintext, 2.0 * env.sensitivity / env.epsilon):
        return [f"gap {gap!r} too far from {plaintext}"]
    return []


def _check_hypotest(execution: Execution) -> List[str]:
    env = execution.planning.logical_plan.env
    reject, noisy = execution.result.outputs
    count = plaintext_aggregate(execution)[0]
    problems = []
    if not _near(noisy, count, env.sensitivity / env.epsilon):
        problems.append(f"noisy count {noisy!r} too far from {count}")
    if reject != (1 if noisy > len(execution.network) / 2 else 0):
        problems.append(f"reject={reject!r} contradicts noisy count {noisy!r}")
    return problems


def _check_releases(scale_of: Callable[[object], float]) -> Callable[[Execution], List[str]]:
    """Every output is Laplace noise on the aggregate cell of the same index."""

    def check(execution: Execution) -> List[str]:
        env = execution.planning.logical_plan.env
        aggregate = plaintext_aggregate(execution)
        outputs = execution.result.outputs
        if len(outputs) != len(aggregate):
            return [f"{len(outputs)} releases for {len(aggregate)} cells"]
        return [
            f"release {i} = {value!r} too far from {aggregate[i]}"
            for i, value in enumerate(outputs)
            if not _near(value, aggregate[i], scale_of(env))
        ]

    return check


def _check_kmedians(execution: Execution) -> List[str]:
    """Each centre is a noisy sum over a noisy, clipped count."""
    env = execution.planning.logical_plan.env
    aggregate = plaintext_aggregate(execution)
    k = int(env.constants["k"])
    n = len(execution.network)
    slack = NOISE_SCALES * 2.0 * k * env.sensitivity / env.epsilon
    problems = []
    for i, centre in enumerate(execution.result.outputs):
        count = min(max(int(aggregate[i]), 1), n)
        total = float(aggregate[k + i])
        denominators = [min(max(count + d, 1.0), n) for d in (-slack, slack)]
        quotients = [(total + d) / den for d in (-slack, slack) for den in denominators]
        if not min(quotients) <= centre <= max(quotients):
            problems.append(
                f"centre {i} = {centre!r} outside [{min(quotients):.3f}, {max(quotients):.3f}]"
            )
    return problems


PROGRAM_CHECKS: Dict[str, Callable[[Execution], List[str]]] = {
    "top1": _check_em,
    "topK": _check_em,
    "auction": _check_em,
    "secrecy": _check_em,
    "median": _check_em,
    "gap": _check_gap,
    "hypotest": _check_hypotest,
    "cms": _check_releases(lambda env: env.sensitivity / env.epsilon),
    "bayes": _check_releases(lambda env: env.row_width * env.sensitivity / env.epsilon),
    "k-medians": _check_kmedians,
}


def _released(result) -> str:
    return repr(
        (result.outputs, result.rejected_devices, result.committees_used, result.epsilon_charged)
    )


# --------------------------------------------------------------------- durable


def _check_durable(ops: List[Op]) -> Dict[str, List[str]]:
    """The crashed-and-resumed run must be the uncrashed run, charged once."""
    journaled, resumed = ops[0].output, ops[1].output
    problems: Dict[str, List[str]] = {op.name: [] for op in ops}
    for op, resumes in zip(ops, (0, 2)):
        run: DurableRun = op.output
        with open(run.journal_path, encoding="utf-8") as handle:
            kinds = [json.loads(line)["kind"] for line in handle]
        epsilon = run.planning.certificate.epsilon
        _spent, _remaining, history = run.accountant.snapshot()
        if kinds.count("charge") != 1 or len(history) != 1:
            problems[op.name].append(
                f"{kinds.count('charge')} journaled charges, {len(history)} debits"
            )
        if run.accountant.spent.epsilon != epsilon or run.result.epsilon_charged != epsilon:
            problems[op.name].append(f"charged ε differs from the certificate's {epsilon!r}")
        if run.resumes != resumes:
            problems[op.name].append(f"{run.resumes} resumes, expected {resumes}")
        if run.result.audits_failed or run.result.rejected_devices:
            problems[op.name].append("an honest population had audits fail or uploads rejected")
    if resumed.result != journaled.result:
        problems[ops[1].name].append("resumed QueryResult differs from the uncrashed run's")
    if (
        ExecutionJournal.load(resumed.journal_path).checkpoint_digests()
        != ExecutionJournal.load(journaled.journal_path).checkpoint_digests()
    ):
        problems[ops[1].name].append("resumed checkpoint digests differ from the uncrashed run's")
    return problems


# --------------------------------------------------------------------- service


def _check_replay(replay: Replay) -> Verdict:
    service = replay.service
    failures = [f"refused: {reason}" for reason in replay.refused]
    failures += [
        f"{record.name}: {record.outcome} ({record.error})"
        for record in service.records
        if record.outcome != "executed"
    ]
    if len(service.records) + len(replay.refused) != replay.submitted:
        failures.append(
            f"{len(service.records)} of {replay.submitted} submissions settled"
        )
    spent, _remaining, history = service.session.accountant.snapshot()
    labels = [label for label, _cost in history]
    folded = 0.0
    for record in service.records:
        folded += record.epsilon_charged
    if spent.epsilon != folded:
        failures.append(f"accountant spent ε={spent.epsilon!r}, records fold to {folded!r}")
    if len(set(labels)) != len(labels) or set(labels) != {r.name for r in service.records}:
        failures.append("charge labels are not one per executed submission")
    ledger = [
        (r.seq, r.name, r.outcome, r.cache_hit, r.epsilon_charged, repr(r.value))
        for r in service.records
    ]
    return Verdict(replay.submitted, failures, _sha(repr(ledger)))


# ------------------------------------------------------------------------ pass


def check_pass(workload: Workload, ops: List[Op]) -> Verdict:
    """Judge one pass: operations attempted, one line per failed one, digest."""
    raised = {op.name: [op.error] for op in ops if op.error is not None}
    if workload.name == "service_mix":
        if raised:
            return Verdict(len(workload.requests), raised["replay"], "")
        return _check_replay(ops[0].output)
    problems: Dict[str, List[str]] = dict(raised)
    digests = []
    if workload.name == "durable_16k" and not raised:
        problems.update(_check_durable(ops))
    for op in ops:
        if op.error is not None:
            continue
        if workload.name == "plan_catalog":
            problems.setdefault(op.name, []).extend(_check_plan(op))
            digests.append(f"{op.name}:{plan_digest(op.output[0])}")
        elif workload.name == "durable_16k":
            digests.append(f"{op.name}:{_released(op.output.result)}")
        else:
            found = _check_execution(op.output)
            if workload.name == "program_mix":
                found += PROGRAM_CHECKS[op.name](op.output)
            problems.setdefault(op.name, []).extend(found)
            digests.append(f"{op.name}:{_released(op.output.result)}")
    failures = [f"{name}: {'; '.join(found)}" for name, found in problems.items() if found]
    return Verdict(len(ops), failures, _sha(*digests))
