"""The invariant catalog the plan verifier enforces.

Each :class:`Invariant` names one property every plan the planner emits
must satisfy, with the paper section it comes from. The checks themselves
live in :mod:`repro.verify.plan_checker`; this module is the single place
that documents *what* is checked, so the CLI, the docs, and the tests can
enumerate the catalog without duplicating prose.

Rule groups:

* ``ssa-*``  — def-before-use and pipeline shape on the lowered IR (§4.3)
* ``ty-*``   — type/range consistency between IR, environment and plan (§4.4)
* ``enc-*``  — encryption-type soundness (§4.5, §6)
* ``dp-*``   — differential-privacy soundness (§4.2)
* ``com-*``  — committee feasibility (§5.1-§5.2)

:data:`RUN_INVARIANTS` states what an executed *run* promises, and each of
its rules is one function here, named after the rule (``run-budget-once``
is :func:`run_budget_once`), over the run's observable state. Every judge
of a run — ``repro chaos`` and its crash sweep, ``repro resume``, ``repro
eval chaos`` and the scenario suites — calls these functions rather than
re-deriving a promise.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..faults.events import COORDINATOR_CRASH, PENDING, RECOVERED, TOLERATED
from .report import PlanVerificationError, Severity, Violation

#: Vignettes that legitimately run in the clear: proof verification and
#: mailbox forwarding see only ciphertexts-as-bytes and ZKPs, and
#: postprocess/publish see only already-released mechanism outputs (§4.5).
CLEAR_ALLOWED: FrozenSet[str] = frozenset(
    {"verify", "forwarding", "postprocess", "publish"}
)

#: Vignette names that realize a DP mechanism (Gumbel/Laplace noising and
#: the FHE exponential mechanism); a release must be dominated by one.
MECHANISM_VIGNETTES: FrozenSet[str] = frozenset(
    {"em-expo", "em-noise", "em-argmax", "noise-output"}
)


@dataclass(frozen=True)
class Invariant:
    """One verifiable property of a concrete plan."""

    rule: str
    title: str
    paper_ref: str
    description: str
    severity: Severity = Severity.ERROR


INVARIANTS: Tuple[Invariant, ...] = (
    # ------------------------------------------------------------ SSA / IR
    Invariant(
        "ssa-def-before-use",
        "Post-aggregate statements use only defined variables",
        "§4.3",
        "Every variable read in the committee-interpreted statement list is "
        "the aggregate variable, a predefined scalar (epsilon/sens/N), an "
        "environment constant, or was assigned earlier in the block.",
    ),
    Invariant(
        "ssa-pipeline-order",
        "Logical ops appear in pipeline order",
        "§4.3",
        "EncryptInput precedes Aggregate and every mechanism op follows the "
        "Aggregate.",
    ),
    Invariant(
        "ty-ranges",
        "IR operand ranges match the environment",
        "§4.4",
        "EncryptInput/Aggregate widths equal the environment row width, "
        "participant counts match, and mechanism arities (k, count, length) "
        "are positive and within the aggregate's width.",
    ),
    Invariant(
        "ty-scheme-consistent",
        "Plan scheme re-derives from its choices",
        "§4.5, §6",
        "Folding the planner's own §4.5/§6 step over the plan's choice list "
        "(FHE iff some stage needs more than additions; the input choice's "
        "bin count) reproduces the plan's SchemeParams, and the input "
        "vignette uploads exactly ceil(packed_width / slots) ciphertexts.",
    ),
    Invariant(
        "choice-legal",
        "Every choice is drawn from the op's legal option set",
        "§4.3",
        "Re-enumerating the choice space of the logical plan yields every "
        "choice recorded in the plan (no out-of-grid fanouts or batch "
        "sizes, no option applied to the wrong operator).",
    ),
    # ---------------------------------------------------------- encryption
    Invariant(
        "enc-no-clear-secrets",
        "No plaintext crosses a vignette boundary",
        "§4.5",
        "Only proof-verification, forwarding, postprocess and publish "
        "vignettes may run in the clear; every stage that touches "
        "db-derived values is AHE/FHE/TFHE/MPC.",
    ),
    Invariant(
        "enc-decrypt-in-committee",
        "Decryption happens only inside decryption committees",
        "§4.5, §5.2",
        "Every vignette performing threshold decryptions runs at a "
        "COMMITTEE location with committee_type='decryption'; the "
        "aggregator and participants never hold key shares.",
    ),
    Invariant(
        "enc-ahe-depth",
        "AHE stages never exceed additive depth",
        "§4.5, §6",
        "Under an AHE (depth-0 BGV) scheme no vignette performs ciphertext "
        "multiplications, exponentiations or comparisons, and no vignette "
        "is marked 'fhe'.",
    ),
    Invariant(
        "enc-bgv-budget",
        "FHE parameters cover the circuit's noise budget",
        "§6",
        "Every plan's ciphertext modulus holds a depth-0 aggregate (at "
        "least 60 bits). An FHE plan's ring degree meets the HE-standard "
        "security table for its modulus size, and wherever a vignette "
        "multiplies ciphertexts or evaluates an exponentiation the modulus "
        "supports at least 3 levels under the cost model's levels model "
        "(SchemeParams.levels).",
    ),
    Invariant(
        "enc-no-he-after-share",
        "No homomorphic stage after the data is secret-shared",
        "§4.5",
        "Once a decryption-type committee has turned the aggregate into "
        "MPC sharings, no later aggregator vignette operates on AHE/FHE "
        "ciphertexts of it.",
    ),
    # ------------------------------------------------------------------ DP
    Invariant(
        "dp-noise-dominates-output",
        "Every output is dominated by a noise op",
        "§4.2",
        "Each Output op in the IR follows at least one SelectMax or "
        "NoiseOutput op, and the publish vignette runs after at least one "
        "mechanism vignette — declassification only post-noise.",
    ),
    Invariant(
        "dp-epsilon-matches",
        "Re-derived (ε, δ) matches the certificate",
        "§4.2",
        "Summing the certificate's mechanism applications reproduces its "
        "total privacy cost. (Whether the recorded mechanism kinds match the "
        "IR is df-budget-interval's one-for-one comparison.)",
    ),
    # ---------------------------------------------------------- committees
    Invariant(
        "com-tail-bound",
        "Committee size satisfies the binomial tail bound",
        "§5.1",
        "committee_failure_probability(m, c, f, g) <= the per-round "
        "failure budget for the plan's committee count — the sizing "
        "inequality of §5.1, re-evaluated.",
    ),
    Invariant(
        "com-count-covers-plan",
        "Sized committee count covers the vignettes",
        "§5.1",
        "The CommitteeParameters were computed for at least as many "
        "committees as the vignette sequence actually uses.",
    ),
    Invariant(
        "com-keygen-unique",
        "Exactly one keygen committee, in MPC",
        "§5.2",
        "The plan has exactly one keygen vignette; it runs at a COMMITTEE "
        "location in MPC with committee_type='keygen'.",
    ),
    Invariant(
        "com-fanin-capacity",
        "Vignette fan-in fits committee capacity",
        "§4.3, §5.1",
        "Tree fanouts, MPC batch sizes and decryption batches recorded in "
        "the plan's choices stay within the planner's parameter grids, so "
        "no committee is asked to combine more inputs than a committee of "
        "size m can process.",
    ),
    Invariant(
        "com-staffing",
        "Enough devices to staff all committees",
        "§5.1",
        "num_committees * m should not exceed the participant population; "
        "small-scale simulations may exceed it (devices serve on several "
        "committees), so this is a warning, not an error.",
        severity=Severity.WARNING,
    ),
)

INVARIANTS_BY_RULE: Dict[str, Invariant] = {inv.rule: inv for inv in INVARIANTS}

#: The semantic rules of the privacy dataflow analyzer (PR 6). Kept in a
#: separate catalog from the syntactic plan invariants above: the plan
#: checker enumerates INVARIANTS, the dataflow pass enumerates these, and
#: the CLI/docs can print both without either checker claiming the
#: other's rules as "checked".
DATAFLOW_INVARIANTS: Tuple[Invariant, ...] = (
    Invariant(
        "df-taint-release",
        "No un-noised value crosses a release boundary",
        "§4.2",
        "Abstract interpretation of the post-aggregate statements proves "
        "every value reaching output()/declassify() carries a NOISED (or "
        "PUBLIC) taint label; a RAW or CLIPPED label at a release point is "
        "a hard error, even when the op-level IR looks well-formed.",
    ),
    Invariant(
        "df-noise-scale",
        "Every noise scale is sufficient for the proven sensitivity",
        "§4.2",
        "At each laplace node the recorded ε must cover l1_hi/scale_lo "
        "(sensitivity interval over the proven scale interval, sampling- "
        "amplified and loop-multiplied); at each em node the environment "
        "sensitivity that sizes the runtime noise must cover the derived "
        "L∞ bound. Presence of a mechanism is not enough — the scale must "
        "be proven sufficient.",
    ),
    Invariant(
        "df-sensitivity-certified",
        "Recorded sensitivities dominate the derived intervals",
        "§4.2",
        "Each mechanism use's recorded sensitivity must be >= the "
        "interval the dataflow pass derives for the value actually "
        "flowing into it — a clip() dropped by a rewrite, or a scaling "
        "inserted after certification, shows up here.",
    ),
    Invariant(
        "df-budget-interval",
        "Budget accounting reconciles within a proven interval",
        "§4.2, §5.2",
        "The derived mechanism-use sequence must match the certificate's "
        "recorded uses one-for-one (kind, k, count, δ), and the claimed "
        "total (ε, δ) must dominate the outward-rounded interval sum of "
        "the per-node charges — catching double-spends and unrecorded "
        "releases that leave the per-use sum internally consistent.",
    ),
    Invariant(
        "df-sampling-amplification",
        "Amplification is claimed only when the plan samples",
        "§2.1, §6",
        "A recorded use may claim a sampling fraction φ < 1 only when the "
        "IR's EncryptInput op actually activates the oblivious "
        "bin-sampling layout with that fraction.",
    ),
    Invariant(
        "df-certificate-stale",
        "An attached PrivacyCertificate matches a fresh re-analysis",
        "§5.2",
        "The plan gate (repro.verify.gate) re-analyzes the plan and compares "
        "digests; a serialized certificate that no longer matches the plan "
        "it rides with fails closed.",
    ),
    Invariant(
        "df-analysis-incomplete",
        "The analyzer covered every statement it was given",
        "§4.2",
        "Statement or expression forms the abstract interpreter cannot "
        "model make the analysis fail closed rather than silently "
        "under-approximate.",
    ),
    Invariant(
        "df-manual-certificate",
        "Analyst-supplied certificates are flagged, not re-proven",
        "§4.2",
        "A manual (CertiPriv-style) certificate skips the taint and "
        "budget re-derivation; the certificate is marked as asserted so "
        "downstream consumers know the proof burden lies with the "
        "analyst.",
        severity=Severity.WARNING,
    ),
)

DATAFLOW_BY_RULE: Dict[str, Invariant] = {
    inv.rule: inv for inv in DATAFLOW_INVARIANTS
}


#: What an executed run promises (PROTOCOL.md, "What a run promises"). The
#: plan catalogs above are checked before anything runs; these are judged on
#: a run's observable state afterwards, each by the function of the same
#: name with dashes as underscores.
RUN_INVARIANTS: Tuple[Invariant, ...] = (
    Invariant(
        "run-budget-once",
        "ε is charged exactly once and within the global budget",
        "§5.2",
        "The ledger holds each executed query's label once, at its "
        "certificate's ε; spent is their fold and within the (ε, δ) budget.",
    ),
    Invariant(
        "run-tenant-envelope",
        "Every tenant stays within its envelope",
        "§5.2",
        "Each tenant's spend plus live reservations is within its allocation.",
    ),
    Invariant(
        "run-release-certified",
        "Every release carries a certificate that re-derives",
        "§4.2, §5.2",
        "The executed plan passes the plan gate afresh, and the run's "
        "authorization certificate binds that privacy certificate.",
    ),
    Invariant(
        "run-twin-identical",
        "A recovered or resumed run releases its twin's bytes",
        "§5.1",
        "Only coordinator crashes on top of the twin's schedule: the twin's "
        "whole QueryResult; other faults: the twin's outputs; a schedule "
        "that mutates inputs: no comparison. Journaled twins share "
        "checkpoint digests.",
    ),
    Invariant(
        "run-faults-resolved",
        "Every injected fault is detected and recovered",
        "§5.1",
        "Every record of a completed run's event log has a detection, a "
        "recovery action and a recovered or tolerated outcome.",
    ),
    Invariant(
        "run-tamper-typed",
        "Tampering is refused with a typed error naming the culprit",
        "§5.1",
        "A tampered input raises one of this package's own error types, "
        "and its message names the culprit.",
    ),
)


def run_budget_once(accountant, executed: Iterable[Tuple[str, float]]) -> List[Violation]:
    """``run-budget-once`` over a :class:`~repro.privacy.accountant.PrivacyAccountant`;
    ``executed`` holds one ``(charge label, certified ε)`` per charged query."""
    spent, _remaining, history = accountant.snapshot()
    executed = list(executed)
    certified = dict(executed)
    charged = {label: cost.epsilon for label, cost in history}
    found = [
        (label, f"charged {count} times")
        for label, count in Counter(label for label, _ in history).items()
        if count > 1
    ]
    found += [(label, "executed, never charged") for label in sorted(set(certified) - set(charged))]
    found += [(label, "charged, never executed") for label in sorted(set(charged) - set(certified))]
    found += [
        (label, f"charged ε={charged[label]!r}, its certificate carries ε={certified[label]!r}")
        for label in sorted(set(charged) & set(certified))
        if charged[label] != certified[label]
    ]
    folded = sum(epsilon for _label, epsilon in executed)
    if abs(spent.epsilon - folded) > 1e-9:
        found.append(("accountant", f"spent ε={spent.epsilon!r}, certificates sum to {folded!r}"))
    if not (
        spent.epsilon <= accountant.epsilon_budget + 1e-12
        and spent.delta <= accountant.delta_budget + 1e-15
    ):
        found.append(("accountant", f"spent {spent} exceeds the global budget"))
    return [Violation("run-budget-once", subject, message) for subject, message in found]


def run_tenant_envelope(registry) -> List[Violation]:
    """``run-tenant-envelope`` over a :class:`~repro.service.tenants.TenantRegistry`."""
    return [
        Violation(
            "run-tenant-envelope",
            row["tenant"],
            f"spent + reserved {unit} exceeds the envelope's {row[unit + '_budget']!r}",
        )
        for row in registry.report()
        for unit, slack in (("epsilon", 1e-12), ("delta", 1e-15))
        if row[f"spent_{unit}"] + row[f"reserved_{unit}"] > row[f"{unit}_budget"] + slack
    ]


def run_release_certified(planning, result=None) -> List[Violation]:
    """``run-release-certified`` over a planning result and, once it has run,
    its :class:`~repro.runtime.executor.QueryResult`."""
    from . import gate  # the package's gate; verify imports this module first

    try:
        certificate = gate(planning)
    except PlanVerificationError as exc:
        return [
            dataclasses.replace(v, rule="run-release-certified", message=f"[{v.rule}] {v.message}")
            for v in exc.report.errors
        ]
    if result is None or (
        result.authorization is not None
        and result.authorization.body.privacy_certificate_digest == certificate.digest_bytes()
    ):
        return []
    return [
        Violation(
            "run-release-certified",
            "authorization",
            "the run's authorization does not bind the plan's privacy certificate",
        )
    ]


def run_twin_identical(
    result, twin, schedule, digests: Optional[Tuple[Sequence[str], Sequence[str]]] = None
) -> List[Violation]:
    """``run-twin-identical``: ``result`` ran under ``schedule``'s faults on top
    of whatever ``twin`` ran under (a chaos scenario's twin is its fault-free
    run); ``digests`` pairs both journals' checkpoint digests."""
    if schedule.mutates_inputs:
        return []
    found = []
    if result.outputs != twin.outputs:
        found.append(("outputs", f"value {result.value!r} differs from fault-free {twin.value!r}"))
    elif all(e.kind == COORDINATOR_CRASH for e in schedule.events) and result != twin:
        # A pure coordinator-crash schedule injects no member faults, so the
        # resumed QueryResult must equal the twin's entirely.
        found.append(("QueryResult", "resumed QueryResult differs from baseline"))
    if digests is not None and list(digests[0]) != list(digests[1]):
        found.append(("journal", "checkpoint digests differ from the twin's journal"))
    return [Violation("run-twin-identical", subject, message) for subject, message in found]


def run_faults_resolved(log) -> List[Violation]:
    """``run-faults-resolved`` over a completed run's :class:`~repro.faults.EventLog`."""
    return [
        Violation(
            "run-faults-resolved",
            f"{record.fault.kind} @ {record.fault.phase}",
            f"fault record left unresolved: {record.format()}",
        )
        for record in log.records
        if not record.detection
        or record.recovery in ("", PENDING)
        or record.outcome not in (RECOVERED, TOLERATED)
    ]


def run_tamper_typed(error: Optional[BaseException], culprit: str) -> List[Violation]:
    """``run-tamper-typed``: ``error`` is what a tampered input raised (None
    when it was accepted) and ``culprit`` what its message must name."""
    kind = type(error).__name__
    if error is None:
        message = "the tampered input was accepted"
    elif type(error).__module__.split(".")[0] != "repro":
        message = f"untyped {kind}: {error}"
    elif culprit not in str(error):
        message = f"{kind} does not name the culprit: {error}"
    else:
        return []
    return [Violation("run-tamper-typed", culprit, message)]
