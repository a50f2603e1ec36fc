"""End-to-end query execution (§5).

The executor drives a chosen plan through the full Arboretum protocol on a
simulated (small-scale) deployment:

1. **Setup** — sortition selects committees from the current public block
   (§5.1); the first committee generates the keypair, checks the privacy
   budget, signs the query authorization certificate, and jointly samples
   the next round's random block (§5.2).
2. **Input** — every device one-hot encodes its datum (placing it in a
   random ciphertext bin when the plan samples, §6), encrypts under the
   committee's public key, and uploads with a well-formedness ZKP; the
   aggregator drops malformed uploads (§5.3).
3. **Processing** — the aggregator homomorphically sums the accepted
   uploads and commits every step to a Merkle tree that participants
   audit; decryption committees receive the key via VSR and turn the
   aggregate into MPC sharings; the remaining program runs in committee
   MPC via the secure interpreter, with the exponential mechanism fanned
   out across noising committees and an argmax tree (§5.4, Fig 5).
4. **Output** — the final committee declassifies only the mechanism's
   result, which the aggregator publishes (§5.5).

Plans whose ``em`` chose the FHE exponentiation instantiation execute via
the Gumbel-noise form, which samples from the *identical* distribution
(the Gumbel-max trick) — see DESIGN.md's substitution table.

Fault tolerance
---------------

When a :class:`~repro.faults.FaultInjector` is attached, the run is split
into named phases (``keygen``, ``input``, ``decrypt``, ``program``), each
wrapped in a round-timeout/retry loop: an injected crash, long straggle,
equivocation, or VSR quorum loss fails the phase, the executor backs off
and replays it against the next committee from the pool (the §5.1
fallback of moving a task to committee i+1 mod c). Committees parked with
live secrets (the keygen committee holding the Paillier key limbs)
survive member churn via Shamir threshold recovery
(:meth:`Committee.recover_shares`). Every value-relevant random draw in a
chaos run comes from a labelled substream of the injector's master seed
rather than from global stream position, so a recovered run releases a
result *bit-identical* to its fault-free twin; once the schedule exceeds
what §5.1 tolerates the executor raises a typed
:class:`~repro.faults.UnrecoverableFault` carrying the full event log —
never a hang, never a silently wrong answer.

Durability
----------

Committee churn is survivable in-memory, but the coordinator process
itself dying is not: attach an
:class:`~repro.runtime.journal.ExecutionJournal` and every
``_checkpoint()`` boundary becomes durable — phase label, committee
allocations, labelled RNG stream positions, sealed held-secret state,
budget charges (write-ahead, keyed by label), and the fault event log,
each record chained by SHA-256. A scheduled
:data:`~repro.faults.COORDINATOR_CRASH` kills the run with a typed
:class:`~repro.faults.CoordinatorCrash`; a fresh incarnation built from
the journal manifest replays deterministically, verifying each
checkpoint against the journaled record (divergence is a typed error,
never a silently different answer), absorbs the recorded death, and
continues — releasing a ``QueryResult`` byte-identical to the
uninterrupted run with the accountant charged exactly once per label.
"""

from __future__ import annotations

import hashlib
import math
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

from ..crypto import paillier
from ..crypto.backend import active_backend_name
from ..crypto.sortition import jointly_generate_block
from ..crypto.vsr import VSRError
from ..crypto.zkp import one_hot_statement, range_statement

# bench/ (frozen this PR) resolves ``prove`` in this module's namespace; no
# code here calls it since the flat intake left (ROADMAP, benchmark-only item).
from ..crypto.zkp import prove  # noqa: F401  verify: allow(no-unused-imports)
from ..faults import (
    PENDING,
    RECOVERED,
    RESTORE,
    TOLERATED,
    UNDETECTED,
    UNRECOVERABLE,
    CoordinatorCrash,
    EventLog,
    FaultInjector,
    InjectedFailure,
    UnrecoverableFault,
)
from ..mpc.engine import CheatingDetected, SecretValue
from ..mpc.protocols import (
    FIXPOINT_SCALE,
    shared_gumbel_noise,
    shared_laplace_noise,
)
from ..planner.expand import Choice
from ..planner.search import PlanningResult
from ..privacy.accountant import PrivacyAccountant, PrivacyCost
from ..privacy.sampling import BinSamplingPlan
from .aggregator import AggregatorTree
from .packing import SlotPacking, plan_packing
from .certificate import (
    CertificateBody,
    QueryAuthorizationCertificate,
    issue_certificate,
    plan_digest,
    verify_certificate,
)
from .committee import (
    Committee,
    CommitteeError,
    CommitteePool,
    bigint_to_limbs,
    limbs_to_bigint,
)
from .interp import MechanismHooks, Secret, SecureInterpreter
from .journal import ExecutionJournal, payload_digest
from .network import FederatedNetwork

#: Failures the phase-retry loop knows how to recover from by failing the
#: task over to a fresh committee and replaying. Everything else (budget
#: rejection, pool exhaustion, genuine protocol corruption) propagates.
RECOVERABLE_FAULTS = (InjectedFailure, CheatingDetected, VSRError)


class QueryRejected(Exception):
    """Raised when the keygen committee refuses the query (budget)."""


class BudgetExhausted(QueryRejected):
    """The refusal was a privacy-budget shortfall specifically.

    A subclass so existing ``except QueryRejected`` sites keep working;
    the service layer and :meth:`AnalyticsSession.ask` raise/propagate
    this typed form so callers can distinguish "the budget is gone" from
    other admission failures without string-matching the message.
    """


class ExecutionError(Exception):
    """Raised when the protocol cannot complete."""


@dataclass
class RuntimeStatistics:
    """Observability counters for one executed query (``repro run --stats``).

    Mirrors ``PlannerStatistics`` on the execution side: wall-clock and
    throughput numbers for the hot intake stages. Statistics never
    influence results, commitments, or accounting, and are excluded from
    ``QueryResult`` equality.
    """

    #: Name of the active crypto kernel backend (``crypto/backend.py``):
    #: ``pure`` or ``accel``. Informational only — backends are
    #: bit-identical by construction, so results never depend on it.
    crypto_backend: str = ""
    logical_width: int = 0
    packed_width: int = 0
    packing_lanes: int = 1
    uploads_submitted: int = 0
    submit_seconds: float = 0.0
    uploads_verified: int = 0
    uploads_rejected: int = 0
    verify_seconds: float = 0.0
    aggregate_seconds: float = 0.0
    ciphertext_additions: int = 0
    uploads_verified_per_second: float = 0.0
    uploads_rejected_per_second: float = 0.0
    decrypt_seconds: float = 0.0
    #: Shard pipeline shape and scheduler effort.
    shards: int = 0
    shard_size: int = 0
    tree_depth: int = 0
    scheduler_events: int = 0
    #: One event a dispatch, so always ``scheduler_events`` (bench/ reads both).
    scheduler_batches: int = 0
    #: Durable-journal counters (``repro run --journal`` / ``repro resume``).
    checkpoints: int = 0
    journal_records: int = 0
    journal_replayed: int = 0
    resume_events: int = 0

    def as_dict(self) -> Dict[str, object]:
        return dict(vars(self))


@dataclass
class QueryResult:
    """The outcome of one executed query."""

    outputs: List[object]
    rejected_devices: List[int]
    audits_failed: int
    committees_used: int
    epsilon_charged: float
    events: List[str] = field(default_factory=list)
    authorization: Optional[QueryAuthorizationCertificate] = None
    #: Present only for chaos runs: the injected-fault/recovery ledger.
    fault_log: Optional[EventLog] = None
    #: Data-plane observability; never part of result equality.
    statistics: Optional[RuntimeStatistics] = field(
        default=None, compare=False, repr=False
    )

    @property
    def value(self) -> object:
        return self.outputs[0] if self.outputs else None


@dataclass
class _HeldSecrets:
    """A committee parked mid-run with secret shares later phases need.

    If members of such a committee churn, failover alone cannot help — a
    fresh committee would not hold the secrets — so the recovery runtime
    re-shares the vectors among the survivors instead
    (:meth:`Committee.recover_shares`).
    """

    committee: Committee
    vectors: Dict[str, List[SecretValue]]


def pad_pool_size(devices: int, packed_width: int) -> int:
    """Pads in a run's :class:`~repro.runtime.shard.ObfuscatorPool`.

    Each pad costs a full ``r^n mod n²``, so the pool is never larger than
    the ciphertexts it will obfuscate: 64 for any run of 64 ciphertexts or
    more, fewer for a small one (a 24-device service query packing its row
    into one ciphertext precomputes 24), and never below the pool's floor
    of 2. ``devices`` is the *registered* population, like the packing
    bound, so a churned run sizes as its fault-free twin does.
    """
    return max(2, min(64, devices * packed_width))


def hashlib_sha256_int(value: int) -> bytes:
    """Digest of a big integer (used for public-key fingerprints)."""
    width = (value.bit_length() + 7) // 8 or 1
    return hashlib.sha256(value.to_bytes(width, "big")).digest()


class QueryExecutor:
    """Runs one planned query over a simulated network."""

    def __init__(
        self,
        network: FederatedNetwork,
        planning: PlanningResult,
        committee_size: int = 5,
        key_prime_bits: int = 128,
        rng: Optional[random.Random] = None,
        accountant: Optional[PrivacyAccountant] = None,
        verify_plan: bool = True,
        faults: Optional[FaultInjector] = None,
        max_phase_retries: int = 3,
        data_plane: str = "sharded",
        journal: Optional[ExecutionJournal] = None,
        shard_size: int = 1024,
        shard_workers: int = 0,
        tree_fanout: int = 16,
        charge_label: Optional[str] = None,
    ):
        # bench/workloads.py (frozen for benchmark comparability) still passes
        # data_plane="sharded" and shard_workers=0; the shard pipeline is the
        # only intake there is and it drains on the caller's thread.
        if data_plane != "sharded":
            raise ValueError(
                f"unknown data plane {data_plane!r}: the shard pipeline "
                "('sharded') is the only intake"
            )
        if shard_workers != 0:
            raise ValueError(
                f"shard_workers={shard_workers!r}: the option was removed, the "
                "intake drains serially (0 is the only value still accepted)"
            )
        if shard_size < 1:
            raise ValueError("shard_size must be positive")
        self.network = network
        self.planning = planning
        self.verify_plan = verify_plan
        self.logical = planning.logical_plan
        self.env = self.logical.env
        self.committee_size = committee_size
        self.key_prime_bits = key_prime_bits
        # Default to a stream forked off the network's: the executor must
        # never run from an unseeded generator (reproducibility, R2 lint).
        self.rng = rng if rng is not None else random.Random(network.rng.getrandbits(64))
        self.accountant = accountant
        self.faults = faults
        self.max_phase_retries = max_phase_retries
        self.events: List[str] = []
        self.pool: Optional[CommitteePool] = None
        self.certificate: Optional[QueryAuthorizationCertificate] = None
        self._select_choice = self._find_choice("select_max")
        self._input_choice = self._find_choice("input")
        self._budget_charged = False
        #: Label the budget debit is keyed by. Defaults to the query name;
        #: the multi-tenant service overrides it per submission so a plan
        #: served from the keyed cache (whose logical plan keeps the
        #: original query name) still charges exactly once per submission.
        self.charge_label = (
            charge_label if charge_label is not None else self.logical.query_name
        )
        self._held_secrets: List[_HeldSecrets] = []
        self._keygen_committee: Optional[Committee] = None
        self._key_shares: Optional[Dict[str, List[SecretValue]]] = None
        self._noise_seq = 0
        self._laplace_seq = 0
        self.shard_size = shard_size
        self.tree_fanout = tree_fanout
        #: Master seed of the intake's labelled substreams. Drawn once at
        #: construction from the executor's seeded rng — deterministic
        #: across resume incarnations; per-shard streams derive from it by
        #: label, never from shared stream position.
        self._shard_seed = self.rng.getrandbits(64)
        self._packing: Optional[SlotPacking] = None
        #: Durable write-ahead journal; a loaded journal puts the run in
        #: resume mode (replay-verify to the last intact record, then
        #: continue appending). See runtime/journal.py.
        self.journal = journal
        self._checkpoint_seq = 0
        self._rng_labels: List[str] = []
        self._journaled_rng_labels = 0
        #: Charges made at their in-order execution point this incarnation
        #: (part of every checkpoint payload, so replay must reproduce it).
        self._charges: Dict[str, Tuple[float, float]] = {}
        #: Ledger restored from the journal: labels prior incarnations
        #: already paid for. Consulted by the charge site, never placed in
        #: a checkpoint payload ahead of its original execution point.
        self._restored_charges: Dict[str, Tuple[float, float]] = {}
        self.statistics = RuntimeStatistics(crypto_backend=active_backend_name())
        #: The validated dataflow PrivacyCertificate for this run (set by
        #: the verify gate; its digest is folded into the signed
        #: CertificateBody so committees endorse the privacy proof too).
        self.privacy_certificate = getattr(planning, "privacy_certificate", None)

    # ------------------------------------------------------------- plumbing

    def _find_choice(self, op_prefix: str) -> Optional[Choice]:
        plan = self.planning.plan
        if plan is None:
            return None
        for choice in getattr(plan, "choice_list", []) or []:
            if choice.key.startswith(op_prefix):
                return choice
        return None

    def _log(self, message: str) -> None:
        self.events.append(message)

    def _allocate(self, name: str) -> Committee:
        committee = self.pool.allocate(name)
        if self.faults is not None:
            phase = self.faults.current_phase
            if phase is not None:
                # Symbolic fault targets like "keygen#1" name members of
                # the *first* committee a phase allocated.
                self.faults.note_allocation(phase, committee)
        self._checkpoint(f"allocate/{name}")
        return committee

    def _fresh(self, label: str) -> random.Random:
        """The stream backing one value-relevant draw.

        In a chaos run this is the injector's labelled substream — stable
        across phase replays, so recovery re-derives identical noise, bin
        placements, and sampling offsets. Without an injector it is the
        executor's own rng. Every
        label is recorded in order so journal checkpoints can attest to
        the RNG stream positions the run has consumed.
        """
        self._rng_labels.append(label)
        if self.faults is None:
            return self.rng
        return self.faults.fresh(label)

    def _shard_stream(self, label: str) -> random.Random:
        """A labelled substream for one unit of intake work.

        Unlike :meth:`_fresh`, the fault-free path does *not* fall back to
        the executor's shared rng: every shard's stream is derived from
        the plane's master seed by label, so the draw schedule is a pure
        function of (seed, label), never of how far another shard's stream
        or the shared rng has been read. Chaos runs derive from the
        injector instead, keeping recovery replays bit-identical. The label
        attestation order is the scheduler's post order: every shard's
        ``churn`` derives its stream before the first ``upload`` runs.
        """
        self._rng_labels.append(label)
        if self.faults is not None:
            return self.faults.fresh(label)
        from ..faults import derive_stream_seed

        return random.Random(derive_stream_seed(self._shard_seed, label))

    def _checkpoint(self, label: str) -> None:
        """A named execution boundary: journal record, then armed faults.

        When a journal is attached, the full recovery-relevant state
        (allocations, RNG labels, sealed held secrets, charges, fault
        log) is made durable *before* any fault may fire, so a process
        death at this exact point loses nothing. A scheduled
        coordinator-crash event then fires here — unless a crash record
        from a previous incarnation absorbs it, which is how a resumed
        run sails past its own death point.
        """
        seq = self._checkpoint_seq
        self._checkpoint_seq += 1
        self.statistics.checkpoints = self._checkpoint_seq
        if self.journal is not None:
            replayed = self.journal.checkpoint(self._checkpoint_payload(seq, label))
            if replayed:
                self.statistics.journal_replayed += 1
            self.statistics.journal_records = self.journal.record_count
        if self.faults is not None:
            while True:
                event = self.faults.take_coordinator_crash(label, seq)
                if event is None:
                    break
                if self.journal is not None and self.journal.consume_crash(seq, label):
                    # This incarnation is the resume of exactly this death.
                    # Surfaced via statistics only: the released QueryResult
                    # must stay byte-identical to the uninterrupted run.
                    self.statistics.resume_events += 1
                    continue
                if self.journal is not None:
                    self.journal.record_crash(seq, label, event.as_dict())
                raise CoordinatorCrash(
                    f"coordinator process died at checkpoint {seq} ({label})"
                    + (
                        f"; resume from journal {self.journal.path}"
                        if self.journal is not None
                        else "; no journal was attached, the run is lost"
                    ),
                    event=event,
                    checkpoint=label,
                    checkpoint_seq=seq,
                    journal_path=self.journal.path if self.journal else None,
                )
            self.faults.maybe_fail()

    def _checkpoint_payload(self, seq: int, label: str) -> Dict[str, object]:
        """Everything a checkpoint record attests to, JSON-canonical.

        The RNG stream attestation stores the labels drawn *since the
        previous checkpoint* plus a rolling digest over all labels so far:
        full information across the journal without quadratic growth.
        """
        digest = hashlib.sha256()
        for drawn in self._rng_labels:
            digest.update(drawn.encode("utf-8"))
            digest.update(b";")
        new_labels = self._rng_labels[self._journaled_rng_labels :]
        self._journaled_rng_labels = len(self._rng_labels)
        return {
            "seq": seq,
            "label": label,
            "phase": self.faults.current_phase if self.faults is not None else None,
            "allocations": [
                {"name": c.name, "members": list(c.members)}
                for c in (self.pool.allocated if self.pool is not None else [])
            ],
            "rng_streams": {
                "count": len(self._rng_labels),
                "digest": digest.hexdigest(),
                "new_labels": new_labels,
            },
            "held_secrets": self._sealed_held_secrets(),
            "charges": {
                label_: {"epsilon": eps, "delta": delta}
                for label_, (eps, delta) in sorted(self._charges.items())
            },
            "events": self.faults.log.as_dict() if self.faults is not None else None,
        }

    def _sealed_held_secrets(self) -> List[Dict[str, object]]:
        """Commitments to the live secrets parked with mid-run committees.

        The journal must never hold key material, so each held vector is
        *sealed*: a SHA-256 digest over its Shamir share points (a
        party's x-coordinate is its id). The digest is replay-stable
        (shares derive from the executor's seeded rng) and lets a resumed
        run prove it reconstructed the identical secret state without the
        journal ever learning it.
        """
        sealed: List[Dict[str, object]] = []
        for held in self._held_secrets:
            party_ids = held.committee.engine.party_ids
            hasher = hashlib.sha256()
            widths: Dict[str, int] = {}
            for name in sorted(held.vectors):
                vector = held.vectors[name]
                widths[name] = len(vector)
                for value in vector:
                    for pid, y in zip(party_ids, value.ys):
                        hasher.update(f"{name}/{pid}/{pid}/{y};".encode("utf-8"))
            sealed.append(
                {
                    "committee": held.committee.name,
                    "members": list(held.committee.members),
                    "vectors": widths,
                    "seal": hasher.hexdigest(),
                }
            )
        return sealed

    # ------------------------------------------------------ phase machinery

    def _phase(self, label: str, fn: Callable[[], object]) -> object:
        """Run one protocol phase under the fault-recovery contract.

        Recoverable failures (round timeouts, detected cheating, lost VSR
        quorums) trigger a bounded retry: exponential backoff, then the
        phase replays from scratch — allocations inside ``fn`` naturally
        fail over to the next committee in the pool. Exhausting the retry
        budget or the pool itself raises :class:`UnrecoverableFault` with
        the full event log attached.
        """
        if self.faults is None:
            return fn()
        inj = self.faults
        inj.begin_phase(label)
        attempt = 0
        while True:
            attempt += 1
            try:
                self._apply_population_faults(label)
                result = fn()
            except CommitteeError as exc:
                inj.log.resolve_phase(
                    label,
                    UNRECOVERABLE,
                    recovery=f"recovery attempted and failed: {exc}",
                )
                inj.finish()
                raise UnrecoverableFault(
                    f"phase {label!r} cannot recover: {exc}", inj.log
                ) from exc
            except RECOVERABLE_FAULTS as exc:
                if attempt > self.max_phase_retries:
                    inj.log.resolve_phase(
                        label,
                        UNRECOVERABLE,
                        recovery=f"retry budget ({self.max_phase_retries}) exhausted",
                    )
                    inj.finish()
                    raise UnrecoverableFault(
                        f"phase {label!r} failed after {attempt} attempts: {exc}",
                        inj.log,
                    ) from exc
                inj.backoff(attempt)
                self._log(
                    f"phase {label}: {type(exc).__name__}: {exc}; backing off "
                    f"and replaying with a fresh committee (attempt {attempt + 1})"
                )
                continue
            if attempt > 1:
                inj.log.resolve_phase(
                    label,
                    RECOVERED,
                    recovery="task failed over to the next committee and the "
                    "phase was replayed (§5.1)",
                )
            return result

    def _apply_population_faults(self, phase: str) -> None:
        """Consume this phase's churn events (idempotent across replays)."""
        inj = self.faults
        for event in inj.population_events(phase):
            devices = inj.resolve_devices(event)
            if event.kind == RESTORE:
                self.network.restore(devices)
                inj.log.record(
                    event,
                    detection=f"devices {devices} re-announced themselves",
                    recovery="restored to the population; eligible for future "
                    "committees, no replay needed",
                    outcome=TOLERATED,
                )
                continue
            self.network.take_offline(devices)
            rec = inj.log.record(
                event,
                detection=f"devices {devices} stopped responding "
                "(missed round heartbeat)",
                recovery=PENDING,
            )
            self._recover_held_secrets(devices, rec)

    def _recover_held_secrets(self, devices: List[int], rec) -> None:
        """Re-share live secrets held by committees the churn just hit."""
        lost = set(devices)
        for held in self._held_secrets:
            committee = held.committee
            departed = [m for m in committee.members if m in lost]
            if not departed:
                continue
            before = committee.size
            # CommitteeError (survivors below the reconstruction quorum)
            # propagates to the phase machinery: the key material is gone
            # for good, which is exactly the unrecoverable case.
            held.vectors.update(
                committee.recover_shares(held.vectors, departed, self.rng)
            )
            limbs = sum(len(v) for v in held.vectors.values())
            rec.recovery = (
                f"{committee.size} of {before} members of the "
                f"{committee.name!r} committee re-shared {limbs} live secret "
                "limbs among themselves (Shamir threshold recovery)"
            )
            rec.outcome = RECOVERED
            self._log(
                f"recovered {committee.name} shares after losing {departed}"
            )
        if rec.outcome == PENDING:
            rec.recovery = (
                "no committee holding live secrets was affected; §5.1 "
                "sizing absorbs the churn"
            )
            rec.outcome = TOLERATED

    def _vsr_send(
        self,
        sender: Committee,
        values: List[SecretValue],
        recipient: Committee,
    ) -> List[SecretValue]:
        """VSR transfer, with the lost-message fault path threaded through."""
        if self.faults is None:
            return sender.send_via_vsr(values, recipient)
        event = self.faults.take_vsr_loss()
        if event is None:
            return sender.send_via_vsr(values, recipient)
        lost_dealer = sender.members[0]
        rec = self.faults.log.record(
            event,
            detection=f"dealer {lost_dealer}'s redistribution message never "
            "arrived (mailbox timeout)",
            recovery=PENDING,
        )
        out = sender.send_via_vsr(
            values, recipient, exclude_members=[lost_dealer]
        )
        rec.recovery = (
            f"reconstructed from a surviving quorum of "
            f"{sender.threshold + 1} dealers (VSR tolerates missing messages)"
        )
        rec.outcome = RECOVERED
        return out

    # ------------------------------------------------------------------ run

    def run(self) -> QueryResult:
        if self.verify_plan:
            # Gate: refuse to execute a plan that fails static verification
            # (a tampered certificate, an unsound vignette sequence, ...).
            # The accountant is deliberately NOT consulted here — budget
            # exhaustion must keep raising QueryRejected, not a verify error.
            from ..verify import verify_planning_result

            verify_planning_result(self.planning).raise_if_failed()
            self._validate_privacy_certificate()
        if self.journal is not None:
            self._restore_from_journal()
        n = len(self.network)
        m = self.committee_size
        # Million-device populations do not need hundreds of thousands of
        # standby committees; cap the pool (the paper provisions a small
        # constant number of committees regardless of N, §5.1). Below 64·m
        # devices the cap is inert, so small deployments keep their
        # committee structure.
        max_committees = max(1, min(n // m, 64))
        assignment = self.network.select_committees(max_committees, m)
        round_hook = self.faults.on_round if self.faults is not None else None
        self.pool = CommitteePool(
            assignment.committees,
            self.rng,
            online_filter=self.network.online_members,
            round_hook=round_hook,
        )
        self._log(f"sortition: {max_committees} committees of {m} from {n} devices")

        secret_key = self._phase("keygen", self._phase_keygen)
        public_key = secret_key.public

        bins, sampling_plan = self._sampling_plan()
        self._packing = self._plan_packing(public_key, bins)
        aggregator, totals, audits_failed = self._phase(
            "input", lambda: self._phase_input(public_key, bins)
        )

        counts, dec_committee = self._phase(
            "decrypt", lambda: self._decrypt(totals, secret_key, sampling_plan)
        )
        self._log(f"decrypted aggregate of {len(counts)} categories")

        outputs = self._phase(
            "program", lambda: self._run_program(counts, dec_committee)
        )
        committees_used = len(self.pool.allocated)
        self._log(f"done: {committees_used} committees participated")
        fault_log = self.faults.finish() if self.faults is not None else None
        if self.journal is not None:
            self.journal.record_result(
                {
                    "outputs_repr": repr(outputs),
                    "outputs_digest": payload_digest(repr(outputs)),
                    "epsilon_charged": self.planning.certificate.epsilon,
                    "committees_used": committees_used,
                    "rejected_devices": list(aggregator.rejected),
                    "events": list(self.events),
                    "fault_log": fault_log.as_dict() if fault_log else None,
                }
            )
            self.statistics.journal_records = self.journal.record_count
        agg = aggregator.stats
        self.statistics.uploads_verified = agg.uploads_verified
        self.statistics.uploads_rejected = agg.uploads_rejected
        self.statistics.verify_seconds = agg.verify_seconds
        self.statistics.aggregate_seconds = agg.aggregate_seconds
        self.statistics.ciphertext_additions = agg.ciphertext_additions
        self.statistics.uploads_verified_per_second = agg.uploads_verified_per_second
        self.statistics.uploads_rejected_per_second = agg.uploads_rejected_per_second
        return QueryResult(
            outputs=outputs,
            rejected_devices=list(aggregator.rejected),
            audits_failed=audits_failed,
            committees_used=committees_used,
            epsilon_charged=self.planning.certificate.epsilon,
            events=list(self.events),
            authorization=self.certificate,
            fault_log=fault_log,
            statistics=self.statistics,
        )

    def _validate_privacy_certificate(self) -> None:
        """Re-analyze the plan and validate the attached privacy proof.

        The dataflow pass must come back clean (an un-noised release, an
        insufficient noise scale, or a budget mismatch refuses execution),
        and when the planner attached a serialized PrivacyCertificate its
        digest must match the fresh re-analysis — a certificate that no
        longer describes the plan it rides with fails closed.
        """
        from ..verify.dataflow import analyze_planning_result
        from ..verify.report import PlanVerificationError

        report, derived = analyze_planning_result(self.planning)
        report.raise_if_failed()
        attached = getattr(self.planning, "privacy_certificate", None)
        if attached is not None and derived is not None:
            if attached.digest() != derived.digest():
                report.add(
                    "df-certificate-stale",
                    "privacy certificate",
                    f"attached certificate digest {attached.digest()[:16]}... "
                    f"does not match a fresh re-analysis "
                    f"({derived.digest()[:16]}...); the plan or its "
                    "certificate was modified after planning",
                    node_path="planning.privacy_certificate",
                )
                raise PlanVerificationError(report)
        self.privacy_certificate = attached or derived

    def _restore_from_journal(self) -> None:
        """Adopt the durable ledger state of previous incarnations.

        Journaled charges are the source of truth for budget already
        spent: they are re-applied to the (fresh, in-memory) accountant
        exactly once per label, and remembered so the charge site skips
        them during replay. A journal that already holds a result refuses
        to run again — there is nothing left to resume.
        """
        from .journal import JournalError

        if self.journal.completed:
            raise JournalError(
                f"journal {self.journal.path!r} already records a completed "
                "run; refusing to re-execute (read the result instead)"
            )
        for label, (eps, delta) in self.journal.charges().items():
            self._restored_charges[label] = (eps, delta)
            if self.accountant is not None:
                self.accountant.charge_once(PrivacyCost(eps, delta), label)

    def _phase_keygen(self) -> paillier.PaillierPrivateKey:
        committee = self._allocate("keygen")
        # Budget check happens before any key material is produced (§5.2);
        # the charge is guarded so a keygen replay cannot double-bill, and
        # journaled (write-ahead, keyed by label) so a coordinator crash
        # between charging and finishing cannot double-bill either.
        if self.accountant is not None and not self._budget_charged:
            label = self.charge_label
            cost = PrivacyCost(
                self.planning.certificate.epsilon, self.planning.certificate.delta
            )
            if label in self._restored_charges:
                # A previous incarnation already paid for this query (the
                # accountant was restored from the journal ledger); adopt
                # the charge into the payload-visible map here — the same
                # execution point where the original incarnation charged —
                # so replayed checkpoint payloads stay identical.
                self._charges[label] = self._restored_charges[label]
                self._budget_charged = True
            else:
                if not self.accountant.can_afford(cost):
                    raise BudgetExhausted(
                        f"privacy budget exhausted for {label!r}"
                    )
                if self.journal is not None:
                    self.journal.charge(label, cost.epsilon, cost.delta)
                self.accountant.charge_once(cost, label)
                self._charges[label] = (cost.epsilon, cost.delta)
                self._budget_charged = True
        secret_key = paillier.keygen(self.key_prime_bits, self._fresh("keygen"))
        limb_count = math.ceil((2 * self.key_prime_bits + 8) / 96) + 1
        shares: Dict[str, List[SecretValue]] = {
            "lam": [
                committee.engine.input_value(limb)
                for limb in bigint_to_limbs(secret_key.lam, limb_count)
            ],
            "mu": [
                committee.engine.input_value(limb)
                for limb in bigint_to_limbs(secret_key.mu, limb_count)
            ],
        }
        # Jointly generate the next round's randomness (B_{i+1} = xor of
        # member inputs).
        block_rng = self._fresh("block")
        contributions = {
            member: block_rng.getrandbits(256).to_bytes(32, "big")
            for member in committee.members
        }
        next_block = jointly_generate_block(contributions)
        # Sign the query authorization certificate (§5.2): public key,
        # sequence number, plan digest, remaining budget, pinned registry,
        # and the next block.
        remaining_eps, remaining_delta = float("inf"), float("inf")
        if self.accountant is not None:
            remaining = self.accountant.remaining()
            remaining_eps, remaining_delta = remaining.epsilon, remaining.delta
        body = CertificateBody(
            query_sequence=self.network.sortition.round_number,
            public_key_digest=hashlib_sha256_int(secret_key.public.n),
            plan_digest=plan_digest(
                self.planning.plan.describe() if self.planning.plan else "plan"
            ),
            epsilon_remaining=min(remaining_eps, 1e18),
            delta_remaining=min(remaining_delta, 1e18),
            registry_root=self.network.sortition.registry.root,
            next_block=next_block,
            privacy_certificate_digest=(
                self.privacy_certificate.digest_bytes()
                if self.privacy_certificate is not None
                else b""
            ),
        )
        member_secrets = {
            member: self.network.device(member).secret
            for member in committee.members
        }
        self.certificate = issue_certificate(body, committee.members, member_secrets)
        verify_certificate(self.certificate, member_secrets)
        self.network.advance_round(next_block)
        self._log(f"keygen committee {committee.members} issued the certificate")
        self._keygen_committee = committee
        self._key_shares = shares
        # The keygen committee is now parked holding the only copies of
        # the key-limb shares — register it for churn recovery.
        self._held_secrets = [_HeldSecrets(committee, shares)]
        return secret_key

    def _sampling_plan(self) -> Tuple[int, Optional[BinSamplingPlan]]:
        if self.logical.sample_fraction >= 1.0:
            return 1, None
        bins = 4
        if self._input_choice is not None and self._input_choice.params:
            bins = max(2, min(8, self._input_choice.params[0]))
        plan = BinSamplingPlan.for_fraction(self.logical.sample_fraction, bins)
        return bins, plan

    # ---------------------------------------------------------------- input

    def _plan_packing(
        self, public_key: paillier.PaillierPublicKey, bins: int
    ) -> Optional[SlotPacking]:
        """Choose the Paillier slot packing for this query's uploads.

        The per-slot aggregate bound comes from the upload ZKPs: accepted
        one-hot vectors carry at most a 1 per slot, accepted range vectors
        at most ``hi`` (out-of-bound uploads are rejected before they can
        reach the aggregate, so they cannot overflow a lane). The bound is
        computed from the *total* registered population, which is stable
        across churn, so chaos and fault-free twins plan identical layouts.
        Signed ranges stay unpacked: a negative residue mod n would smear
        across every lane.
        """
        categories = self.env.row_width
        one_hot = self.env.row_encoding == "one_hot"
        width = categories * bins if one_hot else categories
        if one_hot:
            per_device_max = 1
        else:
            lo = int(self.env.db_element.interval.lo)
            hi = int(self.env.db_element.interval.hi)
            if lo < 0 or hi < 0:
                return None
            per_device_max = hi
        max_slot_sum = len(self.network) * per_device_max
        return plan_packing(width, max_slot_sum, public_key.plaintext_modulus)

    def _input_statement(self, bins: int):
        """The upload well-formedness statement and the row shape it covers."""
        categories = self.env.row_width
        one_hot = self.env.row_encoding == "one_hot"
        width = categories * bins if one_hot else categories
        if one_hot:
            statement = one_hot_statement(width)
        else:
            lo = int(self.env.db_element.interval.lo)
            hi = int(self.env.db_element.interval.hi)
            statement = range_statement(width, lo, hi)
        return categories, one_hot, width, statement

    def _phase_input(
        self, public_key: paillier.PaillierPublicKey, bins: int
    ) -> Tuple[AggregatorTree, List[paillier.PaillierCiphertext], int]:
        """The input phase: one event-driven shard pipeline for every caller.

        The population is gathered once (struct-of-arrays), sliced into
        :class:`~repro.runtime.shard.DeviceShard` batches, and the intake
        runs as a ``churn -> upload -> verify -> aggregate -> fold`` event
        pipeline over an :class:`~repro.runtime.aggregator.AggregatorTree`:

        * ``churn`` re-syncs a shard's liveness/malice snapshot with the
          network and derives the shard's labelled RNG stream — for every
          shard before the first upload.
        * ``upload``/``verify`` are pure per-shard stages from
          :mod:`~repro.runtime.shard`, run one shard at a time: a shard's
          column batch is ingested before the next shard's is built.
        * ``aggregate`` ingests a verified batch into its tree leaf and
          journals the shard-scoped checkpoint (``input/shard{i}``) — so
          a coordinator crash resumes at shard granularity, not phase
          granularity.
        * ``fold`` combines an internal tree node the moment its last
          child lands.

        The scheduler drains on the caller's thread, one event at a time
        in post order (see :mod:`~repro.runtime.scheduler`).
        """
        # Looked up per call: bench/ wraps the stages where shard.py defines them.
        from . import scheduler as event_scheduler
        from .shard import ObfuscatorPool, ShardContext, build_shards, upload_shard, verify_shard

        categories, one_hot, width, statement = self._input_statement(bins)
        packed_width = self._packing.packed_width if self._packing else width
        round_number = self.network.sortition.round_number
        garbage = self._apply_garbage_faults()
        # One obfuscator pad pool per run: real obfuscators from a labelled
        # stream, shared read-only by every shard (see shard.py for
        # the subset-product construction and DESIGN.md for the trade).
        pool = ObfuscatorPool(
            public_key,
            self._shard_stream("sharded/pads"),
            pool_size=pad_pool_size(len(self.network), packed_width),
        )
        ctx = ShardContext(
            public_key=public_key,
            statement=statement,
            categories=categories,
            bins=bins,
            one_hot=one_hot,
            width=width,
            round_number=round_number,
            packing=self._packing,
            pool=pool,
        )
        ids, values, online, malicious = self.network.soa_view()
        shards = build_shards(ids, values, online, malicious, self.shard_size)
        tree = AggregatorTree(
            public_key, num_leaves=len(shards), fanout=self.tree_fanout
        )
        scheduler = event_scheduler.EventScheduler()
        devices = self.network.devices
        submit_seconds = 0.0

        def on_churn(event):
            shard = event.payload
            # Re-snapshot liveness/malice against the authoritative device
            # list (direct indexing per the contiguous-id invariant):
            # population faults applied at the phase boundary are visible
            # to the shard without any per-device lookup structure.
            members = [devices[i] for i in (shard.device_ids - 1).tolist()]
            shard.online[:] = [device.online for device in members]
            shard.malicious[:] = [device.malicious for device in members]
            stream = self._shard_stream(shard.stream_label)
            return None, [
                (event_scheduler.UPLOAD, shard.shard_id, (shard, stream))
            ]

        def on_upload(event):
            shard, stream = event.payload
            batch = upload_shard(shard, ctx, stream)
            return batch, [(event_scheduler.VERIFY, shard.shard_id, batch)]

        def on_verify(event):
            result = verify_shard(event.payload, ctx)
            return result, [
                (event_scheduler.AGGREGATE, result.shard_id, result)
            ]

        def on_aggregate(event):
            nonlocal submit_seconds
            result = event.payload
            ready = tree.ingest_leaf(result)
            submit_seconds += result.submit_seconds
            self.statistics.uploads_submitted += result.uploads_received
            self._checkpoint(f"input/shard{result.shard_id}")
            return None, (
                [(event_scheduler.FOLD, ready[1], ready)] if ready else []
            )

        def on_fold(event):
            level, index = event.payload
            ready = tree.fold_node(level, index)
            return None, (
                [(event_scheduler.FOLD, ready[1], ready)] if ready else []
            )

        scheduler.register(event_scheduler.CHURN, on_churn)
        scheduler.register(event_scheduler.UPLOAD, on_upload)
        scheduler.register(event_scheduler.VERIFY, on_verify)
        scheduler.register(event_scheduler.AGGREGATE, on_aggregate)
        scheduler.register(event_scheduler.FOLD, on_fold)
        for shard in shards:
            scheduler.post(event_scheduler.CHURN, shard.shard_id, shard)
        scheduler.drain()

        self._resolve_garbage_faults(garbage, tree)
        if not tree.root.accepted:
            raise ExecutionError("every upload was rejected")
        self._log(
            f"inputs: {tree.root.accepted} accepted, {len(tree.rejected)} "
            f"rejected across {len(shards)} shards "
            f"(tree depth {tree.depth}, fanout {self.tree_fanout})"
        )
        totals = tree.totals()
        audits_failed = tree.run_audits(
            self._shard_stream("sharded/audit"),
            auditors=min(len(self.network), 16),
        )
        if audits_failed:
            raise ExecutionError(f"{audits_failed} participant audits failed")
        self.statistics.submit_seconds += submit_seconds
        self.statistics.logical_width = width
        self.statistics.packed_width = packed_width
        self.statistics.packing_lanes = (
            self._packing.lanes if self._packing else 1
        )
        self.statistics.shards = len(shards)
        self.statistics.shard_size = self.shard_size
        self.statistics.tree_depth = tree.depth
        self.statistics.scheduler_events = sum(
            scheduler.stats.events_processed.values()
        )
        self.statistics.scheduler_batches = self.statistics.scheduler_events
        self._checkpoint("input/aggregated")
        return tree, totals, audits_failed

    def _apply_garbage_faults(self) -> List[Tuple[object, List[int]]]:
        """Flip scheduled devices to malicious so they upload garbage."""
        if self.faults is None:
            return []
        applied = []
        for event in self.faults.garbage_events("input"):
            devices = self.faults.resolve_devices(event)
            for device_id in devices:
                self.network.device(device_id).malicious = True
            applied.append((event, devices))
        return applied

    def _resolve_garbage_faults(
        self, applied: List[Tuple[object, List[int]]], aggregator: AggregatorTree
    ) -> None:
        for event, devices in applied:
            caught = set(devices) <= set(aggregator.rejected)
            self.faults.log.record(
                event,
                detection=f"well-formedness ZKP rejected upload(s) from "
                f"{[d for d in devices if d in aggregator.rejected]}",
                recovery="malformed ciphertext vectors dropped before "
                "aggregation; remaining uploads unaffected",
                outcome=RECOVERED if caught else UNDETECTED,
            )

    # ---------------------------------------------------------- decryption

    def _decrypt(
        self,
        totals: List[paillier.PaillierCiphertext],
        secret_key: paillier.PaillierPrivateKey,
        sampling_plan: Optional[BinSamplingPlan],
    ) -> Tuple[List[int], Committee]:
        dec_committee = self._allocate("decryption")
        # The private key travels as secret shares via VSR (§5.2); the
        # decryption committee reconstructs it inside its honest-majority
        # quorum and jointly decrypts.
        keygen_committee = self._keygen_committee
        moved_lam = self._vsr_send(
            keygen_committee, self._key_shares["lam"], dec_committee
        )
        moved_mu = self._vsr_send(
            keygen_committee, self._key_shares["mu"], dec_committee
        )
        lam = limbs_to_bigint([dec_committee.engine.open(v) for v in moved_lam])
        mu = limbs_to_bigint([dec_committee.engine.open(v) for v in moved_mu])
        if lam != secret_key.lam or mu != secret_key.mu:
            raise ExecutionError("VSR key transfer corrupted the private key")
        reconstructed = paillier.PaillierPrivateKey(secret_key.public, lam, mu)
        started = time.perf_counter()
        counts = [paillier.decrypt(reconstructed, ct) for ct in totals]
        if self._packing is not None:
            counts = self._packing.unpack(counts)
        self.statistics.decrypt_seconds += time.perf_counter() - started
        if sampling_plan is not None:
            # Secrecy of the sample (§6): the committee privately picks the
            # window offset and only the binned window contributes.
            offset = sampling_plan.choose_committee_offset(self._fresh("sampling"))
            mask = sampling_plan.selection_mask(offset)
            categories = self.env.row_width
            binned = [
                counts[b * categories : (b + 1) * categories]
                for b in range(sampling_plan.num_bins)
            ]
            counts = [
                sum(binned[b][i] for b in range(sampling_plan.num_bins) if mask[b])
                for i in range(categories)
            ]
            self._log(
                f"sampled window of {sampling_plan.window}/{sampling_plan.num_bins} bins"
            )
        return counts, dec_committee

    # ------------------------------------------------------------- program

    def _run_program(self, counts: List[int], dec_committee: Committee) -> List[object]:
        # Reset the noise-stream counters so a phase replay re-derives the
        # identical labelled substreams (bit-identical recovery).
        self._noise_seq = 0
        self._laplace_seq = 0
        ops_committee = self._allocate("operations")
        shared_counts = dec_committee.share_values(counts)
        moved = self._vsr_send(dec_committee, shared_counts, ops_committee)
        aggregate = [Secret(v) for v in moved]

        hooks = MechanismHooks(
            em=lambda scores, k: self._run_em(ops_committee, scores, k),
            laplace=lambda value, scale: self._run_laplace(
                ops_committee, value, scale
            ),
        )
        bindings: Dict[str, object] = {
            self.logical.aggregate_var or "aggr": aggregate,
            "epsilon": self.env.epsilon,
            "sens": self.env.sensitivity,
            "N": len(self.network),
        }
        for name, value in self.env.constants.items():
            bindings[name] = value
        interp = SecureInterpreter(ops_committee.engine, hooks, bindings)
        outputs = interp.execute(self.logical.post_statements)
        return [self._publish(v, ops_committee) for v in outputs]

    def _publish(self, value: object, committee: Committee) -> object:
        if isinstance(value, Secret):
            # Outputs are mechanism results; opening them is the final
            # declassification step (§5.5).
            return committee.engine.open(value.value)
        if isinstance(value, list):
            return [self._publish(v, committee) for v in value]
        return value

    # ------------------------------------------------------------ mechanisms

    def _em_parameters(self) -> Tuple[int, int, int]:
        """(style, noise_batch, argmax_fanout) from the plan's choice."""
        style, noise_batch, fanout = 0, 8, 2
        choice = self._select_choice
        if choice is not None and choice.option == "gumbel_mpc":
            style, _dec, noise_batch, fanout = choice.params
        return style, max(1, noise_batch), max(2, fanout)

    def _run_em(
        self, ops_committee: Committee, scores: List[Secret], k: int
    ) -> Union[int, List[int]]:
        style, noise_batch, fanout = self._em_parameters()
        iterative = style == 1 and k > 1
        scale = 2.0 * self.env.sensitivity / self.env.epsilon
        winners: List[int] = []

        def noise_all() -> List[Tuple[int, Secret, Committee]]:
            seq = self._noise_seq
            self._noise_seq += 1
            noised: List[Tuple[int, Secret, Committee]] = []
            for start in range(0, len(scores), noise_batch):
                batch = scores[start : start + noise_batch]
                committee = self._allocate(f"noise[{start}]")
                noise_rng = self._fresh(f"noise/em{seq}/{start}")
                moved = self._vsr_send(
                    ops_committee, [s.value for s in batch], committee
                )
                for offset, value in enumerate(moved):
                    scaled = committee.engine.mul_public(value, FIXPOINT_SCALE)
                    noise = shared_gumbel_noise(committee.engine, scale, noise_rng)
                    noised.append(
                        (
                            start + offset,
                            Secret(committee.engine.add(scaled, noise)),
                            committee,
                        )
                    )
            return noised

        candidates = noise_all()
        for _round in range(k):
            live = [c for c in candidates if c[0] not in winners]
            winner = self._argmax_tree(live, fanout)
            winners.append(winner)
            self._log(f"em selected category {winner}")
            if iterative and _round + 1 < k:
                candidates = noise_all()
        return winners if k > 1 else winners[0]

    def _argmax_tree(
        self, candidates: List[Tuple[object, Secret, Committee]], fanout: int
    ) -> int:
        """Tournament of committees; each compares ``fanout`` candidates.

        A candidate is (index, noised score, home committee). At the leaves
        the index is a public category id; above the first level it is a
        Secret share, so the winner stays hidden until the root committee
        declassifies it (Fig 5). Values move between committees via VSR.
        """
        level = 0
        while len(candidates) > 1:
            next_level: List[Tuple[object, Secret, Committee]] = []
            for start in range(0, len(candidates), fanout):
                group = candidates[start : start + fanout]
                if len(group) == 1:
                    next_level.append(group[0])
                    continue
                committee = self._allocate(f"argmax[l{level}.{start}]")
                moved: List[Tuple[Secret, Secret]] = []
                for index, secret, home in group:
                    if isinstance(index, Secret):
                        idx_sv, val_sv = self._vsr_send(
                            home, [index.value, secret.value], committee
                        )
                        moved.append((Secret(idx_sv), Secret(val_sv)))
                    else:
                        val_sv = self._vsr_send(home, [secret.value], committee)[0]
                        moved.append(
                            (Secret(committee.engine.constant(index)), Secret(val_sv))
                        )
                best_index, best_value = moved[0]
                for index_s, value_s in moved[1:]:
                    greater = committee.engine.greater_than(
                        value_s.value, best_value.value
                    )
                    # Both choices hang off one comparison bit: one round.
                    value_sv, index_sv = committee.engine.select_many(
                        greater,
                        [
                            (value_s.value, best_value.value),
                            (index_s.value, best_index.value),
                        ],
                    )
                    best_value, best_index = Secret(value_sv), Secret(index_sv)
                next_level.append((best_index, best_value, committee))
            candidates = next_level
            level += 1
        index, _value, committee = candidates[0]
        if isinstance(index, Secret):
            return committee.engine.open(index.value)
        return index

    def _run_laplace(
        self, ops_committee: Committee, value: Secret, scale: float
    ) -> float:
        seq = self._laplace_seq
        self._laplace_seq += 1
        committee = self._allocate("laplace")
        moved = self._vsr_send(ops_committee, [value.value], committee)[0]
        scaled = committee.engine.mul_public(moved, FIXPOINT_SCALE)
        # In a chaos run the contribution count is pinned to the *planned*
        # committee size, so churn-trimmed committees draw identical noise.
        noise = shared_laplace_noise(
            committee.engine,
            scale,
            self._fresh(f"noise/laplace{seq}"),
            contributors=self.committee_size if self.faults is not None else None,
        )
        noised = committee.engine.add(scaled, noise)
        result = committee.engine.open(noised)
        self._log("laplace release")
        return result / FIXPOINT_SCALE
