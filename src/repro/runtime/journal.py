"""Durable write-ahead execution journal with crash-recovery resume.

The paper's queries run for hours across huge device populations, yet
until this module every byte of coordinator state lived in memory: PR 4's
retry/failover survives *committee* churn, but a coordinator crash
between phases lost the run, the committee allocations, and any budget
already charged. Google's production system ("Confidential Federated
Computations", PAPERS.md) leans on durable ledgers so long-running
confidential aggregations are resumable and budget is charged exactly
once; this module brings that property to the simulated runtime.

Design
------

The journal is an append-only file of canonical-JSON records, one per
line, each carrying a **chained SHA-256 digest**: ``digest_i =
sha256(digest_{i-1} || canonical(record_i))`` with a fixed genesis
string. Loading re-derives the chain, so a truncated or tampered file is
detected *on load* — a typed :class:`JournalTruncated` /
:class:`JournalCorrupted` — never silently replayed. Record kinds:

``open``
    The run manifest, :meth:`Deployment.as_manifest
    <repro.runtime.deployment.Deployment.as_manifest>` (query source,
    seeds, deployment shape, serialized fault plan). Everything a fresh
    process needs to rebuild the run.
``checkpoint``
    Written at every ``QueryExecutor._checkpoint()`` boundary: phase
    label, checkpoint label/ordinal, committee allocations so far, the
    labelled RNG streams drawn (``faults.fresh`` labels), sealed
    held-secret state (a digest of the parked committees' live share
    vectors — a commitment, never the shares themselves), the accountant
    charges so far, and the fault :class:`~repro.faults.EventLog`; an
    ``input/shard{i}`` checkpoint adds the shard's intake ``leaf``.
``charge``
    Written *before* the in-memory accountant is debited (write-ahead):
    the label and (ε, δ) of one budget charge. Keyed by label, these give
    charge-once semantics on replay — a resumed incarnation restores the
    ledger and skips labels already journaled.
``crash``
    Appended when an injected :data:`~repro.faults.COORDINATOR_CRASH`
    fires: the checkpoint where this incarnation died. On resume, one
    crash record suppresses one re-firing of the same event, so the next
    incarnation sails past the death point.
``result``
    The released outputs (plus digests) of a completed run. A journal
    ending in a result record has nothing to resume.

Resume is **deterministic re-execution, verified record-by-record,
except that a journaled shard's intake is restored from its leaf**: the
runtime's whole fault methodology already keys every value-relevant draw
by a stable label rather than global stream position, so a new
incarnation rebuilt from the manifest replays the identical run. The
journal's role is to make that replay *safe*: each checkpoint the
resumed run reaches is compared against the journaled record (same
label, same canonical payload) and any mismatch raises a typed
:class:`JournalDivergence` instead of quietly releasing a different
answer. An ``input/shard{i}`` checkpoint also carries the shard's
deterministic intake result (its *leaf*: upload counts, rejected ids,
leaf digest, per-slot partial sums). When the record the replay reaches
next is that shard's, the executor skips the shard's encryption, proofs
and verification, takes the leaf from :meth:`ExecutionJournal.next_replay_payload`,
and admits it to the aggregation tree only after the rest of the
checkpoint (allocations, RNG labels, sealed held secrets, charges, fault
log) has replay-verified. Everything else — keygen, committees, MPC —
is still re-executed. Once the replay cursor passes the last intact
record the journal switches back to appending, and the run continues as
if the crash never happened — the headline guarantee, enforced by
``tests/test_journal.py``.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Callable, Dict, List, Optional, Tuple

#: Bumped when the record schema changes; part of the genesis digest, so
#: a journal of another schema fails to load (v2: shard checkpoints carry
#: their intake leaf).
JOURNAL_VERSION = 2


def _genesis(version: int) -> str:
    return hashlib.sha256(
        f"arboretum-execution-journal/v{version}".encode("utf-8")
    ).hexdigest()


_GENESIS = _genesis(JOURNAL_VERSION)

#: Coordinator incarnations a crash→resume drive runs before giving up.
MAX_INCARNATIONS = 8


def canonical_json(payload: object) -> str:
    """Deterministic JSON: sorted keys, no whitespace, finite floats only."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def payload_digest(payload: object) -> str:
    """SHA-256 over the canonical form of one payload (chain-independent)."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def _chain(previous: str, seq: object, kind: object, payload: object) -> str:
    """One link of the digest chain: ``sha256(previous || canonical record)``."""
    body = canonical_json({"seq": seq, "kind": kind, "payload": payload})
    return hashlib.sha256((previous + body).encode("utf-8")).hexdigest()


class JournalError(Exception):
    """Base class for execution-journal failures."""


class JournalVersionMismatch(JournalError):
    """The journal chains from an earlier schema's genesis: it is intact,
    but this build cannot replay it."""


class JournalCorrupted(JournalError):
    """A record fails the chained-digest check (tampering or bit rot)."""


class JournalTruncated(JournalCorrupted):
    """The file ends mid-record (torn write) or holds no records at all."""


class JournalDivergence(JournalError):
    """A resumed run produced state that contradicts the journaled run.

    Raised when a replayed checkpoint's payload does not match the record
    written by the previous incarnation — wrong seeds, a changed query,
    or non-deterministic state. Failing here is the safety property: a
    divergent resume must never release a value.
    """


_NUMBER = (int, float)

#: The fields a reader takes from each record kind's payload, with their
#: JSON types. A chain-valid record without them is refused on load as
#: corrupted, never left to fail later as a KeyError.
_RECORD_FIELDS: Dict[str, Dict[str, object]] = {
    "open": {},
    "checkpoint": {"seq": int, "label": str},
    "charge": {"label": str, "epsilon": _NUMBER, "delta": _NUMBER},
    "crash": {"checkpoint_seq": int, "checkpoint_label": str},
    "result": {"outputs_repr": str, "epsilon_charged": _NUMBER, "events": list},
}

def _require(payload: object, fields: Dict[str, object], where: str) -> None:
    """Raise :class:`JournalCorrupted` unless ``payload`` is an object with
    every field in ``fields`` at its JSON type (a bool is no number)."""
    if not isinstance(payload, dict):
        raise JournalCorrupted(f"{where}: the payload is not a JSON object")
    for name, kind in fields.items():
        value = payload.get(name)
        if not isinstance(value, kind) or isinstance(value, bool):
            raise JournalCorrupted(f"{where}: field {name!r} is missing or mistyped")


class ExecutionJournal:
    """One run's durable ledger; see the module docstring for the format.

    Construct via :meth:`create` (fresh run) or :meth:`load` (resume).
    A loaded journal starts in *replay* mode: checkpoints are verified
    against the stored records until the cursor is exhausted, after which
    new records append — continuing the digest chain across incarnations.
    """

    def __init__(self, path: str):
        self.path = path
        self._records: List[dict] = []
        self._last_digest = _GENESIS
        #: Verified checkpoint records awaiting replay (resume mode).
        self._checkpoint_records: List[dict] = []
        self._replay_cursor = 0
        self._crash_records: List[dict] = []
        self._charges: Dict[str, Tuple[float, float]] = {}
        self._result: Optional[dict] = None

    # ------------------------------------------------------------ lifecycle

    @classmethod
    def create(cls, path: str, manifest: Optional[dict] = None) -> "ExecutionJournal":
        """Start a fresh journal at ``path`` (truncating any existing file).

        ``manifest`` is the run recipe a future ``repro resume`` needs to
        rebuild the deployment; it becomes the ``open`` record.
        """
        execution_journal = cls(path)
        with open(path, "w", encoding="utf-8"):
            pass  # truncate; the open record is appended through _append
        execution_journal._append("open", dict(manifest or {}))
        return execution_journal

    @classmethod
    def load(cls, path: str) -> "ExecutionJournal":
        """Read and verify a journal; raises typed errors, never guesses.

        Every record's chained digest is re-derived. A file that ends
        mid-record raises :class:`JournalTruncated`; a record whose chain
        digest does not match raises :class:`JournalCorrupted`. Only a
        fully intact journal is ever handed to a resuming executor.
        """
        execution_journal = cls(path)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                raw = handle.read()
        except OSError as exc:
            raise JournalError(f"cannot read journal {path!r}: {exc}") from exc
        lines = raw.split("\n")
        if lines and lines[-1] == "":
            lines.pop()
        else:
            # The file does not end in a newline: the final append was torn.
            raise JournalTruncated(
                f"journal {path!r} ends mid-record (torn final write)"
            )
        if not lines:
            raise JournalTruncated(f"journal {path!r} holds no records")
        for index, line in enumerate(lines):
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                kind = JournalTruncated if index == len(lines) - 1 else JournalCorrupted
                raise kind(
                    f"journal {path!r} record {index} is not valid JSON "
                    f"({exc.msg}); the file is "
                    + ("truncated" if kind is JournalTruncated else "corrupted")
                ) from exc
            if not isinstance(record, dict):
                raise JournalCorrupted(
                    f"journal {path!r} record {index} is not a JSON object"
                )
            seq, kind, payload = record.get("seq"), record.get("kind"), record.get("payload")
            expected = _chain(execution_journal._last_digest, seq, kind, payload)
            if record.get("digest") != expected:
                if index == 0:
                    for version in range(1, JOURNAL_VERSION):
                        if record.get("digest") == _chain(_genesis(version), seq, kind, payload):
                            raise JournalVersionMismatch(
                                f"journal {path!r} was written by journal schema "
                                f"v{version}; this build reads v{JOURNAL_VERSION}, "
                                "so it can neither replay nor print it"
                            )
                raise JournalCorrupted(
                    f"journal {path!r} record {index} fails the digest chain "
                    f"(stored {str(record.get('digest'))[:16]}…, derived "
                    f"{expected[:16]}…); the journal was tampered with or "
                    "reordered"
                )
            if record.get("seq") != index:
                raise JournalCorrupted(
                    f"journal {path!r} record {index} carries sequence "
                    f"number {record.get('seq')!r}; records were dropped or "
                    "reordered"
                )
            if not isinstance(kind, str) or kind not in _RECORD_FIELDS:
                raise JournalCorrupted(
                    f"journal {path!r} record {index} is of unknown kind {kind!r}"
                )
            _require(payload, _RECORD_FIELDS[kind], f"journal {path!r} record {index}")
            execution_journal._ingest(record)
        records = execution_journal._records
        if not records or records[0]["kind"] != "open":
            raise JournalCorrupted(
                f"journal {path!r} does not begin with an open record"
            )
        return execution_journal

    def _ingest(self, record: dict) -> None:
        """Accept one verified record into the in-memory view."""
        self._records.append(record)
        self._last_digest = record["digest"]
        kind, payload = record["kind"], record["payload"]
        if kind == "checkpoint":
            self._checkpoint_records.append(record)
        elif kind == "charge":
            self._charges[payload["label"]] = (
                payload["epsilon"],
                payload["delta"],
            )
        elif kind == "crash":
            self._crash_records.append(record)
        elif kind == "result":
            self._result = payload

    # ------------------------------------------------------------- appends

    def _append(self, kind: str, payload: dict) -> dict:
        seq = len(self._records)
        record = {
            "seq": seq,
            "kind": kind,
            "payload": payload,
            "digest": _chain(self._last_digest, seq, kind, payload),
        }
        # Write-ahead: the record is durable (flushed and fsynced) before
        # the caller acts on it, so a crash immediately after never leaves
        # the ledger behind the in-memory state.
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(canonical_json(record) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        self._ingest(record)
        return record

    # ------------------------------------------------------------ protocol

    def checkpoint(self, payload: dict) -> bool:
        """Record (or replay-verify) one executor checkpoint.

        Returns True when the checkpoint was verified against a record
        from a previous incarnation, False when it was appended live.
        """
        if self._replay_cursor < len(self._checkpoint_records):
            record = self._checkpoint_records[self._replay_cursor]
            self._replay_cursor += 1
            expected, got = record["payload"], payload
            if canonical_json(expected) != canonical_json(got):
                raise JournalDivergence(
                    f"resumed run diverged at checkpoint "
                    f"{got.get('seq')}/{got.get('label')!r}: journaled "
                    f"{expected.get('label')!r} with payload digest "
                    f"{payload_digest(expected)[:16]}…, replay derived "
                    f"{payload_digest(got)[:16]}…; refusing to release a "
                    "value from a divergent replay"
                )
            return True
        self._append("checkpoint", payload)
        # Live appends land in _checkpoint_records too; keep the cursor
        # past them so they are never mistaken for replayable history.
        self._replay_cursor = len(self._checkpoint_records)
        return False

    def charge(self, label: str, epsilon: float, delta: float) -> None:
        """Write-ahead record of one budget charge (call before debiting)."""
        self._append("charge", {"label": label, "epsilon": epsilon, "delta": delta})

    def charges(self) -> Dict[str, Tuple[float, float]]:
        """Label → (ε, δ) for every journaled charge (the durable ledger)."""
        return dict(self._charges)

    def consume_crash(self, checkpoint_seq: int, checkpoint_label: str) -> bool:
        """Suppress one journaled process death at this checkpoint.

        Each crash record absorbs exactly one re-firing of the same
        scheduled event, so an N-crash schedule completes after N resumes.
        """
        for record in self._crash_records:
            payload = record["payload"]
            if record.get("consumed"):
                continue
            if (
                payload["checkpoint_seq"] == checkpoint_seq
                and payload["checkpoint_label"] == checkpoint_label
            ):
                record["consumed"] = True
                return True
        return False

    def record_crash(
        self, checkpoint_seq: int, checkpoint_label: str, event_dict: dict
    ) -> None:
        """This incarnation is about to die at ``checkpoint_label``."""
        self._append(
            "crash",
            {
                "checkpoint_seq": checkpoint_seq,
                "checkpoint_label": checkpoint_label,
                "event": event_dict,
            },
        )

    def record_result(self, payload: dict) -> None:
        self._append("result", payload)

    # ------------------------------------------------------------- queries

    @property
    def manifest(self) -> dict:
        return dict(self._records[0]["payload"]) if self._records else {}

    @property
    def result(self) -> Optional[dict]:
        """The journaled outcome, or None while the run is unfinished."""
        return self._result

    @property
    def completed(self) -> bool:
        return self._result is not None

    @property
    def record_count(self) -> int:
        return len(self._records)

    @property
    def crash_count(self) -> int:
        return len(self._crash_records)

    @property
    def replaying(self) -> bool:
        return self._replay_cursor < len(self._checkpoint_records)

    def next_replay_payload(self) -> Optional[dict]:
        """The journaled payload the next :meth:`checkpoint` call will be
        verified against, or None once replay is over. Does not move the
        cursor; the caller must not mutate the payload."""
        if not self.replaying:
            return None
        return self._checkpoint_records[self._replay_cursor]["payload"]

    def checkpoint_payloads(self) -> List[dict]:
        return [r["payload"] for r in self._checkpoint_records]

    def checkpoint_digests(self) -> List[str]:
        """Chain-independent digests of every checkpoint payload.

        Two runs of the same query took the same execution path iff these
        sequences are equal — the comparison ``repro chaos --crash-sweep``
        makes between every crash→resume journal and the uninterrupted
        baseline (crash/charge records make the *chain* digests differ by
        construction, so the per-payload digests are the right invariant).
        """
        return [payload_digest(p) for p in self.checkpoint_payloads()]

    def tail_digest(self) -> str:
        return self._last_digest


def run_to_completion(
    make_executor: Callable[[ExecutionJournal], object],
    path: str,
    manifest: Optional[dict] = None,
):
    """Drive a journaled run through crash→resume until it completes.

    ``make_executor`` must build a *fresh* deployment (network, planner,
    executor, accountant) around the journal it is given — exactly what a
    new coordinator process would do. The first incarnation records into
    a fresh journal at ``path``; each :class:`CoordinatorCrash` reloads
    the journal (re-verifying the digest chain) and starts the next
    incarnation, which replays to the death point and continues.

    Returns ``(QueryResult, resume_count)``; the crash that ends the
    :data:`MAX_INCARNATIONS`-th incarnation propagates.
    """
    return _drive(make_executor, ExecutionJournal.create(path, manifest), path)


def _drive(make_executor, journal: ExecutionJournal, path: str):
    """:func:`run_to_completion` from an open ``journal`` (``repro resume``'s loaded one)."""
    from ..faults import CoordinatorCrash

    resumes = 0
    while True:
        executor = make_executor(journal)
        try:
            return executor.run(), resumes
        except CoordinatorCrash:
            resumes += 1
            if resumes >= MAX_INCARNATIONS:
                raise
            journal = ExecutionJournal.load(path)
