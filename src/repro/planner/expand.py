"""Operator instantiation: logical ops -> concrete vignette sequences (§4.3-4.5).

For every logical operator this module enumerates the legal concrete
instantiations (the *choice space*), and turns one full assignment of
choices into a vignette sequence with encryption types assigned:

* ``sum`` can run as a flat loop on the aggregator, or as a sum tree of a
  chosen fanout over participant devices or over committees (§4.3);
* the ``em`` can use explicit exponentiation in FHE on the aggregator, or
  Gumbel noise in committee MPC with chosen decryption/noising batch sizes
  and argmax-tree fanout (Fig 4, Fig 5);
* transforms with only linear operations can stay in AHE on the
  aggregator; anything nonlinear forces FHE or committee MPC (§4.5);
* whichever scheme the assignment needs, a key-generation vignette is
  inserted up front and the key travels to the decryption committees
  through a binary VSR redistribution tree (§5.2).

The encryption-type rule of §4.5 falls out structurally: values derived
from db stay inside HE on the aggregator/participants and inside MPC
sharings on committees; only mechanism outputs are declassified.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .committees import CommitteeParameters
from .costmodel import (
    CostModel,
    CostVector,
    DeviceProfile,
    REFERENCE_SERVER,
    SchemeParams,
    TFHE_CIPHERTEXT_BYTES,
    Work,
    addition_gate_count,
    ahe_params_for,
    comparison_gate_count,
    fhe_params_for,
)
from .ir import (
    Aggregate,
    EncryptInput,
    LogicalOp,
    LogicalPlan,
    NoiseOutput,
    Output,
    Postprocess,
    SelectMax,
    VectorTransform,
)
from .plan import Location, Plan, ScoreAccumulator, Vignette, score_stub, vignette_row

#: Parameter grids (§4.3: "there is no single best degree for this tree").
TREE_FANOUTS = (4, 16, 64, 256, 1024, 4096)
MPC_BATCH_SIZES = (16, 64, 256, 1024)
DEC_BATCH_SIZES = (512, 2048, 8192)
NOISE_BATCH_SIZES = (4, 16, 64)
ARGMAX_FANOUTS = (2, 8, 32)
SAMPLE_BIN_CHOICES = (2, 4, 8, 16, 32)


@dataclass(frozen=True)
class Choice:
    """One instantiation decision for one logical op."""

    key: str  # which op (e.g. "aggregate[2]")
    option: str  # e.g. "participant_tree"
    params: Tuple[int, ...] = ()

    def label(self) -> str:
        if self.params:
            return f"{self.option}{list(self.params)}"
        return self.option


class ExpansionError(Exception):
    """Raised when a choice assignment is structurally invalid."""


def choice_space(plan: LogicalPlan) -> List[Tuple[LogicalOp, List[Choice]]]:
    """The per-op list of legal instantiations, in pipeline order."""
    space: List[Tuple[LogicalOp, List[Choice]]] = []
    for i, op in enumerate(plan.ops):
        key = f"{op.name}[{i}]"
        options: List[Choice] = []
        if isinstance(op, EncryptInput):
            if op.sample_fraction < 1.0:
                options = [
                    Choice(key, "binned_upload", (b,)) for b in SAMPLE_BIN_CHOICES
                ]
            else:
                options = [Choice(key, "direct_upload")]
        elif isinstance(op, Aggregate):
            options = [Choice(key, "flat_aggregator")]
            options += [Choice(key, "participant_tree", (f,)) for f in TREE_FANOUTS]
            options += [Choice(key, "committee_tree", (f,)) for f in TREE_FANOUTS]
        elif isinstance(op, VectorTransform):
            if op.nonlinear_ops == 0:
                options.append(Choice(key, "aggregator_ahe"))
            options.append(Choice(key, "aggregator_fhe"))
            if op.nonlinear_ops > 0:
                # The TFHE alternative (§2.2): a committee switches the
                # aggregate from the arithmetic scheme to boolean FHE, the
                # aggregator evaluates the comparison-heavy circuit gate by
                # gate, and a committee converts the result to sharings.
                options.append(Choice(key, "aggregator_tfhe", (32,)))
            options += [Choice(key, "committee_mpc", (b,)) for b in MPC_BATCH_SIZES]
            # §4.4: consecutive vignettes normally may not share a location
            # — except two committee vignettes, which may fuse so one
            # committee does both steps (useful under per-member compute
            # limits). Legal when a SelectMax immediately follows.
            if i + 1 < len(plan.ops) and isinstance(plan.ops[i + 1], SelectMax):
                options += [
                    Choice(key, "committee_mpc_fused", (b,)) for b in MPC_BATCH_SIZES
                ]
        elif isinstance(op, SelectMax):
            options.append(Choice(key, "expo_fhe"))
            styles = ("oneshot", "iterative") if op.k > 1 else ("single",)
            for style_index, _style in enumerate(styles):
                for d in DEC_BATCH_SIZES:
                    for b in NOISE_BATCH_SIZES:
                        for f in ARGMAX_FANOUTS:
                            options.append(
                                Choice(key, "gumbel_mpc", (style_index, d, b, f))
                            )
        elif isinstance(op, NoiseOutput):
            batches = sorted({min(b, max(op.count, 1)) for b in NOISE_BATCH_SIZES})
            options = [Choice(key, "committee_noise", (b,)) for b in batches]
        elif isinstance(op, (Postprocess, Output)):
            options = [Choice(key, "aggregator_clear")]
        else:
            raise ExpansionError(f"no instantiations known for {op.name}")
        space.append((op, options))
    return space


def instantiation_class(op: LogicalOp, choice: Choice) -> Tuple:
    """The class of choices of ``op`` that emit identical vignettes and an
    identical end state from every build state.

    A ``gumbel_mpc`` select-max reads each batch size and the argmax
    fan-out only through ``min(·, c)`` and ``ceil(c'/·)`` with ``c' ≤ c``
    (``c`` = categories), so every value ≥ ``c`` instantiates alike — and
    so does the runtime, which reads the same parameters. Every other
    choice is its own class.
    """
    if isinstance(op, SelectMax) and choice.option == "gumbel_mpc":
        c = max(op.categories, 1)
        style, dec_batch, noise_batch, fanout = choice.params
        return (style, min(dec_batch, c), min(noise_batch, c), min(fanout, c))
    return choice


def distinct_choice_space(plan: LogicalPlan) -> List[Tuple[LogicalOp, List[Choice]]]:
    """:func:`choice_space` with one choice per :func:`instantiation_class`."""
    return distinct_choices(choice_space(plan))


def distinct_choices(
    space: List[Tuple[LogicalOp, List[Choice]]],
) -> List[Tuple[LogicalOp, List[Choice]]]:
    """A :func:`choice_space` with one choice per :func:`instantiation_class`:
    the first member in catalog order, with its own label."""
    walked: List[Tuple[LogicalOp, List[Choice]]] = []
    for op, options in space:
        seen = set()
        distinct: List[Choice] = []
        for choice in options:
            key = instantiation_class(op, choice)
            if key not in seen:
                seen.add(key)
                distinct.append(choice)
        walked.append((op, distinct))
    return walked


# --------------------------------------------------------------------------
# Instantiation
# --------------------------------------------------------------------------


@dataclass
class _BuildState:
    """Mutable state threaded through instantiation."""

    scheme: SchemeParams
    cts_per_participant: int
    encrypted: bool = False  # aggregate currently lives in ciphertexts
    shared: bool = False  # aggregate currently lives in MPC sharings
    dec_groups: int = 0  # committees that received key shares
    group_counter: int = 0
    #: A transform deferred for fusion into the next SelectMax's noising
    #: committees: (batch, nonlinear ops per element, linear ops per elem).
    fused_transform: Optional[Tuple[int, float, float]] = None

    def new_group(self, prefix: str) -> str:
        self.group_counter += 1
        return f"{prefix}#{self.group_counter}"


def _ceil_div(a: float, b: float) -> int:
    return int(math.ceil(a / b)) if b else 0


#: The multiplicative depth the planner provisions FHE schemes for.
PLANNER_FHE_DEPTH = 6


def scheme_inputs(op: LogicalOp, choice: Choice, bins: int, use_fhe: bool) -> Tuple[int, bool]:
    """One step of the §4.5 scheme rule and the §6 bin layout.

    ``(bins, use_fhe)`` after ``choice`` at ``op``: the EncryptInput choice
    fixes the slot groups each row is packed into, and FHE is needed iff a
    homomorphic stage needs more than additions (everything handled in MPC
    can stay under AHE). Both are monotone along a prefix, so a change is
    a scheme flip.
    """
    if isinstance(op, EncryptInput):
        if choice.option == "binned_upload":
            bins = choice.params[0]
    elif isinstance(op, VectorTransform):
        if choice.option == "aggregator_fhe":
            use_fhe = True
    elif isinstance(op, SelectMax):
        if choice.option == "expo_fhe":
            use_fhe = True
    return bins, use_fhe


def fold_scheme_inputs(ops: Sequence[LogicalOp], choices: Sequence[Choice]) -> Tuple[int, bool]:
    """:func:`scheme_inputs` folded over a (possibly partial) choice prefix."""
    bins, use_fhe = 1, False
    for op, choice in zip(ops, choices):
        bins, use_fhe = scheme_inputs(op, choice, bins, use_fhe)
    return bins, use_fhe


def scheme_params(row_width: int, bins: int, use_fhe: bool) -> Tuple[SchemeParams, int, int]:
    """``(scheme, packed, cts)``: the scheme a row of ``row_width`` values
    packed into ``bins`` slot groups is priced at, the packed width, and the
    ciphertexts one upload takes."""
    packed = max(row_width, 1) * bins
    scheme = fhe_params_for(packed, PLANNER_FHE_DEPTH) if use_fhe else ahe_params_for(packed)
    return scheme, packed, max(1, _ceil_div(packed, scheme.slots))


@functools.lru_cache(maxsize=4096, typed=True)
def _work(**counts) -> Work:
    """The one shared :class:`Work` holding ``counts``.

    A ``Work`` is an immutable value, so every row of every emission that
    counts the same work holds one instance, keyed for the cost cache once.
    ``typed`` keeps ``2`` and ``2.0`` apart: plan documents print them
    differently.
    """
    return Work(**counts)


@functools.lru_cache(maxsize=1024)
def _argmax_levels(categories: int, fanout: int) -> Tuple[Tuple[int, Work], ...]:
    """``(committees, per-committee Work)`` per level of an argmax tree of
    ``fanout`` over ``categories`` noised scores (Fig 5), leaves first.

    Each committee compares ``fanout`` noised scores and passes the winner
    up; a top-k selection repeats the same levels k times."""
    levels = []
    remaining = categories
    while remaining > 1:
        committees = max(1, _ceil_div(remaining, fanout))
        width = min(fanout, remaining)
        work = _work(
            mpc_setup=1.0,
            mpc_comparisons=float(width - 1) if width > 1 else 1.0,
            mpc_triples=2.0 * max(width - 1, 1),
            mpc_rounds=2.0,
            vsr_elements_received=float(width) * 2.0,
            vsr_elements_sent=2.0,
        )
        levels.append((committees, work))
        remaining = committees
    return tuple(levels)


def _base_rows(
    scheme: SchemeParams, packed: int, cts: int, n: int, constants: dict
) -> List[tuple]:
    """The always-present input/verify/broadcast base rows."""
    audit_leaves = constants["audit_leaves_per_device"]
    audit_bytes = audit_leaves * (scheme.ciphertext_bytes + constants["merkle_path_bytes"])
    # One Groth16 proof covers one circuit chunk. The R1CS encodes the
    # ciphertext arithmetic, so the statement size scales with both the
    # packed width and the ciphertext-modulus size (FHE uploads carry much
    # bigger coefficients than depth-0 AHE ones).
    chunk = constants["zkp_chunk_slots"]
    modulus_scale = max(1.0, scheme.ciphertext_modulus_bits / 60.0)
    proofs_per_device = max(1, _ceil_div(packed * modulus_scale, chunk))
    rows: List[tuple] = []
    input_work = _work(
        he_encryptions=cts,
        ring_slots=scheme.slots,
        zkp_proofs=proofs_per_device,
        zkp_constraint_slots=min(float(packed), chunk),
        payload_bytes_sent=cts * scheme.ciphertext_bytes,
        payload_bytes_received=scheme.public_key_bytes
        + constants["certificate_bytes"]
        + audit_bytes,
        hash_bytes=audit_bytes,
        fixed_seconds=constants["sortition_signature_seconds"],
    )
    rows.append(
        vignette_row("input", Location.PARTICIPANT, scheme.name, input_work, instances=n)
    )

    verify_work = _work(
        zkp_verifications=n * proofs_per_device,
        hash_bytes=n * 64.0,
    )
    rows.append(vignette_row("verify", Location.AGGREGATOR, "clear", verify_work))

    broadcast_work = _work(
        payload_bytes_sent=n
        * (
            scheme.public_key_bytes
            + constants["certificate_bytes"]
            + audit_bytes
        )
    )
    rows.append(vignette_row("forwarding", Location.AGGREGATOR, "clear", broadcast_work))
    return rows


def _emit_pipeline_op(
    rows: List[tuple],
    state: _BuildState,
    op: LogicalOp,
    choice: Choice,
    n: int,
) -> None:
    """Emit one pipeline op's rows, advancing the build state."""
    if isinstance(op, EncryptInput):
        state.encrypted = True
    elif isinstance(op, Aggregate):
        _emit_aggregate(rows, state, choice, n, state.cts_per_participant)
    elif isinstance(op, VectorTransform):
        _emit_transform(rows, state, choice, op)
    elif isinstance(op, SelectMax):
        _emit_select_max(rows, state, choice, op)
    elif isinstance(op, NoiseOutput):
        _emit_noise_output(rows, state, choice, op)
    elif isinstance(op, Postprocess):
        rows.append(
            vignette_row(
                "postprocess",
                Location.AGGREGATOR,
                "clear",
                _work(fixed_seconds=op.scalar_ops * 1e-8),
            )
        )
    elif isinstance(op, Output):
        rows.append(
            vignette_row(
                "publish",
                Location.AGGREGATOR,
                "clear",
                _work(payload_bytes_sent=4096.0),
            )
        )


def _keygen_bucket(dec_groups: int) -> int:
    """What the keygen row reads of the decryption-group count: whether the
    plan has more than one decryption group."""
    return 1 if dec_groups <= 1 else 2


def _keygen_row(scheme: SchemeParams, bucket: int) -> tuple:
    """The key-generation row (§5.2) for a :func:`_keygen_bucket`.

    One keygen committee generates the keypair and starts the VSR tree
    that carries key shares to every decryption-capable committee: to one
    decryption group, or through a binary tree to several.
    """
    key_elems = scheme.secret_key_elements
    keygen_work = _work(
        dist_keygens=1.0,
        mpc_setup=1.0,
        mpc_rounds=20.0,
        # An int for one group, a float for several: plan documents print
        # the product as they always have.
        vsr_elements_sent=key_elems * (1 if bucket == 1 else 2.0),
        ring_slots=scheme.slots,
    )
    return vignette_row(
        "keygen",
        Location.COMMITTEE,
        "mpc",
        keygen_work,
        instances=1.0,
        committee_group="keygen",
        committee_type="keygen",
    )


def instantiate(
    plan: LogicalPlan,
    choices: Sequence[Choice],
    model: CostModel,
    partial: bool = False,
) -> Tuple[List[Vignette], SchemeParams]:
    """Build the vignette sequence for one (possibly partial) assignment.

    With ``partial=True``, only the ops covered by ``choices`` are emitted
    (plus the always-present input/verify/broadcast base), yielding a
    monotone lower bound used by branch-and-bound.
    """
    ops = plan.ops[: len(choices)] if partial else plan.ops
    if not partial and len(choices) != len(plan.ops):
        raise ExpansionError("need one choice per logical op")

    env = plan.env
    n = env.num_participants

    # Scheme selection (§4.5): decide from the full assignment when
    # available; partial prefixes assume AHE unless already forced.
    scheme, packed, cts = scheme_params(env.row_width, *fold_scheme_inputs(ops, choices))

    state = _BuildState(scheme=scheme, cts_per_participant=cts)
    rows = _base_rows(scheme, packed, cts, n, model.constants)

    for op, choice in zip(ops, choices):
        _emit_pipeline_op(rows, state, op, choice, n)

    rows.insert(1, _keygen_row(scheme, _keygen_bucket(state.dec_groups)))
    return [Vignette(*row) for row in rows], scheme


# ------------------------------------------------------------- op emitters


def _emit_aggregate(
    rows: List[tuple],
    state: _BuildState,
    choice: Choice,
    n: int,
    cts: int,
) -> None:
    scheme = state.scheme
    if choice.option == "flat_aggregator":
        work = _work(he_additions=float(n) * cts, ring_slots=scheme.slots)
        rows.append(vignette_row("aggregate", Location.AGGREGATOR, scheme.name, work))
        return
    fanout = choice.params[0]
    nodes = max(1.0, n / max(fanout - 1, 1))
    node_work = _work(
        he_additions=float(fanout) * cts,
        ring_slots=scheme.slots,
        payload_bytes_sent=cts * scheme.ciphertext_bytes,
        payload_bytes_received=float(fanout) * cts * scheme.ciphertext_bytes,
    )
    if choice.option == "participant_tree":
        rows.append(
            vignette_row(
                "aggregate-tree",
                Location.PARTICIPANT,
                scheme.name,
                node_work,
                instances=nodes,
            )
        )
    elif choice.option == "committee_tree":
        group = state.new_group("aggtree")
        rows.append(
            vignette_row(
                "aggregate-tree",
                Location.COMMITTEE,
                scheme.name,
                node_work,
                instances=nodes,
                committee_group=group,
                committee_type="operations",
            )
        )
    else:
        raise ExpansionError(f"unknown aggregate option {choice.option}")


def _emit_decryption_layer(
    rows: List[tuple],
    state: _BuildState,
    length: int,
    dec_batch: int,
) -> None:
    """Threshold-decrypt the encrypted aggregate into MPC sharings.

    Each decryption committee receives the relevant ciphertext(s) plus key
    shares via the VSR tree, jointly decrypts its slot range into shares,
    and forwards them (again via VSR) to the consuming committees.
    """
    if not state.encrypted:
        return
    scheme = state.scheme
    committees = max(1, _ceil_div(length, dec_batch))
    per_committee = min(dec_batch, length)
    cts_touched = max(1, _ceil_div(per_committee, scheme.slots))
    key_elems = scheme.secret_key_elements
    work = _work(
        mpc_setup=1.0,
        dist_decryptions=float(cts_touched),
        ring_slots=scheme.slots,
        mpc_rounds=4.0,
        vsr_elements_received=float(key_elems),
        vsr_elements_sent=2.0 * key_elems + per_committee,
        payload_bytes_received=cts_touched * scheme.ciphertext_bytes,
    )
    group = state.new_group("dec")
    rows.append(
        vignette_row(
            "decrypt",
            Location.COMMITTEE,
            "mpc",
            work,
            instances=float(committees),
            committee_group=group,
            committee_type="decryption",
        )
    )
    state.dec_groups += committees
    state.encrypted = False
    state.shared = True


def _emit_transform(
    rows: List[tuple],
    state: _BuildState,
    choice: Choice,
    op: VectorTransform,
) -> None:
    scheme = state.scheme
    length = max(op.length, 1)
    cts_touched = max(1, _ceil_div(length, scheme.slots))
    per_element_linear = op.linear_ops / length
    per_element_nonlinear = op.nonlinear_ops / length
    if choice.option in ("aggregator_ahe", "aggregator_fhe"):
        if state.shared:
            raise ExpansionError(
                "data already secret-shared; aggregator HE stage is illegal"
            )
        # Ops-per-element times the number of ciphertexts the vector spans.
        work = _work(
            he_additions=per_element_linear * cts_touched,
            he_comparisons=per_element_nonlinear * cts_touched,
            ring_slots=scheme.slots,
        )
        crypto = "fhe" if choice.option == "aggregator_fhe" else "ahe"
        rows.append(vignette_row("transform", Location.AGGREGATOR, crypto, work))
        return
    if choice.option == "aggregator_tfhe":
        _emit_tfhe_transform(rows, state, choice, op)
        return
    if choice.option == "committee_mpc_fused":
        # Defer: the following SelectMax's noising committees absorb the
        # transform's per-element work (§4.4's fusion exception).
        state.fused_transform = (
            choice.params[0],
            per_element_nonlinear,
            per_element_linear,
        )
        return
    if choice.option == "committee_mpc":
        batch = choice.params[0]
        _emit_decryption_layer(rows, state, length, max(batch * 8, 512))
        committees = max(1, _ceil_div(length, batch))
        per_committee = min(batch, length)
        work = _work(
            mpc_setup=1.0,
            mpc_comparisons=per_element_nonlinear * per_committee,
            mpc_triples=per_element_linear * per_committee * 0.05,
            mpc_rounds=4.0,
            vsr_elements_received=float(per_committee),
            vsr_elements_sent=float(per_committee),
        )
        group = state.new_group("transform")
        rows.append(
            vignette_row(
                "transform",
                Location.COMMITTEE,
                "mpc",
                work,
                instances=float(committees),
                committee_group=group,
                committee_type="operations",
            )
        )
        return
    raise ExpansionError(f"unknown transform option {choice.option}")


def _emit_tfhe_transform(
    rows: List[tuple],
    state: _BuildState,
    choice: Choice,
    op: VectorTransform,
) -> None:
    """Scheme-switched transform: AHE aggregate -> TFHE bits -> circuit.

    A decryption committee opens the aggregate into its quorum and
    re-encrypts each value bitwise under TFHE; the aggregator evaluates
    the boolean circuit (comparisons are cheap per TFHE gate but every
    gate bootstraps); a second committee decrypts the results straight
    into MPC sharings for whatever follows.
    """
    if state.shared:
        raise ExpansionError("TFHE stage needs ciphertexts, not shares")
    bits = choice.params[0]
    scheme = state.scheme
    length = max(op.length, 1)
    cts_touched = max(1, _ceil_div(length, scheme.slots))

    switch_work = _work(
        mpc_setup=1.0,
        dist_decryptions=float(cts_touched),
        ring_slots=scheme.slots,
        tfhe_encryptions=float(length * bits),
        mpc_rounds=4.0,
        vsr_elements_received=float(scheme.secret_key_elements),
        vsr_elements_sent=2.0 * scheme.secret_key_elements,
        payload_bytes_sent=length * bits * TFHE_CIPHERTEXT_BYTES,
        payload_bytes_received=cts_touched * scheme.ciphertext_bytes,
    )
    switch_group = state.new_group("tfhe-switch")
    rows.append(
        vignette_row(
            "scheme-switch",
            Location.COMMITTEE,
            "mpc",
            switch_work,
            instances=1.0,
            committee_group=switch_group,
            committee_type="decryption",
        )
    )
    state.dec_groups += 1

    per_element = (
        op.nonlinear_ops / length * comparison_gate_count(bits)
        + op.linear_ops / length * addition_gate_count(bits)
    )
    circuit_work = _work(
        tfhe_gates=per_element * length,
        payload_bytes_received=length * bits * TFHE_CIPHERTEXT_BYTES,
    )
    rows.append(
        vignette_row("transform", Location.AGGREGATOR, "tfhe", circuit_work)
    )

    # Convert the TFHE results into MPC sharings for the next stage.
    convert_work = _work(
        mpc_setup=1.0,
        tfhe_encryptions=float(length * bits),  # decrypt ~ encrypt cost
        mpc_inputs=float(length),
        mpc_rounds=2.0,
        vsr_elements_sent=float(length),
        payload_bytes_received=length * bits * TFHE_CIPHERTEXT_BYTES,
    )
    convert_group = state.new_group("tfhe-convert")
    rows.append(
        vignette_row(
            "scheme-convert",
            Location.COMMITTEE,
            "mpc",
            convert_work,
            instances=1.0,
            committee_group=convert_group,
            committee_type="decryption",
        )
    )
    state.encrypted = False
    state.shared = True


def _emit_select_max(
    rows: List[tuple],
    state: _BuildState,
    choice: Choice,
    op: SelectMax,
) -> None:
    scheme = state.scheme
    c = max(op.categories, 1)
    cts_c = max(1, _ceil_div(c, scheme.slots))
    if choice.option == "expo_fhe":
        if state.shared:
            raise ExpansionError("expo instantiation needs ciphertexts, not shares")
        if state.fused_transform is not None:
            raise ExpansionError(
                "a fused MPC transform cannot feed the FHE instantiation"
            )
        log_slots = max(1, scheme.ring_log2)
        rounds = op.k
        # Exponentiate every score, build the prefix-sum (rotate-and-add),
        # compare all slots against the random threshold (SIMD), then
        # isolate the selected index with a log-depth masking chain.
        work = _work(
            he_exponentiations=float(cts_c) * rounds,
            he_rotations=float(cts_c * log_slots) * rounds,
            he_additions=float(cts_c * log_slots) * rounds,
            he_comparisons=float(cts_c * (2 + log_slots)) * rounds,
            he_ct_mults=float(cts_c * log_slots) * rounds,
            ring_slots=scheme.slots,
        )
        rows.append(vignette_row("em-expo", Location.AGGREGATOR, "fhe", work))
        # A single committee decrypts the selected index (and optionally the
        # gap / max value).
        dec_work = _work(
            mpc_setup=1.0,
            dist_decryptions=float(rounds),
            ring_slots=scheme.slots,
            mpc_rounds=4.0 * rounds,
            vsr_elements_received=float(scheme.secret_key_elements),
            vsr_elements_sent=2.0 * scheme.secret_key_elements,
            payload_bytes_received=float(rounds) * scheme.ciphertext_bytes,
        )
        group = state.new_group("dec")
        rows.append(
            vignette_row(
                "em-decrypt",
                Location.COMMITTEE,
                "mpc",
                dec_work,
                instances=1.0,
                committee_group=group,
                committee_type="decryption",
            )
        )
        state.dec_groups += 1
        state.encrypted = False
        return
    if choice.option != "gumbel_mpc":
        raise ExpansionError(f"unknown select_max option {choice.option}")

    style_index, dec_batch, noise_batch, fanout = choice.params
    iterative = style_index == 1 and op.k > 1
    noise_rounds = op.k if iterative else 1
    select_rounds = op.k

    _emit_decryption_layer(rows, state, c, dec_batch)

    # Noising committees: each adds Gumbel noise to a batch of scores (Fig 5).
    if state.fused_transform is not None:
        # A fused transform rides along: the noising committees compute the
        # transform's per-element ops on their batch before noising it.
        fused_batch, fused_nonlinear, fused_linear = state.fused_transform
        noise_batch = min(noise_batch, fused_batch)
        state.fused_transform = None
    else:
        fused_nonlinear = fused_linear = 0.0
    noise_committees = max(1, _ceil_div(c, noise_batch))
    per_committee = min(noise_batch, c)
    noise_work = _work(
        mpc_setup=1.0,
        mpc_noise_samples=float(per_committee),
        mpc_comparisons=fused_nonlinear * per_committee,
        mpc_triples=fused_linear * per_committee * 0.05,
        mpc_rounds=2.0,
        vsr_elements_received=float(per_committee),
        vsr_elements_sent=float(per_committee),
    )
    for r in range(noise_rounds):
        group = state.new_group(f"noise-r{r}")
        rows.append(
            vignette_row(
                "em-noise",
                Location.COMMITTEE,
                "mpc",
                noise_work,
                instances=float(noise_committees),
                committee_group=group,
                committee_type="operations",
            )
        )

    # The argmax tree, repeated k times for top-k selection.
    levels = _argmax_levels(c, fanout)
    for r in range(select_rounds):
        for level, (committees, work) in enumerate(levels):
            group = state.new_group(f"argmax-r{r}-l{level}")
            rows.append(
                vignette_row(
                    "em-argmax",
                    Location.COMMITTEE,
                    "mpc",
                    work,
                    instances=float(committees),
                    committee_group=group,
                    committee_type="operations",
                )
            )
    state.shared = True


def _emit_noise_output(
    rows: List[tuple],
    state: _BuildState,
    choice: Choice,
    op: NoiseOutput,
) -> None:
    batch = choice.params[0]
    count = max(op.count, 1)
    _emit_decryption_layer(rows, state, count, max(batch * 8, 512))
    committees = max(1, _ceil_div(count, batch))
    per_committee = min(batch, count)
    work = _work(
        mpc_setup=1.0,
        mpc_noise_samples=float(per_committee),
        mpc_rounds=3.0,
        vsr_elements_received=float(per_committee),
        payload_bytes_sent=64.0 * per_committee,
    )
    group = state.new_group("laplace")
    rows.append(
        vignette_row(
            "noise-output",
            Location.COMMITTEE,
            "mpc",
            work,
            instances=float(committees),
            committee_group=group,
            committee_type="operations",
        )
    )


# --------------------------------------------------------------------------
# Incremental prefix expansion (branch-and-bound fast path)
# --------------------------------------------------------------------------


#: The bound's relative shrink: float sums added in another order than the
#: child's fold differ by a few ulps, which this covers many times over.
_BOUND_SHRINK = 1.0 - 1e-12

#: A root's emission-key state ``(encrypted, shared, group_counter, fused)``.
_ENTRY_STATE = (False, False, 0, None)


class _SchemeRoot:
    """What every node under one ``(bins, use_fhe)`` shares: the scheme and
    ciphertexts per upload they give, the base rows and their score stubs,
    and the keygen row of each :func:`_keygen_bucket` (at index
    ``bucket - 1``)."""

    __slots__ = ("bins", "use_fhe", "scheme", "cts", "rows", "stubs", "keygen_rows")

    def __init__(self, bins: int, use_fhe: bool, row_width: int, n: int, constants: dict):
        self.bins = bins
        self.use_fhe = use_fhe
        scheme, packed, cts = scheme_params(row_width, bins, use_fhe)
        self.scheme = scheme
        self.cts = cts
        self.rows = tuple(_base_rows(scheme, packed, cts, n, constants))
        self.stubs = tuple(score_stub(row) for row in self.rows)
        self.keygen_rows = (_keygen_row(scheme, 1), _keygen_row(scheme, 2))


class _Emission:
    """One cached emission of an (op, choice, entry state).

    The choice, the segment's rows and their score stubs, the emission-key
    state the op hands its child, the decryption groups it adds (emitters
    only add them), the segment's committee groups with their instance
    counts, and its floor bound terms. Nothing here is a vignette: a plan
    builds its own from the rows of its chain.
    """

    __slots__ = ("choice", "rows", "stubs", "state", "dec_delta", "groups", "floor")

    def __init__(self, choice: Choice, rows, stubs, state: _BuildState, floor):
        self.choice = choice
        self.rows = rows
        self.stubs = stubs
        self.state = (state.encrypted, state.shared, state.group_counter, state.fused_transform)
        self.dec_delta = state.dec_groups
        self.groups = tuple(
            (stub[3], stub[2]) for stub in stubs if stub[0] == 2  # committee
        )
        self.floor = floor


class ExpansionNode:
    """One search node: its ``parent`` and the ``emitted`` segment that
    extended it (a root has neither, only its :class:`_SchemeRoot`).

    The chain back to the root holds every choice and row of the prefix.
    Beyond it a node keeps what its children read: the emission-key
    ``state`` its emission handed it, the running decryption-group count and
    committee groups, the committee parameters they give, the prefix's fold
    with the keygen stub of its :func:`_keygen_bucket` at index 1, where
    :func:`instantiate` inserts the keygen row, and that fold's re-folds at
    other (m, bucket) and bound terms, both memoized.
    """

    __slots__ = (
        "depth",
        "root",
        "state",
        "dec_groups",
        "count_groups",
        "params",
        "accum",
        "parent",
        "emitted",
        "_cost",
        "refolds",
        "terms",
    )

    def __init__(
        self, depth, root, state, dec_groups, count_groups, params, accum,
        parent=None, emitted=None,
    ):
        self.depth = depth
        self.root = root
        self.state = state
        self.dec_groups = dec_groups
        self.count_groups = count_groups
        self.params = params
        self.accum = accum
        self.parent = parent
        self.emitted = emitted
        self._cost = None
        self.refolds = None
        self.terms = None

    @property
    def cost(self):
        cost = self._cost
        if cost is None:
            cost = self._cost = self.accum.cost()
        return cost

    def chain(self) -> List[_Emission]:
        """The prefix's emissions, in op order."""
        chain = []
        node = self
        while node.emitted is not None:
            chain.append(node.emitted)
            node = node.parent
        chain.reverse()
        return chain


class PrefixExpander:
    """The search's evaluator: resumable instantiation, one op at a time.

    Produces bit-identical vignettes and scores to running
    :func:`instantiate` + :func:`score_vignettes` on the full prefix,
    but with O(1) amortized work per node:

    * per-(op, choice, entry-state) emissions are cached — the entry state
      is the node's scheme root and its ``(encrypted, shared,
      group_counter, fused)`` tuple, the only fields emitters read (group
      names embed ``group_counter``) — as rows and their score stubs;
    * :meth:`child` prices a child from its parent's totals and its
      emission's, and builds only a child that bound keeps;
    * the running :class:`ScoreAccumulator` is extended by the new
      segment's stubs only; when the committee size m or the keygen-work
      bucket changes, the full sequence is re-folded from the stored stubs;
    * the two scheme-selection inputs (``bins``, ``use_fhe``) are monotone
      along a prefix, so a choice that flips them rebuilds the prefix
      once from a cached per-scheme root by replaying the recorded
      choices (each replay step usually hits the emission cache);
    * no node holds a vignette: :meth:`leaf` builds a plan's vignettes from
      its chain's rows, for that one plan.

    Expansion failures are cached too: an illegal (op, choice, state)
    combination raises the same :class:`ExpansionError` on every repeat.
    """

    def __init__(
        self,
        plan: LogicalPlan,
        model: CostModel,
        device: DeviceProfile = REFERENCE_SERVER,
    ):
        self.plan = plan
        self.model = model
        self.device = device
        self.n = plan.env.num_participants
        self.ops = plan.ops
        self._roots = {}
        self._segments = {}
        # The bound prices segments at the smallest m (one committee).
        self._floor_m = CommitteeParameters.for_plan(1).committee_size
        self.cache_hits = 0
        self.cache_misses = 0

    # ------------------------------------------------------------- roots

    def root(self) -> ExpansionNode:
        return self._root(1, False)

    def _root(self, bins: int, use_fhe: bool) -> ExpansionNode:
        node = self._roots.get((bins, use_fhe))
        if node is None:
            root = _SchemeRoot(bins, use_fhe, self.plan.env.row_width, self.n, self.model.constants)
            params = CommitteeParameters.for_plan(1)
            accum = self._root_fold(root, params.committee_size, 1)
            node = ExpansionNode(0, root, _ENTRY_STATE, 0, {"keygen": 1.0}, params, accum)
            self._roots[(bins, use_fhe)] = node
        return node

    def _root_fold(self, root: _SchemeRoot, m: int, bucket: int) -> ScoreAccumulator:
        """The base rows' fold at committee size ``m``, with the ``bucket``
        keygen row at index 1."""
        fold = ScoreAccumulator(self.n, self.model, self.device, m)
        fold.add(root.stubs[0])
        fold.add(score_stub(root.keygen_rows[bucket - 1]))
        for stub in root.stubs[1:]:
            fold.add(stub)
        return fold

    # --------------------------------------------------------- extension

    def child(self, node: ExpansionNode, choice: Choice, pruned=None) -> Optional[ExpansionNode]:
        """The child for ``choice`` at ``node``'s next op, or ``None`` when
        ``pruned(bound)`` discards it unbuilt.

        ``bound`` is a cost no larger, on any metric, than the child's:
        additive metrics are the parent's totals plus the segment's; a max
        metric is both always-on costs plus the larger of the two largest
        group costs. The parent is priced at its own (m, keygen bucket) and
        the segment at the smallest m, neither above the child's, and costs
        do not fall as either grows (``tests/test_search_bound.py``). A
        scheme flip is built unpriced: every prior vignette changes
        (ciphertext sizes, slot counts), so the prefix is replayed from the
        cached root of the new scheme.

        Raises :class:`ExpansionError` if the choice is structurally illegal
        in the node's state (same condition as ``instantiate`` on the full
        prefix).
        """
        root = node.root
        inputs = scheme_inputs(self.ops[node.depth], choice, root.bins, root.use_fhe)
        if inputs != (root.bins, root.use_fhe):
            replacement = self._root(*inputs)
            for emitted in node.chain():
                replacement = self._extend(replacement, self._emission(replacement, emitted.choice))
            return self._extend(replacement, self._emission(replacement, choice))
        emitted = self._emission(node, choice)
        if pruned is not None:
            p = node.terms
            if p is None:
                p = node.terms = node.accum.bound_terms()
            s = emitted.floor
            if pruned(CostVector(
                (p[0] + s[0]) * _BOUND_SHRINK,
                (p[1] + s[1]) * _BOUND_SHRINK,
                (p[2] + s[2]) * _BOUND_SHRINK,
                (p[3] + s[3]) * _BOUND_SHRINK,
                (p[4] + s[4] + max(p[6], s[6])) * _BOUND_SHRINK,
                (p[5] + s[5] + max(p[7], s[7])) * _BOUND_SHRINK,
            )):
                return None
        return self._extend(node, emitted)

    # The naive walk builds every child; structural failures surface here,
    # and the search accounts for the skipped subtree's leaves.
    naive_extend = child

    def _emission(self, node: ExpansionNode, choice: Choice) -> _Emission:
        """The cached emission of ``choice`` from ``node``'s build state."""
        key = (node.depth, choice, node.root, node.state)
        entry = self._segments.get(key)
        if entry is None:
            self.cache_misses += 1
            encrypted, shared, group_counter, fused = node.state
            state = _BuildState(
                node.root.scheme, node.root.cts, encrypted, shared, 0, group_counter, fused
            )
            rows: List[tuple] = []
            try:
                _emit_pipeline_op(rows, state, self.ops[node.depth], choice, self.n)
            except ExpansionError as exc:
                # The arguments, not the exception: a cached exception's
                # traceback grows with every re-raise and ties the frames,
                # this expander and the search nodes into a cycle.
                self._segments[key] = (None, exc.args)
                raise
            # Priced from the rows alone: the bound adds the segment's totals
            # at the smallest m, and most children stop there.
            stubs = tuple(score_stub(row) for row in rows)
            floor = ScoreAccumulator(self.n, self.model, self.device, self._floor_m)
            for stub in stubs:
                floor.add(stub)
            entry = (_Emission(choice, rows, stubs, state, floor.bound_terms()), None)
            self._segments[key] = entry
        else:
            self.cache_hits += 1
            if entry[1] is not None:
                raise ExpansionError(*entry[1])
        return entry[0]

    def _extend(self, node: ExpansionNode, emitted: _Emission) -> ExpansionNode:
        dec_groups = node.dec_groups + emitted.dec_delta
        count_groups = node.count_groups
        if emitted.groups:
            count_groups = dict(count_groups)
            for group, instances in emitted.groups:
                if instances > count_groups.get(group, 0.0):
                    count_groups[group] = instances
        # Mirrors count_committees + CommitteeParameters.for_plan on the
        # child's full vignette list (keygen included via the root).
        params = CommitteeParameters.for_plan(sum(count_groups.values()))
        accum = self._node_fold(node, params.committee_size, _keygen_bucket(dec_groups))
        accum = accum.extended(emitted.stubs)
        return ExpansionNode(
            node.depth + 1, node.root, emitted.state, dec_groups, count_groups,
            params, accum, node, emitted,
        )

    def _node_fold(self, node: ExpansionNode, m: int, bucket: int) -> ScoreAccumulator:
        """``node``'s full prefix fold at committee size ``m`` with the
        ``bucket`` keygen row at index 1.

        When (m, bucket) match the node's own accumulator this is free;
        otherwise the fold is built from the parent's fold at the same
        (m, bucket) plus the node's segment — so a committee-size change
        costs one segment fold per ancestor on first use, and the results
        are memoized per node for every sibling and descendant after that.
        Fold order is exactly score_vignettes order at every step, which
        keeps the float sums bit-identical to a from-scratch fold.
        """
        accum = node.accum
        if m == accum.m and bucket == _keygen_bucket(node.dec_groups):
            return accum
        refolds = node.refolds
        if refolds is not None:
            cached = refolds.get((m, bucket))
            if cached is not None:
                return cached
        if node.parent is None:
            fold = self._root_fold(node.root, m, bucket)
        else:
            fold = self._node_fold(node.parent, m, bucket).extended(node.emitted.stubs)
        if refolds is None:
            refolds = node.refolds = {}
        refolds[(m, bucket)] = fold
        return fold

    # -------------------------------------------------------------- leaves

    def leaf(self, node: ExpansionNode):
        """``(cost, make_plan)`` for a complete prefix.

        The node's accumulator already folded every vignette, so the score
        costs nothing more; ``make_plan`` builds the plan's vignettes from
        its chain's rows, byte for byte what :func:`instantiate` builds for
        the chain's choices (``[e.choice for e in node.chain()]``).
        """
        score = node.accum.finish(node.params)

        def make_plan() -> Plan:
            root = node.root
            chain = node.chain()
            keygen = root.keygen_rows[_keygen_bucket(node.dec_groups) - 1]
            rows = [root.rows[0], keygen, *root.rows[1:]]
            for emitted in chain:
                rows.extend(emitted.rows)
            choices = [emitted.choice for emitted in chain]
            return Plan(
                query_name=self.plan.query_name,
                choices={c.key: c.label() for c in choices},
                vignettes=[Vignette(*row) for row in rows],
                scheme=root.scheme,
                score=score,
                choice_list=choices,
            )

        return score.cost, make_plan
