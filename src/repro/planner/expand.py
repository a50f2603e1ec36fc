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

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .committees import CommitteeParameters
from .costmodel import (
    CostModel,
    DeviceProfile,
    REFERENCE_SERVER,
    SchemeParams,
    Work,
    ahe_params_for,
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
from .plan import Location, ScoreAccumulator, Vignette

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


def space_size(plan: LogicalPlan) -> int:
    total = 1
    for _op, options in choice_space(plan):
        total *= len(options)
    return total


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


def _needs_fhe(ops: Sequence[LogicalOp], choices: Sequence[Choice]) -> bool:
    """§4.5 cryptosystem rule: FHE iff a homomorphic stage needs more than
    additions; everything handled in MPC can stay under AHE."""
    for op, choice in zip(ops, choices):
        if isinstance(op, VectorTransform) and choice.option == "aggregator_fhe":
            return True
        if isinstance(op, SelectMax) and choice.option == "expo_fhe":
            return True
        if isinstance(op, VectorTransform) and choice.option == "aggregator_ahe":
            continue
    return False


def _ceil_div(a: float, b: float) -> int:
    return int(math.ceil(a / b)) if b else 0


def _scheme_for_prefix(
    row_width: int, ops: Sequence[LogicalOp], choices: Sequence[Choice]
) -> Tuple[int, bool, SchemeParams, int, int]:
    """Scheme selection (§4.5) for a (possibly partial) choice prefix.

    Returns (bins, use_fhe, scheme, packed, cts). Both inputs are monotone
    along a prefix: ``bins`` is fixed by the EncryptInput choice and
    ``use_fhe`` only ever flips from False to True.
    """
    bins = 1
    for op, choice in zip(ops, choices):
        if isinstance(op, EncryptInput) and choice.option == "binned_upload":
            bins = choice.params[0]
    packed = max(row_width, 1) * bins
    use_fhe = _needs_fhe(ops, choices)
    scheme = fhe_params_for(packed, depth=6) if use_fhe else ahe_params_for(packed)
    cts = max(1, _ceil_div(packed, scheme.slots))
    return bins, use_fhe, scheme, packed, cts


def _base_vignettes(
    scheme: SchemeParams, packed: int, cts: int, n: int, constants: dict
) -> List[Vignette]:
    """The always-present input/verify/broadcast base vignettes."""
    audit_leaves = constants["audit_leaves_per_device"]
    audit_bytes = audit_leaves * (scheme.ciphertext_bytes + constants["merkle_path_bytes"])
    # One Groth16 proof covers one circuit chunk. The R1CS encodes the
    # ciphertext arithmetic, so the statement size scales with both the
    # packed width and the ciphertext-modulus size (FHE uploads carry much
    # bigger coefficients than depth-0 AHE ones).
    chunk = constants["zkp_chunk_slots"]
    modulus_scale = max(1.0, scheme.ciphertext_modulus_bits / 60.0)
    proofs_per_device = max(1, _ceil_div(packed * modulus_scale, chunk))
    vignettes: List[Vignette] = []
    input_work = Work(
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
    vignettes.append(
        Vignette("input", Location.PARTICIPANT, scheme.name, input_work, instances=n)
    )

    verify_work = Work(
        zkp_verifications=n * proofs_per_device,
        hash_bytes=n * 64.0,
    )
    vignettes.append(Vignette("verify", Location.AGGREGATOR, "clear", verify_work))

    broadcast_work = Work(
        payload_bytes_sent=n
        * (
            scheme.public_key_bytes
            + constants["certificate_bytes"]
            + audit_bytes
        )
    )
    vignettes.append(Vignette("forwarding", Location.AGGREGATOR, "clear", broadcast_work))
    return vignettes


def _emit_pipeline_op(
    vignettes: List[Vignette],
    state: _BuildState,
    op: LogicalOp,
    choice: Choice,
    n: int,
) -> None:
    """Emit one pipeline op's vignettes, advancing the build state."""
    if isinstance(op, EncryptInput):
        state.encrypted = True
    elif isinstance(op, Aggregate):
        _emit_aggregate(vignettes, state, choice, n, state.cts_per_participant)
    elif isinstance(op, VectorTransform):
        _emit_transform(vignettes, state, choice, op)
    elif isinstance(op, SelectMax):
        _emit_select_max(vignettes, state, choice, op)
    elif isinstance(op, NoiseOutput):
        _emit_noise_output(vignettes, state, choice, op)
    elif isinstance(op, Postprocess):
        vignettes.append(
            Vignette(
                "postprocess",
                Location.AGGREGATOR,
                "clear",
                Work(fixed_seconds=op.scalar_ops * 1e-8),
            )
        )
    elif isinstance(op, Output):
        vignettes.append(
            Vignette(
                "publish",
                Location.AGGREGATOR,
                "clear",
                Work(payload_bytes_sent=4096.0),
            )
        )


def _keygen_vignette(scheme: SchemeParams, dec_groups) -> Vignette:
    """The key-generation vignette (§5.2).

    One keygen committee generates the keypair and starts the VSR tree
    that carries key shares to every decryption-capable committee. The
    work depends on ``dec_groups`` only through the binary-tree multiplier
    ``min(2, max(dec_groups, 1))`` — i.e. only on whether the plan has
    more than one decryption group.
    """
    key_elems = scheme.secret_key_elements
    keygen_work = Work(
        dist_keygens=1.0,
        mpc_setup=1.0,
        mpc_rounds=20.0,
        vsr_elements_sent=key_elems * min(2.0, max(dec_groups, 1.0)),
        ring_slots=scheme.slots,
    )
    return Vignette(
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
    _bins, _use_fhe, scheme, packed, cts = _scheme_for_prefix(
        env.row_width, ops, choices
    )

    state = _BuildState(scheme=scheme, cts_per_participant=cts)
    vignettes = _base_vignettes(scheme, packed, cts, n, model.constants)

    for op, choice in zip(ops, choices):
        _emit_pipeline_op(vignettes, state, op, choice, n)

    vignettes.insert(1, _keygen_vignette(scheme, state.dec_groups))
    return vignettes, scheme


# ------------------------------------------------------------- op emitters


def _emit_aggregate(
    vignettes: List[Vignette],
    state: _BuildState,
    choice: Choice,
    n: int,
    cts: int,
) -> None:
    scheme = state.scheme
    if choice.option == "flat_aggregator":
        work = Work(he_additions=float(n) * cts, ring_slots=scheme.slots)
        vignettes.append(Vignette("aggregate", Location.AGGREGATOR, scheme.name, work))
        return
    fanout = choice.params[0]
    nodes = max(1.0, n / max(fanout - 1, 1))
    node_work = Work(
        he_additions=float(fanout) * cts,
        ring_slots=scheme.slots,
        payload_bytes_sent=cts * scheme.ciphertext_bytes,
        payload_bytes_received=float(fanout) * cts * scheme.ciphertext_bytes,
    )
    if choice.option == "participant_tree":
        vignettes.append(
            Vignette(
                "aggregate-tree",
                Location.PARTICIPANT,
                scheme.name,
                node_work,
                instances=nodes,
            )
        )
    elif choice.option == "committee_tree":
        group = state.new_group("aggtree")
        vignettes.append(
            Vignette(
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
    vignettes: List[Vignette],
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
    work = Work(
        mpc_setup=1.0,
        dist_decryptions=float(cts_touched),
        ring_slots=scheme.slots,
        mpc_rounds=4.0,
        vsr_elements_received=float(key_elems),
        vsr_elements_sent=2.0 * key_elems + per_committee,
        payload_bytes_received=cts_touched * scheme.ciphertext_bytes,
    )
    group = state.new_group("dec")
    vignettes.append(
        Vignette(
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
    vignettes: List[Vignette],
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
        work = Work(
            he_additions=per_element_linear * cts_touched,
            he_comparisons=per_element_nonlinear * cts_touched,
            ring_slots=scheme.slots,
        )
        crypto = "fhe" if choice.option == "aggregator_fhe" else "ahe"
        vignettes.append(Vignette("transform", Location.AGGREGATOR, crypto, work))
        return
    if choice.option == "aggregator_tfhe":
        _emit_tfhe_transform(vignettes, state, choice, op)
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
        _emit_decryption_layer(vignettes, state, length, max(batch * 8, 512))
        committees = max(1, _ceil_div(length, batch))
        per_committee = min(batch, length)
        work = Work(
            mpc_setup=1.0,
            mpc_comparisons=per_element_nonlinear * per_committee,
            mpc_triples=per_element_linear * per_committee * 0.05,
            mpc_rounds=4.0,
            vsr_elements_received=float(per_committee),
            vsr_elements_sent=float(per_committee),
        )
        group = state.new_group("transform")
        vignettes.append(
            Vignette(
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
    vignettes: List[Vignette],
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
    from ..crypto.tfhe import addition_gate_count, comparison_gate_count

    if state.shared:
        raise ExpansionError("TFHE stage needs ciphertexts, not shares")
    bits = choice.params[0]
    scheme = state.scheme
    length = max(op.length, 1)
    cts_touched = max(1, _ceil_div(length, scheme.slots))
    tfhe_ct_bytes = 2520.0

    switch_work = Work(
        mpc_setup=1.0,
        dist_decryptions=float(cts_touched),
        ring_slots=scheme.slots,
        tfhe_encryptions=float(length * bits),
        mpc_rounds=4.0,
        vsr_elements_received=float(scheme.secret_key_elements),
        vsr_elements_sent=2.0 * scheme.secret_key_elements,
        payload_bytes_sent=length * bits * tfhe_ct_bytes,
        payload_bytes_received=cts_touched * scheme.ciphertext_bytes,
    )
    switch_group = state.new_group("tfhe-switch")
    vignettes.append(
        Vignette(
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
    circuit_work = Work(
        tfhe_gates=per_element * length,
        payload_bytes_received=length * bits * tfhe_ct_bytes,
    )
    vignettes.append(
        Vignette("transform", Location.AGGREGATOR, "tfhe", circuit_work)
    )

    # Convert the TFHE results into MPC sharings for the next stage.
    convert_work = Work(
        mpc_setup=1.0,
        tfhe_encryptions=float(length * bits),  # decrypt ~ encrypt cost
        mpc_inputs=float(length),
        mpc_rounds=2.0,
        vsr_elements_sent=float(length),
        payload_bytes_received=length * bits * tfhe_ct_bytes,
    )
    convert_group = state.new_group("tfhe-convert")
    vignettes.append(
        Vignette(
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
    vignettes: List[Vignette],
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
        work = Work(
            he_exponentiations=float(cts_c) * rounds,
            he_rotations=float(cts_c * log_slots) * rounds,
            he_additions=float(cts_c * log_slots) * rounds,
            he_comparisons=float(cts_c * (2 + log_slots)) * rounds,
            he_ct_mults=float(cts_c * log_slots) * rounds,
            ring_slots=scheme.slots,
        )
        vignettes.append(Vignette("em-expo", Location.AGGREGATOR, "fhe", work))
        # A single committee decrypts the selected index (and optionally the
        # gap / max value).
        dec_work = Work(
            mpc_setup=1.0,
            dist_decryptions=float(rounds),
            ring_slots=scheme.slots,
            mpc_rounds=4.0 * rounds,
            vsr_elements_received=float(scheme.secret_key_elements),
            vsr_elements_sent=2.0 * scheme.secret_key_elements,
            payload_bytes_received=float(rounds) * scheme.ciphertext_bytes,
        )
        group = state.new_group("dec")
        vignettes.append(
            Vignette(
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

    _emit_decryption_layer(vignettes, state, c, dec_batch)

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
    noise_work = Work(
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
        vignettes.append(
            Vignette(
                "em-noise",
                Location.COMMITTEE,
                "mpc",
                noise_work,
                instances=float(noise_committees),
                committee_group=group,
                committee_type="operations",
            )
        )

    # Argmax tree: each committee compares ``fanout`` noised scores and
    # passes the winner up; repeated k times for top-k selection.
    for r in range(select_rounds):
        remaining = c
        level = 0
        while remaining > 1:
            committees = max(1, _ceil_div(remaining, fanout))
            width = min(fanout, remaining)
            work = Work(
                mpc_setup=1.0,
                mpc_comparisons=float(width - 1) if width > 1 else 1.0,
                mpc_triples=2.0 * max(width - 1, 1),
                mpc_rounds=2.0,
                vsr_elements_received=float(width) * 2.0,
                vsr_elements_sent=2.0,
            )
            group = state.new_group(f"argmax-r{r}-l{level}")
            vignettes.append(
                Vignette(
                    "em-argmax",
                    Location.COMMITTEE,
                    "mpc",
                    work,
                    instances=float(committees),
                    committee_group=group,
                    committee_type="operations",
                )
            )
            remaining = committees
            level += 1
    state.shared = True


def _emit_noise_output(
    vignettes: List[Vignette],
    state: _BuildState,
    choice: Choice,
    op: NoiseOutput,
) -> None:
    batch = choice.params[0]
    count = max(op.count, 1)
    _emit_decryption_layer(vignettes, state, count, max(batch * 8, 512))
    committees = max(1, _ceil_div(count, batch))
    per_committee = min(batch, count)
    work = Work(
        mpc_setup=1.0,
        mpc_noise_samples=float(per_committee),
        mpc_rounds=3.0,
        vsr_elements_received=float(per_committee),
        payload_bytes_sent=64.0 * per_committee,
    )
    group = state.new_group("laplace")
    vignettes.append(
        Vignette(
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


class ExpansionNode:
    """One search node: a choice prefix plus everything needed to extend
    or score it without re-instantiating from scratch.

    ``vignettes`` holds the base + emitted pipeline vignettes *without*
    the keygen vignette (whose work depends on the still-growing number of
    decryption groups); scoring folds a per-bucket keygen in at index 1,
    exactly where :func:`instantiate` inserts it.
    """

    __slots__ = (
        "depth",
        "choices",
        "bins",
        "use_fhe",
        "scheme",
        "cts",
        "encrypted",
        "shared",
        "dec_groups",
        "group_counter",
        "fused",
        "vignettes",
        "count_groups",
        "params",
        "bucket",
        "accum",
        "parent",
        "segment",
        "_cost",
        "refolds",
    )

    def __init__(
        self,
        depth,
        choices,
        bins,
        use_fhe,
        scheme,
        cts,
        encrypted,
        shared,
        dec_groups,
        group_counter,
        fused,
        vignettes,
        count_groups,
        params,
        bucket,
        accum,
        parent=None,
        segment=None,
    ):
        self.depth = depth
        self.choices = choices
        self.bins = bins
        self.use_fhe = use_fhe
        self.scheme = scheme
        self.cts = cts
        self.encrypted = encrypted
        self.shared = shared
        self.dec_groups = dec_groups
        self.group_counter = group_counter
        self.fused = fused
        self.vignettes = vignettes
        self.count_groups = count_groups
        self.params = params
        self.bucket = bucket
        self.accum = accum
        self.parent = parent
        self.segment = segment
        self._cost = None
        self.refolds = None

    @property
    def cost(self):
        cost = self._cost
        if cost is None:
            cost = self._cost = self.accum.cost()
        return cost


class PrefixExpander:
    """Resumable instantiation: extend a parent node by one op's choice.

    Produces bit-identical vignettes and scores to running
    :func:`instantiate` + :func:`score_vignettes` on the full prefix,
    but with O(1) amortized work per node:

    * per-(op, choice, entry-state) emissions are cached — the entry state
      is ``(bins, use_fhe, encrypted, shared, group_counter, fused)``, the
      only fields emitters read (group names embed ``group_counter``);
    * the running :class:`ScoreAccumulator` is extended by the new
      segment only; when the committee size m or the keygen-work bucket
      changes, the full sequence is re-folded from the stored vignettes;
    * the two scheme-selection inputs (``bins``, ``use_fhe``) are monotone
      along a prefix, so a choice that flips them rebuilds the prefix
      once from a cached per-scheme root by replaying the recorded
      choices (each replay step usually hits the emission cache).

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
        self._keygens = {}
        self._segments = {}
        self.cache_hits = 0
        self.cache_misses = 0

    # ------------------------------------------------------------- roots

    def root(self) -> ExpansionNode:
        return self._root(1, False)

    def _root(self, bins: int, use_fhe: bool) -> ExpansionNode:
        node = self._roots.get((bins, use_fhe))
        if node is not None:
            return node
        packed = max(self.plan.env.row_width, 1) * bins
        scheme = (
            fhe_params_for(packed, depth=6) if use_fhe else ahe_params_for(packed)
        )
        cts = max(1, _ceil_div(packed, scheme.slots))
        base = _base_vignettes(scheme, packed, cts, self.n, self.model.constants)
        keygen = _keygen_vignette(scheme, 1)
        params = CommitteeParameters.for_plan(1)
        accum = ScoreAccumulator(
            self.n, self.model, self.device, params.committee_size
        )
        accum.add(base[0])
        accum.add(keygen)
        for v in base[1:]:
            accum.add(v)
        node = ExpansionNode(
            depth=0,
            choices=(),
            bins=bins,
            use_fhe=use_fhe,
            scheme=scheme,
            cts=cts,
            encrypted=False,
            shared=False,
            dec_groups=0,
            group_counter=0,
            fused=None,
            vignettes=tuple(base),
            count_groups={"keygen": 1.0},
            params=params,
            bucket=1,
            accum=accum,
        )
        self._roots[(bins, use_fhe)] = node
        self._keygens[(bins, use_fhe, 1)] = keygen
        return node

    def _keygen(self, bins: int, use_fhe: bool, bucket: int) -> Vignette:
        key = (bins, use_fhe, bucket)
        v = self._keygens.get(key)
        if v is None:
            scheme = self._root(bins, use_fhe).scheme
            v = self._keygens[key] = _keygen_vignette(scheme, bucket)
        return v

    # --------------------------------------------------------- extension

    def extend(self, node: ExpansionNode, choice: Choice) -> ExpansionNode:
        """The child node for ``choice`` at ``node``'s next op.

        Raises :class:`ExpansionError` if the choice is structurally
        illegal in the node's state (same condition as ``instantiate`` on
        the full prefix).
        """
        op = self.ops[node.depth]
        bins, use_fhe = node.bins, node.use_fhe
        if isinstance(op, EncryptInput):
            if choice.option == "binned_upload":
                bins = choice.params[0]
        elif isinstance(op, VectorTransform):
            if choice.option == "aggregator_fhe":
                use_fhe = True
        elif isinstance(op, SelectMax):
            if choice.option == "expo_fhe":
                use_fhe = True
        if bins != node.bins or use_fhe != node.use_fhe:
            # Scheme flip: every prior vignette changes (ciphertext sizes,
            # slot counts), so rebuild the prefix under the new scheme by
            # replaying the recorded choices from the cached new root.
            replacement = self._root(bins, use_fhe)
            for prior in node.choices:
                replacement = self._extend(replacement, prior)
            node = replacement
        return self._extend(node, choice)

    def _extend(self, node: ExpansionNode, choice: Choice) -> ExpansionNode:
        key = (
            node.depth,
            choice,
            node.bins,
            node.use_fhe,
            node.encrypted,
            node.shared,
            node.group_counter,
            node.fused,
        )
        entry = self._segments.get(key)
        if entry is None:
            self.cache_misses += 1
            state = _BuildState(
                scheme=node.scheme,
                cts_per_participant=node.cts,
                encrypted=node.encrypted,
                shared=node.shared,
                dec_groups=0,
                group_counter=node.group_counter,
                fused_transform=node.fused,
            )
            segment: List[Vignette] = []
            try:
                _emit_pipeline_op(segment, state, self.ops[node.depth], choice, self.n)
            except ExpansionError as exc:
                # The arguments, not the exception: a cached exception's
                # traceback grows with every re-raise and ties the frames,
                # this expander and the search nodes into a cycle.
                self._segments[key] = (None, exc.args)
                raise
            seg_groups = tuple(
                (v.committee_group, v.instances)
                for v in segment
                if v.location is Location.COMMITTEE
            )
            entry = (
                (
                    tuple(segment),
                    state.encrypted,
                    state.shared,
                    state.dec_groups,  # delta: emitters only increment it
                    state.group_counter,
                    state.fused_transform,
                    seg_groups,
                ),
                None,
            )
            self._segments[key] = entry
        else:
            self.cache_hits += 1
            if entry[1] is not None:
                raise ExpansionError(*entry[1])
        (
            segment,
            encrypted,
            shared,
            dec_delta,
            group_counter,
            fused,
            seg_groups,
        ) = entry[0]

        dec_groups = node.dec_groups + dec_delta
        bucket = 1 if dec_groups <= 1 else 2
        count_groups = node.count_groups
        if seg_groups:
            count_groups = dict(count_groups)
            for group, instances in seg_groups:
                if instances > count_groups.get(group, 0.0):
                    count_groups[group] = instances
        # Mirrors count_committees + CommitteeParameters.for_plan on the
        # child's full vignette list (keygen included via the root).
        params = CommitteeParameters.for_plan(
            max(int(sum(count_groups.values())), 1)
        )
        m = params.committee_size
        accum = self._node_fold(node, m, bucket).extended(segment)
        return ExpansionNode(
            depth=node.depth + 1,
            choices=node.choices + (choice,),
            bins=node.bins,
            use_fhe=node.use_fhe,
            scheme=node.scheme,
            cts=node.cts,
            encrypted=encrypted,
            shared=shared,
            dec_groups=dec_groups,
            group_counter=group_counter,
            fused=fused,
            vignettes=node.vignettes + segment,
            count_groups=count_groups,
            params=params,
            bucket=bucket,
            accum=accum,
            parent=node,
            segment=segment,
        )

    def _node_fold(self, node, m: int, bucket: int) -> ScoreAccumulator:
        """``node``'s full prefix fold at committee size ``m`` with the
        ``bucket`` keygen vignette at index 1.

        When (m, bucket) match the node's own accumulator this is free;
        otherwise the fold is built from the parent's fold at the same
        (m, bucket) plus the node's segment — so a committee-size change
        costs one segment fold per ancestor on first use, and the results
        are memoized per node for every sibling and descendant after that.
        Fold order is exactly score_vignettes order at every step, which
        keeps the float sums bit-identical to a from-scratch fold.
        """
        accum = node.accum
        if m == accum.m and bucket == node.bucket:
            return accum
        refolds = node.refolds
        if refolds is not None:
            cached = refolds.get((m, bucket))
            if cached is not None:
                return cached
        parent = node.parent
        if parent is None:
            fold = ScoreAccumulator(self.n, self.model, self.device, m)
            vignettes = node.vignettes
            fold.add(vignettes[0])
            fold.add(self._keygen(node.bins, node.use_fhe, bucket))
            for v in vignettes[1:]:
                fold.add(v)
        else:
            fold = self._node_fold(parent, m, bucket).extended(node.segment)
        if refolds is None:
            refolds = node.refolds = {}
        refolds[(m, bucket)] = fold
        return fold

    # -------------------------------------------------------------- leaves

    def leaf_vignettes(self, node: ExpansionNode) -> List[Vignette]:
        """The full vignette list for a complete prefix, matching
        ``instantiate(plan, node.choices, model)`` byte for byte."""
        vignettes = list(node.vignettes)
        vignettes.insert(1, _keygen_vignette(node.scheme, node.dec_groups))
        return vignettes

    def leaf_score(self, node: ExpansionNode):
        """The PlanScore for a complete prefix (no rescoring needed: the
        node's accumulator already folded every vignette)."""
        return node.accum.finish(node.params)
