"""Static verification of concrete plans (the belt to the planner's braces).

``verify_plan`` takes a scored :class:`~repro.planner.plan.Plan`, the
lowered :class:`~repro.planner.ir.LogicalPlan` it was instantiated from,
and the privacy :class:`~repro.privacy.certify.Certificate`, and re-checks
every invariant in :mod:`repro.verify.invariants` without executing any
cryptography. The planner's search and expansion code *should* only
produce plans that pass; the point of this pass is that a scoring bug, an
expansion rewrite, or a tampered plan object is caught before the runtime
spends real committees on it.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set

from ..lang.ast import (
    Assign,
    ExprStmt,
    For,
    If,
    IndexAssign,
    Stmt,
    Var,
    DB_NAME,
    walk_expr,
)
from ..planner.committees import CommitteeParameters, committee_failure_probability
from ..planner.costmodel import DEPTH0_MODULUS_BITS, min_ring_degree_log2
from ..planner.expand import (
    ARGMAX_FANOUTS,
    Choice,
    DEC_BATCH_SIZES,
    MPC_BATCH_SIZES,
    NOISE_BATCH_SIZES,
    SAMPLE_BIN_CHOICES,
    TREE_FANOUTS,
    choice_space,
    fold_scheme_inputs,
    scheme_params,
)
from ..planner.ir import (
    Aggregate,
    EncryptInput,
    LogicalPlan,
    NoiseOutput,
    Output,
    SelectMax,
    VectorTransform,
)
from ..planner.plan import Location, Plan, count_committees
from ..privacy.accountant import PrivacyCost
from ..privacy.certify import Certificate
from .invariants import (
    CLEAR_ALLOWED,
    INVARIANTS_BY_RULE,
    MECHANISM_VIGNETTES,
)
from .report import Severity, VerificationReport

#: Relative tolerance when comparing re-derived (ε, δ) with the certificate.
_EPS_TOL = 1e-9


def _rel_close(a: float, b: float) -> bool:
    return abs(a - b) <= _EPS_TOL * max(abs(a), abs(b), 1.0)


class PlanChecker:
    """One verification run over one (plan, logical plan, certificate)."""

    def __init__(
        self,
        plan: Plan,
        logical: LogicalPlan,
        certificate: Optional[Certificate] = None,
    ):
        self.plan = plan
        self.logical = logical
        self.certificate = certificate or logical.certificate
        self.report = VerificationReport(target=f"plan for {plan.query_name!r}")

    # ------------------------------------------------------------- plumbing

    def _fail(
        self, rule: str, subject: str, message: str, node_path: str = ""
    ) -> None:
        severity = INVARIANTS_BY_RULE[rule].severity
        # Every finding carries a plan-node path so tooling (and humans
        # reading `repro verify-plan` output) can jump straight to the
        # offending IR op, vignette, or post-aggregate statement.
        self.report.add(rule, subject, message, severity, node_path=node_path or subject)

    def _checked(self, rule: str) -> None:
        if rule not in self.report.checked_rules:
            self.report.checked_rules.append(rule)

    def check(self) -> VerificationReport:
        for method in (
            self.check_ssa_def_before_use,
            self.check_pipeline_order,
            self.check_ranges,
            self.check_scheme_consistent,
            self.check_choices_legal,
            self.check_no_clear_secrets,
            self.check_decrypt_in_committee,
            self.check_ahe_depth,
            self.check_bgv_budget,
            self.check_no_he_after_share,
            self.check_noise_dominates_output,
            self.check_epsilon_matches,
            self.check_committee_tail_bound,
            self.check_committee_count,
            self.check_keygen_unique,
            self.check_fanin_capacity,
            self.check_staffing,
        ):
            method()
        return self.report

    # ------------------------------------------------------------- SSA / IR

    def check_ssa_def_before_use(self) -> None:
        """ssa-def-before-use: reads in the post-aggregate block resolve."""
        self._checked("ssa-def-before-use")
        defined: Set[str] = {DB_NAME, "epsilon", "sens", "N"}
        defined.update(self.logical.env.constants)
        if self.logical.aggregate_var:
            defined.add(self.logical.aggregate_var)
        self._walk_block(self.logical.post_statements, defined)

    def _walk_block(self, statements: Sequence[Stmt], defined: Set[str]) -> None:
        for stmt in statements:
            if isinstance(stmt, Assign):
                self._check_reads(stmt.value, defined, stmt)
                defined.add(stmt.var)
            elif isinstance(stmt, IndexAssign):
                self._check_reads(stmt.index, defined, stmt)
                self._check_reads(stmt.value, defined, stmt)
                defined.add(stmt.var)
            elif isinstance(stmt, ExprStmt):
                self._check_reads(stmt.expr, defined, stmt)
            elif isinstance(stmt, For):
                self._check_reads(stmt.start, defined, stmt)
                self._check_reads(stmt.end, defined, stmt)
                defined.add(stmt.var)
                self._walk_block(stmt.body, defined)
            elif isinstance(stmt, If):
                self._check_reads(stmt.cond, defined, stmt)
                # Union of branch definitions: a name defined in either
                # branch may be read afterwards (the interpreter initializes
                # both paths), so only flag reads of names defined nowhere.
                then_defs = set(defined)
                else_defs = set(defined)
                self._walk_block(stmt.then_body, then_defs)
                self._walk_block(stmt.else_body, else_defs)
                defined |= then_defs | else_defs

    def _check_reads(self, expr, defined: Set[str], stmt: Stmt) -> None:
        for node in walk_expr(expr):
            if isinstance(node, Var) and node.name not in defined:
                self._fail(
                    "ssa-def-before-use",
                    f"line {stmt.line}",
                    f"variable {node.name!r} is read before any definition "
                    f"(aggregate variable is "
                    f"{self.logical.aggregate_var!r})",
                    node_path=f"post:line {stmt.line}",
                )
                defined.add(node.name)  # report each undefined name once

    def check_pipeline_order(self) -> None:
        """ssa-pipeline-order: input -> aggregate -> mechanisms -> output."""
        self._checked("ssa-pipeline-order")
        ops = self.logical.ops
        input_idx = [i for i, op in enumerate(ops) if isinstance(op, EncryptInput)]
        agg_idx = [i for i, op in enumerate(ops) if isinstance(op, Aggregate)]
        mech_idx = [
            i for i, op in enumerate(ops) if isinstance(op, (SelectMax, NoiseOutput))
        ]
        if not input_idx or not agg_idx:
            self._fail(
                "ssa-pipeline-order",
                "ops",
                "logical plan lacks an EncryptInput/Aggregate pair",
                node_path="logical.ops",
            )
            return
        if min(agg_idx) < min(input_idx):
            self._fail(
                "ssa-pipeline-order",
                f"aggregate[{min(agg_idx)}]",
                "Aggregate appears before EncryptInput",
                node_path=f"ops[{min(agg_idx)}]",
            )
        for i in mech_idx:
            if i < min(agg_idx):
                self._fail(
                    "ssa-pipeline-order",
                    f"{ops[i].name}[{i}]",
                    "mechanism op appears before the Aggregate",
                    node_path=f"ops[{i}]",
                )

    def check_ranges(self) -> None:
        """ty-ranges: IR operand shapes agree with the environment."""
        self._checked("ty-ranges")
        env = self.logical.env
        for i, op in enumerate(self.logical.ops):
            subject = f"{op.name}[{i}]"
            if isinstance(op, EncryptInput):
                if op.categories != env.row_width:
                    self._fail(
                        "ty-ranges",
                        subject,
                        f"input width {op.categories} != environment row "
                        f"width {env.row_width}",
                    )
                if not 0.0 < op.sample_fraction <= 1.0:
                    self._fail(
                        "ty-ranges",
                        subject,
                        f"invalid sampling fraction {op.sample_fraction}",
                    )
            elif isinstance(op, Aggregate):
                if op.num_participants != env.num_participants:
                    self._fail(
                        "ty-ranges",
                        subject,
                        f"aggregate over {op.num_participants} participants "
                        f"!= environment N {env.num_participants}",
                    )
                if op.categories != env.row_width:
                    self._fail(
                        "ty-ranges",
                        subject,
                        f"aggregate width {op.categories} != row width "
                        f"{env.row_width}",
                    )
            elif isinstance(op, SelectMax):
                if op.categories < 1 or not 1 <= op.k <= max(op.categories, 1):
                    self._fail(
                        "ty-ranges",
                        subject,
                        f"select_max over {op.categories} categories with "
                        f"k={op.k} is out of range",
                    )
            elif isinstance(op, NoiseOutput):
                if op.count < 1:
                    self._fail(
                        "ty-ranges", subject, f"noise op releases {op.count} values"
                    )
            elif isinstance(op, VectorTransform):
                if op.length < 1 or op.linear_ops < 0 or op.nonlinear_ops < 0:
                    self._fail(
                        "ty-ranges",
                        subject,
                        f"transform of length {op.length} with "
                        f"{op.linear_ops}/{op.nonlinear_ops} linear/nonlinear "
                        "ops is malformed",
                    )
            elif isinstance(op, Output):
                if op.values < 1:
                    self._fail(
                        "ty-ranges", subject, f"output publishes {op.values} values"
                    )

    # ----------------------------------------------------- scheme / choices

    def _choice_list(self) -> List[Choice]:
        return [c for c in self.plan.choice_list if isinstance(c, Choice)]

    def check_scheme_consistent(self) -> None:
        """ty-scheme-consistent: the §4.5 scheme rule re-derives the params."""
        self._checked("ty-scheme-consistent")
        choices = self._choice_list()
        scheme = self.plan.scheme
        if len(choices) != len(self.logical.ops):
            self.report.add(
                "ty-scheme-consistent",
                "choices",
                f"plan records {len(choices)} structured choices for "
                f"{len(self.logical.ops)} logical ops; cannot re-derive the "
                "scheme",
                Severity.WARNING,
            )
            return
        expected, packed, expected_cts = scheme_params(
            self.logical.env.row_width, *fold_scheme_inputs(self.logical.ops, choices)
        )
        if scheme != expected:
            self._fail(
                "ty-scheme-consistent",
                "scheme",
                f"plan carries {scheme.name} (ring 2^{scheme.ring_log2}, "
                f"{scheme.ciphertext_modulus_bits}-bit modulus) but its "
                f"choices re-derive to {expected.name} (ring "
                f"2^{expected.ring_log2}, "
                f"{expected.ciphertext_modulus_bits}-bit modulus)",
            )
            return
        for v in self.plan.vignettes:
            if v.name == "input" and v.work.he_encryptions != expected_cts:
                self._fail(
                    "ty-scheme-consistent",
                    "vignette 'input'",
                    f"uploads {v.work.he_encryptions:g} ciphertexts; packed "
                    f"width {packed} over {scheme.slots} slots needs "
                    f"{expected_cts}",
                )

    def check_choices_legal(self) -> None:
        """choice-legal: each recorded choice is in the op's option set."""
        self._checked("choice-legal")
        choices = self._choice_list()
        if not choices:
            self.report.add(
                "choice-legal",
                "choices",
                "plan has no structured choice list; skipping legality check",
                Severity.WARNING,
            )
            return
        space = choice_space(self.logical)
        if len(choices) != len(space):
            self._fail(
                "choice-legal",
                "choices",
                f"{len(choices)} choices recorded for {len(space)} "
                "choice-space slots",
            )
            return
        for (op, options), choice in zip(space, choices):
            if choice not in options:
                self._fail(
                    "choice-legal",
                    choice.key,
                    f"choice {choice.label()} is not among the "
                    f"{len(options)} legal instantiations of op {op.name!r}",
                )

    # ----------------------------------------------------------- encryption

    def check_no_clear_secrets(self) -> None:
        """enc-no-clear-secrets: cleartext vignettes are allowlisted."""
        self._checked("enc-no-clear-secrets")
        for v in self.plan.vignettes:
            if v.crypto == "clear" and v.name not in CLEAR_ALLOWED:
                self._fail(
                    "enc-no-clear-secrets",
                    f"vignette {v.name!r}",
                    f"runs in the clear at {v.location.value}; only "
                    f"{sorted(CLEAR_ALLOWED)} may (db-derived values must "
                    "stay in AHE/FHE/TFHE/MPC, §4.5)",
                )

    def check_decrypt_in_committee(self) -> None:
        """enc-decrypt-in-committee: threshold decryption stays in committees."""
        self._checked("enc-decrypt-in-committee")
        for v in self.plan.vignettes:
            if v.work.dist_decryptions <= 0:
                continue
            if v.location is not Location.COMMITTEE:
                self._fail(
                    "enc-decrypt-in-committee",
                    f"vignette {v.name!r}",
                    f"performs {v.work.dist_decryptions:g} threshold "
                    f"decryptions at {v.location.value}; decryption is only "
                    "legal inside a committee (§5.2)",
                )
            elif v.committee_type != "decryption":
                self._fail(
                    "enc-decrypt-in-committee",
                    f"vignette {v.name!r}",
                    f"decrypts but is typed {v.committee_type!r}; key shares "
                    "only travel to committee_type='decryption' committees",
                )

    def check_ahe_depth(self) -> None:
        """enc-ahe-depth: additive-only schemes see additive-only work."""
        self._checked("enc-ahe-depth")
        if self.plan.scheme.name != "ahe":
            return
        for v in self.plan.vignettes:
            if v.crypto == "fhe":
                self._fail(
                    "enc-ahe-depth",
                    f"vignette {v.name!r}",
                    "is marked FHE but the plan's scheme is depth-0 AHE",
                )
            mults = (
                v.work.he_ct_mults
                + v.work.he_exponentiations
                + v.work.he_comparisons
            )
            if mults > 0:
                self._fail(
                    "enc-ahe-depth",
                    f"vignette {v.name!r}",
                    f"performs {mults:g} multiplicative HE ops under an AHE "
                    "scheme, which only supports additions (§4.5)",
                )

    def check_bgv_budget(self) -> None:
        """enc-bgv-budget: the scheme fits the cost model's parameter model
        (the HE-standard table and the levels model)."""
        self._checked("enc-bgv-budget")
        scheme = self.plan.scheme
        if scheme.ciphertext_modulus_bits < DEPTH0_MODULUS_BITS:
            self._fail(
                "enc-bgv-budget",
                "scheme",
                f"{scheme.ciphertext_modulus_bits}-bit modulus cannot even "
                "hold a depth-0 aggregate of a ~2^30 plaintext "
                f"(needs >= {DEPTH0_MODULUS_BITS})",
            )
        if scheme.name != "fhe":
            # The runtime's AHE is Paillier, so an AHE ring is only a price
            # and is not held to the table.
            return
        try:
            required_ring = min_ring_degree_log2(scheme.ciphertext_modulus_bits)
        except ValueError:
            self._fail(
                "enc-bgv-budget",
                "scheme",
                f"no standard BGV parameter set covers a "
                f"{scheme.ciphertext_modulus_bits}-bit modulus",
            )
            return
        if scheme.ring_log2 < required_ring:
            self._fail(
                "enc-bgv-budget",
                "scheme",
                f"ring degree 2^{scheme.ring_log2} is insecure for a "
                f"{scheme.ciphertext_modulus_bits}-bit modulus; the HE "
                f"standard table requires >= 2^{required_ring}",
            )
        for v in self.plan.vignettes:
            if v.work.he_ct_mults > 0 or v.work.he_exponentiations > 0:
                # The em's degree-8 exponential approximation plus its
                # masking chain needs ~3 levels. (The planner provisions
                # PLANNER_FHE_DEPTH but prices a modulus that holds 5.)
                if scheme.levels < 3:
                    self._fail(
                        "enc-bgv-budget",
                        f"vignette {v.name!r}",
                        f"multiplies ciphertexts but the "
                        f"{scheme.ciphertext_modulus_bits}-bit modulus only "
                        f"supports {scheme.levels} BGV level(s), too few "
                        "for the circuit to decrypt",
                    )
                    break

    def check_no_he_after_share(self) -> None:
        """enc-no-he-after-share: no aggregator HE once data is shared."""
        self._checked("enc-no-he-after-share")
        shared = False
        for v in self.plan.vignettes:
            if shared and v.location is Location.AGGREGATOR and v.crypto in (
                "ahe",
                "fhe",
            ):
                self._fail(
                    "enc-no-he-after-share",
                    f"vignette {v.name!r}",
                    "operates homomorphically on the aggregator after a "
                    "decryption committee already turned the aggregate into "
                    "MPC sharings",
                )
            # Only the full-aggregate decryption layer and the TFHE->MPC
            # conversion move the *aggregate* into sharings; 'em-decrypt'
            # opens just the mechanism's selected output, leaving the
            # aggregate ciphertexts valid for later HE stages.
            if v.name in ("decrypt", "scheme-convert"):
                shared = True

    # -------------------------------------------------------------------- DP

    def check_noise_dominates_output(self) -> None:
        """dp-noise-dominates-output: declassify only post-noise."""
        self._checked("dp-noise-dominates-output")
        ops = self.logical.ops
        mech_idx = [
            i for i, op in enumerate(ops) if isinstance(op, (SelectMax, NoiseOutput))
        ]
        for i, op in enumerate(ops):
            if isinstance(op, Output):
                if not any(j < i for j in mech_idx):
                    self._fail(
                        "dp-noise-dominates-output",
                        f"output[{i}]",
                        "Output op is not dominated by any SelectMax/"
                        "NoiseOutput; the release would be un-noised",
                    )
        names = [v.name for v in self.plan.vignettes]
        mech_vignettes = [
            i for i, name in enumerate(names) if name in MECHANISM_VIGNETTES
        ]
        for i, name in enumerate(names):
            if name == "publish" and not any(j < i for j in mech_vignettes):
                self._fail(
                    "dp-noise-dominates-output",
                    "vignette 'publish'",
                    "publishes before any mechanism vignette "
                    f"({sorted(MECHANISM_VIGNETTES)}) has run",
                )

    def check_epsilon_matches(self) -> None:
        """dp-epsilon-matches: certificate totals re-derive from mechanisms."""
        self._checked("dp-epsilon-matches")
        cert = self.certificate
        total = PrivacyCost(0.0, 0.0)
        for use in cert.mechanisms:
            total = total + PrivacyCost(use.epsilon, use.delta)
        if not _rel_close(total.epsilon, cert.cost.epsilon) or not _rel_close(
            total.delta, cert.cost.delta
        ):
            self._fail(
                "dp-epsilon-matches",
                "certificate",
                f"claimed cost (ε={cert.cost.epsilon:g}, δ={cert.cost.delta:g})"
                f" != sum of its {len(cert.mechanisms)} mechanism uses "
                f"(ε={total.epsilon:g}, δ={total.delta:g})",
            )

    # ------------------------------------------------------------ committees

    def check_committee_tail_bound(self) -> None:
        """com-tail-bound: the §5.1 sizing inequality holds for this plan."""
        self._checked("com-tail-bound")
        params = self.plan.committee_params
        p_fail = committee_failure_probability(
            params.committee_size,
            params.num_committees,
            params.malicious_fraction,
            params.churn_tolerance,
        )
        if p_fail > params.per_round_budget * (1.0 + _EPS_TOL):
            self._fail(
                "com-tail-bound",
                "committee_params",
                f"m={params.committee_size} gives failure probability "
                f"{p_fail:.3g} over {params.num_committees} committees, "
                f"above the per-round budget {params.per_round_budget:.3g} "
                "(§5.1 binomial tail bound)",
            )

    def check_committee_count(self) -> None:
        """com-count-covers-plan: sizing saw every committee the plan uses."""
        self._checked("com-count-covers-plan")
        params = self.plan.committee_params
        used = CommitteeParameters.for_plan(
            count_committees(self.plan.vignettes)
        ).num_committees
        if params.num_committees < used:
            self._fail(
                "com-count-covers-plan",
                "committee_params",
                f"sized for {params.num_committees} committees but the "
                f"vignette sequence uses {used}; the tail bound no longer "
                "covers all of them",
            )

    def check_keygen_unique(self) -> None:
        """com-keygen-unique: one MPC keygen committee holds the key."""
        self._checked("com-keygen-unique")
        keygens = [
            v
            for v in self.plan.vignettes
            if v.name == "keygen" or v.work.dist_keygens > 0
        ]
        if len(keygens) != 1:
            self._fail(
                "com-keygen-unique",
                "vignette 'keygen'",
                f"plan has {len(keygens)} keygen vignettes; exactly one "
                "committee may generate the keypair (§5.2)",
            )
            return
        v = keygens[0]
        if (
            v.location is not Location.COMMITTEE
            or v.crypto != "mpc"
            or v.committee_type != "keygen"
        ):
            self._fail(
                "com-keygen-unique",
                f"vignette {v.name!r}",
                f"keygen runs at {v.location.value} in {v.crypto!r} as "
                f"{v.committee_type!r}; it must be a committee_type='keygen' "
                "committee in MPC",
            )

    def check_fanin_capacity(self) -> None:
        """com-fanin-capacity: fan-ins stay within the planner's grids."""
        self._checked("com-fanin-capacity")
        caps = {
            "participant_tree": ("tree fanout", max(TREE_FANOUTS)),
            "committee_tree": ("tree fanout", max(TREE_FANOUTS)),
            "committee_mpc": ("MPC batch", max(MPC_BATCH_SIZES)),
            "committee_mpc_fused": ("MPC batch", max(MPC_BATCH_SIZES)),
            "committee_noise": ("noise batch", max(NOISE_BATCH_SIZES)),
            "binned_upload": ("sample bins", max(SAMPLE_BIN_CHOICES)),
        }
        for choice in self._choice_list():
            if choice.option in caps and choice.params:
                what, cap = caps[choice.option]
                if choice.params[0] > cap:
                    self._fail(
                        "com-fanin-capacity",
                        choice.key,
                        f"{what} {choice.params[0]} exceeds the committee "
                        f"capacity grid (max {cap})",
                    )
            elif choice.option == "gumbel_mpc" and len(choice.params) == 4:
                _style, dec, noise, fanout = choice.params
                for what, value, cap in (
                    ("decryption batch", dec, max(DEC_BATCH_SIZES)),
                    ("noising batch", noise, max(NOISE_BATCH_SIZES)),
                    ("argmax fanout", fanout, max(ARGMAX_FANOUTS)),
                ):
                    if value > cap:
                        self._fail(
                            "com-fanin-capacity",
                            choice.key,
                            f"{what} {value} exceeds the committee capacity "
                            f"grid (max {cap})",
                        )

    def check_staffing(self) -> None:
        """com-staffing (warning): population covers the selected seats."""
        self._checked("com-staffing")
        params = self.plan.committee_params
        n = self.logical.env.num_participants
        if params.devices_selected > n:
            self._fail(
                "com-staffing",
                "committee_params",
                f"{params.num_committees} committees x m="
                f"{params.committee_size} selects "
                f"{params.devices_selected} devices from a population of "
                f"{n}; fine in simulation (devices serve repeatedly) but "
                "infeasible in deployment",
            )


def verify_plan(
    plan: Plan,
    logical: LogicalPlan,
    certificate: Optional[Certificate] = None,
) -> VerificationReport:
    """Statically verify one concrete plan against the invariant catalog."""
    return PlanChecker(plan, logical, certificate).check()


def verify_planning_result(result) -> VerificationReport:
    """Verify a :class:`~repro.planner.search.PlanningResult` end to end."""
    return verify_plan(result.plan, result.logical_plan, result.certificate)
