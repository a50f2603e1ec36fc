"""Admission control: budget-checked intake for the query service.

Every submission passes through :class:`AdmissionController.admit`
*before any planner work* (the planner search is the expensive stage the
keyed plan cache exists to skip — admission must not depend on it). The
controller consults the global :class:`PrivacyAccountant` and the
tenant's envelope, holding a **reservation** for every admitted
submission so concurrent intake stays sound: budget is treated as spoken
for from admission until settlement (execution, rejection, or deadline
expiry), and two submissions that each fit alone but not together can
never both pass.

Rejections are typed:

:class:`~repro.runtime.executor.BudgetExhausted`
    the submission's (ε, δ) does not fit the tenant envelope or the
    global pool, counting live reservations. ε only ever accrues, so a
    submission refused for global-budget reasons can succeed later only
    if an in-flight reservation is released (deadline expiry, failure) —
    the service queues nothing it cannot currently pay for.
:class:`AdmissionRejected`
    a policy refusal: unknown tenant, an already-expired deadline, a
    malformed utility hint, or a per-query ε above the service cap.

Admitted submissions carry an :class:`AdmissionScore` — the
Shrinkwrap-style cost–utility figure the budget scheduler orders the
queue by, decomposed LPS-style (SNIPPETS.md §2) into named, auditable
sub-scores, each in [0, 1]:

``utility``
    the analyst's hint, scaled by the tenant's scheduling weight;
``frugality``
    1 − (ε cost / per-query cap): cheap queries score high — spending
    the shared budget slowly serves more analysts (Shrinkwrap's
    budget–utility tradeoff);
``headroom``
    the fraction of the tenant's envelope left after this query: tenants
    near exhaustion stop outbidding fresh tenants.

The static priority is a policy-weighted sum; the scheduler adds the
*dynamic* deadline-aging terms at pick time (see ``scheduler.py``).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..analysis.types import ROW_ENCODINGS
from ..privacy.accountant import PrivacyAccountant, PrivacyCost
from ..runtime.executor import BudgetExhausted, QueryRejected
from .tenants import TenantRegistry, UnknownTenant


#: The utility hint of a submission that gives none.
DEFAULT_UTILITY = 0.5
#: The admission scorer's weights on its three sub-scores.
WEIGHT_UTILITY = 0.45
WEIGHT_FRUGALITY = 0.35
WEIGHT_HEADROOM = 0.20
#: Largest ε one submission may request (policy rejection above).
PER_QUERY_EPSILON_CAP = 16.0


class AdmissionRejected(QueryRejected):
    """A submission was refused for policy (non-budget) reasons."""


@dataclass(frozen=True)
class AdmissionScore:
    """Decomposable cost–utility score (auditable sub-scores in [0, 1])."""

    utility: float
    frugality: float
    headroom: float
    priority: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "utility": self.utility,
            "frugality": self.frugality,
            "headroom": self.headroom,
            "priority": self.priority,
        }


@dataclass
class Submission:
    """One tenant query moving through admit → schedule → plan → execute."""

    seq: int
    tenant: str
    source: str
    categories: int
    epsilon: float
    name: str  # unique charge label, e.g. "alice/0003"
    sensitivity: Optional[float] = None
    row_encoding: str = "one_hot"
    value_range: Optional[Tuple[float, float]] = None
    utility: float = DEFAULT_UTILITY
    #: Logical-clock deadline (ticks); None = no deadline. The service's
    #: clock advances on every submit and dispatch, so deadlines are
    #: deterministic under replay — no wall-clock reads in scheduling.
    deadline: Optional[int] = None
    submit_tick: int = 0
    cost: PrivacyCost = field(default_factory=lambda: PrivacyCost(0.0, 0.0))
    score: Optional[AdmissionScore] = None


def _malformed(submission: Submission) -> Optional[str]:
    """Why ``submission`` describes no query a planner could take, if so.

    Checked at admission so that a bad field from outside is a typed
    refusal, never an error out of dispatch.
    """
    categories, value_range = submission.categories, submission.value_range
    if type(categories) is not int or categories < 1:
        return f"categories {categories!r} is not a positive integer"
    if not submission.epsilon > 0:
        return f"ε={submission.epsilon!r} is not positive"
    if submission.sensitivity is not None and not submission.sensitivity > 0:
        return f"sensitivity {submission.sensitivity!r} is not positive"
    if submission.row_encoding not in ROW_ENCODINGS:
        return f"unknown row encoding {submission.row_encoding!r}"
    if value_range is not None and not value_range[0] <= value_range[1]:
        return f"value range {value_range!r} is empty"
    return None


class AdmissionController:
    """Reserves budget at intake; settles it at execution or rejection."""

    def __init__(
        self,
        accountant: PrivacyAccountant,
        tenants: TenantRegistry,
    ):
        self.accountant = accountant
        self.tenants = tenants
        self._lock = threading.RLock()
        #: Global budget held for admitted-but-unsettled submissions.
        self._reserved = PrivacyCost(0.0, 0.0)

    # ------------------------------------------------------------ reporting

    @property
    def reserved(self) -> PrivacyCost:
        with self._lock:
            return self._reserved

    # ------------------------------------------------------------ admission

    def admit(self, submission: Submission) -> AdmissionScore:
        """Admit (reserve + score) or raise a typed rejection.

        Runs entirely under the admission lock so the tenant-envelope
        check, the global-pool check, and both reservations are one
        atomic step even when many front-end threads submit at once.
        """
        if not 0.0 <= submission.utility <= 1.0:
            raise AdmissionRejected(
                f"submission {submission.name!r}: utility hint "
                f"{submission.utility!r} is outside [0, 1]"
            )
        if submission.deadline is not None and (
            submission.deadline <= submission.submit_tick
        ):
            raise AdmissionRejected(
                f"submission {submission.name!r}: deadline tick "
                f"{submission.deadline} is not after submit tick "
                f"{submission.submit_tick}"
            )
        problem = _malformed(submission)
        if problem is not None:
            raise AdmissionRejected(f"submission {submission.name!r}: {problem}")
        cost = submission.cost
        if cost.epsilon > PER_QUERY_EPSILON_CAP:
            raise AdmissionRejected(
                f"submission {submission.name!r}: ε={cost.epsilon:g} exceeds "
                f"the per-query cap ε={PER_QUERY_EPSILON_CAP:g}"
            )
        with self._lock:
            try:
                account = self.tenants.account(submission.tenant)
            except UnknownTenant as exc:
                raise AdmissionRejected(str(exc.args[0])) from None
            account.submitted += 1
            if not account.fits(cost):
                account.rejected += 1
                headroom = account.headroom()
                raise BudgetExhausted(
                    f"tenant {submission.tenant!r} cannot afford "
                    f"ε={cost.epsilon:g} for {submission.name!r}: envelope "
                    f"headroom is ε={headroom.epsilon:g} "
                    f"(reserved ε={account.reserved.epsilon:g})"
                )
            if not self.accountant.can_afford(self._reserved + cost):
                account.rejected += 1
                remaining = self.accountant.remaining()
                raise BudgetExhausted(
                    f"global budget cannot afford ε={cost.epsilon:g} for "
                    f"{submission.name!r}: ε={remaining.epsilon:g} remains "
                    f"with ε={self._reserved.epsilon:g} already reserved"
                )
            # Both checks passed — hold the budget until settlement.
            account.reserved = account.reserved + cost
            self._reserved = self._reserved + cost
            score = self._score(submission, account)
            submission.score = score
            return score

    def _score(self, submission: Submission, account) -> AdmissionScore:
        utility = min(1.0, submission.utility * account.policy.weight)
        frugality = 1.0 - min(1.0, submission.cost.epsilon / PER_QUERY_EPSILON_CAP)
        envelope = account.policy.epsilon_budget
        headroom = (
            account.headroom().epsilon / envelope if envelope > 0 else 0.0
        )
        priority = (
            WEIGHT_UTILITY * utility
            + WEIGHT_FRUGALITY * frugality
            + WEIGHT_HEADROOM * headroom
        )
        return AdmissionScore(utility, frugality, headroom, priority)

    # ----------------------------------------------------------- settlement

    def _release(self, submission: Submission) -> None:
        account = self.tenants.account(submission.tenant)
        cost = submission.cost
        account.reserved = PrivacyCost(
            max(0.0, account.reserved.epsilon - cost.epsilon),
            max(0.0, account.reserved.delta - cost.delta),
        )
        self._reserved = PrivacyCost(
            max(0.0, self._reserved.epsilon - cost.epsilon),
            max(0.0, self._reserved.delta - cost.delta),
        )

    def reprice(self, submission: Submission, actual: PrivacyCost) -> None:
        """Adjust a reservation to the planner's certified cost.

        Admission reserved the *requested* ε (it runs before any planner
        work); once the plan's certificate prices the query exactly, the
        hold is re-based. A certified cost above the reservation must
        re-pass both budget checks or the submission dies with
        ``BudgetExhausted`` (its hold fully released).
        """
        with self._lock:
            if actual.epsilon == submission.cost.epsilon and (
                actual.delta == submission.cost.delta
            ):
                return
            account = self.tenants.account(submission.tenant)
            self._release(submission)
            old, submission.cost = submission.cost, actual
            if not (
                account.fits(actual)
                and self.accountant.can_afford(self._reserved + actual)
            ):
                account.rejected += 1
                raise BudgetExhausted(
                    f"submission {submission.name!r}: certified cost "
                    f"ε={actual.epsilon:g} exceeds the admitted reservation "
                    f"ε={old.epsilon:g} and no longer fits the budget"
                )
            account.reserved = account.reserved + actual
            self._reserved = self._reserved + actual

    def settle_executed(self, submission: Submission) -> None:
        """Release the hold and book the spend against the tenant.

        The *global* debit already happened inside the executor via the
        journal-backed ``charge_once`` path (keyed by the submission's
        unique charge label); this settles the tenant-side mirror.
        """
        with self._lock:
            account = self.tenants.account(submission.tenant)
            self._release(submission)
            account.spent = account.spent + submission.cost
            account.executed += 1

    def settle_rejected(self, submission: Submission) -> None:
        """Release the hold for a submission that will never execute."""
        with self._lock:
            account = self.tenants.account(submission.tenant)
            self._release(submission)
            account.rejected += 1
