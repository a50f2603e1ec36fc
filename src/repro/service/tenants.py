"""Per-tenant privacy-budget accounts for the multi-tenant query service.

One device population has one global (ε, δ) budget — the paper's
:class:`~repro.privacy.accountant.PrivacyAccountant` — but production
traffic comes from many analysts. The registry sub-allocates the global
budget into per-tenant envelopes: admission checks a submission against
*both* its tenant's envelope and the global balance, and a tenant can
never spend past its allocation even when the global pool still has room
(budget isolation — one greedy analyst cannot drain their neighbours).

Accounts track three numbers per tenant, all under the registry lock:

``spent``
    ε/δ actually debited from the global accountant by this tenant's
    executed queries (settled exactly-once via ``charge_once``).
``reserved``
    ε/δ held for admitted-but-not-yet-executed submissions. Admission
    reserves; settlement (execute, reject, or deadline expiry) releases.
    Reservations are what make concurrent admission sound: two
    submissions that each fit alone but not together cannot both pass.
``submitted / executed / rejected``
    Traffic counters: the last table ``repro serve`` prints, and the
    ``tenants`` rows of ``repro serve --json``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..privacy.accountant import PrivacyCost


class UnknownTenant(KeyError):
    """A submission named a tenant the registry has no account for."""


@dataclass(frozen=True)
class TenantPolicy:
    """A tenant's standing allocation out of the global budget."""

    name: str
    epsilon_budget: float
    delta_budget: float = 0.0
    #: Relative scheduling weight (multiplies the utility sub-score).
    weight: float = 1.0

    def __post_init__(self):
        if self.epsilon_budget < 0 or self.delta_budget < 0:
            raise ValueError("tenant budgets cannot be negative")
        if self.weight <= 0:
            raise ValueError("tenant weight must be positive")


@dataclass
class TenantAccount:
    """Mutable budget/traffic state for one tenant (registry-locked)."""

    policy: TenantPolicy
    spent: PrivacyCost = field(default_factory=lambda: PrivacyCost(0.0, 0.0))
    reserved: PrivacyCost = field(default_factory=lambda: PrivacyCost(0.0, 0.0))
    submitted: int = 0
    executed: int = 0
    rejected: int = 0

    def committed(self) -> PrivacyCost:
        """Budget that is spoken for: settled spends plus live holds."""
        return self.spent + self.reserved

    def headroom(self) -> PrivacyCost:
        committed = self.committed()
        return PrivacyCost(
            max(0.0, self.policy.epsilon_budget - committed.epsilon),
            max(0.0, self.policy.delta_budget - committed.delta),
        )

    def fits(self, cost: PrivacyCost) -> bool:
        committed = self.committed() + cost
        return (
            committed.epsilon <= self.policy.epsilon_budget + 1e-12
            and committed.delta <= self.policy.delta_budget + 1e-15
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "tenant": self.policy.name,
            "epsilon_budget": self.policy.epsilon_budget,
            "delta_budget": self.policy.delta_budget,
            "weight": self.policy.weight,
            "spent_epsilon": self.spent.epsilon,
            "spent_delta": self.spent.delta,
            "reserved_epsilon": self.reserved.epsilon,
            "reserved_delta": self.reserved.delta,
            "remaining_epsilon": self.headroom().epsilon,
            "submitted": self.submitted,
            "executed": self.executed,
            "rejected": self.rejected,
        }


class TenantRegistry:
    """Thread-safe map of tenant name → account.

    The registry owns the reserve/settle bookkeeping; the admission
    controller calls it while also holding its own reservation ledger
    against the global accountant, so the pair of checks (tenant envelope,
    global pool) happens under one admission lock — see
    :mod:`repro.service.admission`.
    """

    def __init__(self, policies: Optional[List[TenantPolicy]] = None):
        self._lock = threading.RLock()
        self._accounts: Dict[str, TenantAccount] = {}
        for policy in policies or []:
            self.register(policy)

    def register(self, policy: TenantPolicy) -> TenantAccount:
        with self._lock:
            if policy.name in self._accounts:
                raise ValueError(f"tenant {policy.name!r} is already registered")
            account = TenantAccount(policy)
            self._accounts[policy.name] = account
            return account

    def account(self, name: str) -> TenantAccount:
        with self._lock:
            try:
                return self._accounts[name]
            except KeyError:
                raise UnknownTenant(
                    f"tenant {name!r} is not registered with this service"
                ) from None

    def report(self) -> List[Dict[str, object]]:
        """Per-tenant accounting rows, in registration order."""
        with self._lock:
            return [account.as_dict() for account in self._accounts.values()]
