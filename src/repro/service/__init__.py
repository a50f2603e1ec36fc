"""Multi-tenant query service: admission, scheduling, plan caching.

The serving layer over one deployment — many analysts, one device
population, one global ε. See ``service.py`` for the submission
lifecycle (admit → schedule → cache → execute) and ARCHITECTURE.md §16
for the design, including the scheduler's starvation-freedom argument.
"""

from .admission import (
    AdmissionController,
    AdmissionRejected,
    AdmissionScore,
    Submission,
)
from .cache import CacheStatistics, PlanCache
from .scheduler import BudgetScheduler
from .service import (
    QueryService,
    ServiceRecord,
    ServiceStatistics,
    SubmissionTicket,
)
from .tenants import TenantAccount, TenantPolicy, TenantRegistry, UnknownTenant

__all__ = [
    "AdmissionController",
    "AdmissionRejected",
    "AdmissionScore",
    "BudgetScheduler",
    "CacheStatistics",
    "PlanCache",
    "QueryService",
    "ServiceRecord",
    "ServiceStatistics",
    "Submission",
    "SubmissionTicket",
    "TenantAccount",
    "TenantPolicy",
    "TenantRegistry",
    "UnknownTenant",
]
