"""One deployment: the values that shape a simulated run, validated once.

A :class:`Deployment`'s fields are exactly the keys of an execution
journal's ``open`` record, and :meth:`Deployment.build` is the one
construction order of ``repro run``, ``repro chaos``, ``repro resume``,
``repro eval chaos`` and ``tools/rss_curve.py``. A value no run can use is
refused at construction, before any planning, keygen or charge: committees
need an honest majority of at least 3 members (§5.1), and ε must be
positive and finite (§5.2).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, fields
from typing import Optional, Tuple

from ..analysis.types import QueryEnvironment
from ..faults import FaultInjector, FaultPlan
from ..planner.search import Planner
from .executor import QueryExecutor, QueryRejected, QueryResult
from .journal import ExecutionJournal, JournalCorrupted, run_to_completion
from .network import FederatedNetwork

#: The query every chaos run executes (``repro chaos``, ``repro eval chaos``).
CHAOS_QUERY = "aggr = sum(db); output(em(aggr));"

#: The manifest keys of every recipe, with their JSON types (a bool is no number).
_COMMON = dict(
    recipe=str, query_name=str, source=str, devices=int, categories=int,
    epsilon=(int, float), sensitivity=(int, float), committee_size=int, seed=int,
    shard_size=int, tree_fanout=int,
)
#: The keys only one recipe carries; the other leaves them None.
_RECIPE_FIELDS = {
    "run": dict(malicious=(int, float)),
    "chaos": dict(key_prime_bits=int, fault_seed=int, scenario=dict),
}


class DeploymentInvalid(QueryRejected):
    """A deployment value no run can use; the message names the field."""

    def __init__(self, field: str, reason: str):
        super().__init__(f"{field}: {reason}")
        self.field = field


@dataclass(frozen=True)
class Deployment:
    """One run's deployment; a plain run (recipe ``"run"``) carries a
    malicious fraction, a chaos run a key size and a seeded fault plan."""

    recipe: str
    query_name: str
    source: str
    devices: int
    categories: int
    epsilon: float
    sensitivity: float
    committee_size: int
    seed: int
    shard_size: int
    tree_fanout: int
    malicious: Optional[float] = None
    key_prime_bits: Optional[int] = None
    fault_seed: Optional[int] = None
    scenario: Optional[dict] = None

    def __post_init__(self) -> None:
        if not isinstance(self.recipe, str) or self.recipe not in _RECIPE_FIELDS:
            raise DeploymentInvalid("recipe", f"{self.recipe!r} is not 'run' or 'chaos'")
        carried = dict(_COMMON, **_RECIPE_FIELDS[self.recipe])
        for field in fields(self):
            value, kind = getattr(self, field.name), carried.get(field.name)
            if kind is None and value is not None:
                raise DeploymentInvalid(field.name, f"the {self.recipe} recipe does not carry it")
            if kind is not None and (not isinstance(value, kind) or isinstance(value, bool)):
                raise DeploymentInvalid(field.name, f"missing or mistyped ({value!r})")
        for name, holds, reason in (
            ("devices", self.devices >= 4, "a deployment needs at least 4 devices"),
            ("categories", self.categories >= 1, "a row needs at least 1 category"),
            ("epsilon", 0 < self.epsilon < math.inf, "ε must be finite and positive"),
            ("sensitivity", 0 < self.sensitivity < math.inf, "must be finite and positive"),
            ("committee_size", 3 <= self.committee_size <= self.devices,
             f"an honest-majority committee has 3 to {self.devices} (the devices) members"),
            ("shard_size", self.shard_size >= 1, "a shard holds at least 1 device"),
            ("tree_fanout", self.tree_fanout >= 2, "a tree node has at least 2 children"),
            ("malicious", 0 <= (self.malicious or 0) < 1, "the fraction lies in [0, 1)"),
        ):
            if not holds:
                raise DeploymentInvalid(name, f"{reason}, got {getattr(self, name)!r}")
        if self.scenario is not None:
            try:
                FaultPlan.from_dict(self.scenario)
            except (KeyError, TypeError, ValueError, AttributeError) as exc:
                raise DeploymentInvalid("scenario", f"describes no fault plan ({exc!r})") from exc

    def as_manifest(self) -> dict:
        """The journal's ``open`` payload: every field the recipe carries."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return {name: value for name, value in values.items() if value is not None}

    @classmethod
    def from_manifest(cls, manifest: dict) -> "Deployment":
        """The deployment an ``open`` payload describes, else :class:`JournalCorrupted`."""
        try:
            return cls(**manifest)
        except (TypeError, DeploymentInvalid) as exc:
            raise JournalCorrupted(
                f"the journal carries no run manifest this build can rebuild ({exc})"
            ) from exc

    def build(self, journal: Optional[ExecutionJournal] = None) -> QueryExecutor:
        """The executor this deployment describes, around ``journal``.

        The shared rng is consumed in this order (network, data load,
        executor), and a resume must replay the same draws. A run shares
        one rng between sortition and executor; a chaos run seeds the
        executor apart and injects its scenario's faults. A source that
        does not plan raises one of ``planner.search.PLANNING_FAILURES``.
        """
        env = QueryEnvironment(
            num_participants=self.devices, row_width=self.categories,
            epsilon=self.epsilon, sensitivity=self.sensitivity,
        )
        planning = Planner(env).plan_source(self.source, name=self.query_name)
        rng = random.Random(self.seed)
        network = FederatedNetwork(self.devices, rng=rng, malicious_fraction=self.malicious or 0.0)
        network.load_categorical_data(self.categories)
        recipe = {"rng": rng}
        if self.recipe == "chaos":
            faults = FaultInjector(FaultPlan.from_dict(self.scenario), seed=self.fault_seed)
            recipe = dict(
                rng=random.Random(self.seed + 1), key_prime_bits=self.key_prime_bits, faults=faults
            )
        return QueryExecutor(
            network, planning, committee_size=self.committee_size, journal=journal,
            shard_size=self.shard_size, tree_fanout=self.tree_fanout, **recipe,
        )

    def run(self, journal_path: Optional[str] = None) -> Tuple[QueryResult, int]:
        """Build and run; returns ``(result, resumes)``. With ``journal_path``
        the run is journaled there and driven through crash→resume."""
        if journal_path is None:
            return self.build().run(), 0
        return run_to_completion(self.build, journal_path, self.as_manifest())
