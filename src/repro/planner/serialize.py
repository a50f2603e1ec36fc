"""JSON-safe serialization of plans and planning results.

Deployments need to ship the chosen plan around: the aggregator publishes
it inside the query authorization certificate, committees check the
vignette they execute against it, and tooling wants to diff plans across
planner versions. This module renders plans and planning results as plain
dictionaries (stable key order, no custom types) suitable for
``json.dumps``.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from dataclasses import fields
from typing import Any, Dict, Union

from ..analysis.types import QueryEnvironment
from ..lang.ast import Node, Program
from ..lang.parser import parse
from ..lang.simplify import simplify
from .costmodel import CostVector, Work
from .plan import Plan, Vignette
from .search import PlanningResult


def work_to_dict(work: Work) -> Dict[str, float]:
    """Non-zero work counters only, for compact plan documents."""
    out = {}
    for f in fields(Work):
        value = getattr(work, f.name)
        if value:
            out[f.name] = value
    return out


def vignette_to_dict(vignette: Vignette) -> Dict[str, Any]:
    out: Dict[str, Any] = {
        "name": vignette.name,
        "location": vignette.location.value,
        "crypto": vignette.crypto,
        "instances": vignette.instances,
        "work": work_to_dict(vignette.work),
    }
    if vignette.committee_group is not None:
        out["committee_group"] = vignette.committee_group
        out["committee_type"] = vignette.committee_type
    return out


def cost_to_dict(cost: CostVector) -> Dict[str, float]:
    return {metric: cost.get(metric) for metric in CostVector.METRICS}


def plan_to_dict(plan: Plan) -> Dict[str, Any]:
    score = plan.score
    return {
        "query": plan.query_name,
        "scheme": {
            "name": plan.scheme.name,
            "ring_log2": plan.scheme.ring_log2,
            "ciphertext_modulus_bits": plan.scheme.ciphertext_modulus_bits,
            "ciphertext_bytes": plan.scheme.ciphertext_bytes,
        },
        "choices": dict(sorted(plan.choices.items())),
        "committees": {
            "count": score.committee_params.num_committees,
            "size": score.committee_params.committee_size,
            "malicious_fraction": score.committee_params.malicious_fraction,
            "churn_tolerance": score.committee_params.churn_tolerance,
        },
        "cost": cost_to_dict(plan.cost),
        "committee_breakdown": [
            {
                "type": entry.committee_type,
                "seconds": entry.seconds,
                "bytes_sent": entry.bytes_sent,
                "committees": entry.committees,
            }
            for entry in score.committee_breakdown
        ],
        "vignettes": [vignette_to_dict(v) for v in plan.vignettes],
    }


# ------------------------------------------------------------ fingerprints
#
# The service layer's keyed plan cache needs a stable identity for "the
# same query shape in the same environment": two submissions that would
# drive the planner through an identical search must collide, and any
# input that could change the chosen plan (or its privacy certificate)
# must not. The fingerprint therefore covers the *normalized* IR — the
# simplified AST with source line numbers stripped, so formatting and
# constant-foldable phrasing differences collide — plus every
# QueryEnvironment field the planner or certifier reads, the budget
# class, and the scheme families this build can instantiate.

#: Scheme families the planner's grammar can choose from in this build.
#: Part of the cache key so a cache serialized against a build with a
#: different crypto menu can never satisfy a lookup.
AVAILABLE_SCHEMES = ("ahe_paillier", "fhe_bgv")

#: Bumped when fingerprint semantics change (key fields added/removed),
#: so mixed-version caches miss instead of colliding wrongly.
FINGERPRINT_VERSION = 1


def budget_class(epsilon: float) -> str:
    """Coarse ε class used in admission policy and the plan-cache key."""
    if epsilon < 0.1:
        return "micro"
    if epsilon < 1.0:
        return "small"
    if epsilon < 10.0:
        return "standard"
    return "bulk"


def _ast_shape(node: Any) -> Any:
    """The AST as nested plain data, dropping source line numbers."""
    if isinstance(node, Node):
        out: list = [type(node).__name__]
        for f in dataclasses.fields(node):
            if f.name == "line":
                continue
            out.append(_ast_shape(getattr(node, f.name)))
        return out
    if isinstance(node, (list, tuple)):
        return [_ast_shape(item) for item in node]
    return node


@functools.lru_cache(maxsize=1024)
def _source_shape_json(source: str) -> str:
    """Canonical JSON of a source string's normalized AST shape, memoized.

    parse + simplify dominate the fingerprint cost, and the serving
    layer fingerprints the same source text on every submission of a
    repeated query — exactly the traffic the plan cache exists for — so
    the source → shape mapping is cached. Safe because the mapping is a
    pure function of the text.
    """
    shape = _ast_shape(simplify(parse(source)))
    return json.dumps(shape, sort_keys=True, separators=(",", ":"))


def environment_fingerprint_dict(env: QueryEnvironment) -> Dict[str, Any]:
    """Every environment field that can steer planning or certification."""
    element = env.db_element
    return {
        "num_participants": env.num_participants,
        "row_width": env.row_width,
        "db_element": [element.basic, element.interval.lo, element.interval.hi],
        "epsilon": env.epsilon,
        "delta": env.delta,
        "sensitivity": env.sensitivity,
        "row_encoding": env.row_encoding,
        "row_l1": env.row_l1,
        "constants": dict(sorted(env.constants.items())),
        "budget_class": budget_class(env.epsilon),
        "schemes": list(AVAILABLE_SCHEMES),
    }


def query_fingerprint(
    query: Union[str, Program], env: QueryEnvironment
) -> str:
    """SHA-256 key of (normalized query IR, environment) for plan caching.

    Accepts source text (parsed and constant-folded here, mirroring
    :meth:`Planner.plan_program`) or an already-parsed :class:`Program`.
    """
    if isinstance(query, str):
        program_json = _source_shape_json(query)
    else:
        program_json = json.dumps(
            _ast_shape(simplify(query)), sort_keys=True, separators=(",", ":")
        )
    environment_json = json.dumps(
        environment_fingerprint_dict(env), sort_keys=True, separators=(",", ":")
    )
    # Assembled field-by-field (keys in sorted order) so the memoized
    # program fragment slots in without re-serializing the whole doc;
    # byte-identical to dumping {"environment", "program", "version"}
    # with sort_keys=True.
    canonical = (
        '{"environment":' + environment_json
        + ',"program":' + program_json
        + ',"version":' + json.dumps(FINGERPRINT_VERSION) + "}"
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def planning_result_to_dict(result: PlanningResult) -> Dict[str, Any]:
    stats = result.statistics
    out: Dict[str, Any] = {
        "succeeded": result.succeeded,
        "certificate": {
            "epsilon": result.certificate.epsilon,
            "delta": result.certificate.delta,
            "mechanisms": [
                {
                    "mechanism": use.mechanism,
                    "epsilon": use.epsilon,
                    "delta": use.delta,
                    "k": use.k,
                    "sensitivity_l1": use.sensitivity.l1,
                    "sensitivity_linf": use.sensitivity.linf,
                }
                for use in result.certificate.mechanisms
            ],
        },
        "statistics": {
            "space_size": stats.space_size,
            "prefixes_considered": stats.prefixes_considered,
            "candidates_scored": stats.candidates_scored,
            "candidates_feasible": stats.candidates_feasible,
            "pruned_by_constraint": stats.pruned_by_constraint,
            "pruned_by_bound": stats.pruned_by_bound,
            "runtime_seconds": stats.runtime_seconds,
            "cost_cache_hits": stats.cost_cache_hits,
            "cost_cache_misses": stats.cost_cache_misses,
            "expansion_cache_hits": stats.expansion_cache_hits,
            "expansion_cache_misses": stats.expansion_cache_misses,
            "nodes_reordered": stats.nodes_reordered,
            # Output-format residue: the search is one process (ARCHITECTURE
            # §26); the key leaves when the plan JSON is next versioned.
            "workers": 1,
        },
    }
    if result.plan is not None:
        out["plan"] = plan_to_dict(result.plan)
    privacy_certificate = result.privacy_certificate
    if privacy_certificate is not None:
        # The dataflow analyzer's machine-checkable proof travels with the
        # plan; its digest is what the executor re-checks before running.
        out["privacy_certificate"] = privacy_certificate.to_dict()
        out["privacy_certificate_digest"] = privacy_certificate.digest()
    return out
