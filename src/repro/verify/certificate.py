"""Machine-checkable privacy certificates for analyzed plans.

The dataflow analyzer (:mod:`repro.verify.dataflow`) distills each clean
analysis into a :class:`PrivacyCertificate`: one :class:`NodeCertificate`
per release point with its taint label, proven sensitivity interval, the
noise scale it was proven against, and its (ε, δ) charge interval, plus
outward-rounded budget totals that must contain the accountant's number.

The certificate is a plain dict-of-scalars document so it can travel
alongside the serialized plan (``planner.serialize`` embeds it) and be
re-checked without importing the analyzer: :func:`PrivacyCertificate.
digest` hashes the canonical JSON form, and the executor refuses to run a
plan whose attached certificate digest does not match a fresh re-analysis
(a tampered plan or a stale certificate both fail closed).

The future rewrite engine consumes certificates the same way: a rewrite
is privacy-preserving iff the rewritten plan re-analyzes to a certificate
whose per-node charges are pointwise <= the original's totals.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..privacy.lattice import Bounds

#: Bumped whenever the certificate schema or the analysis semantics
#: change, so stale serialized certificates fail digest comparison loudly.
CERTIFICATE_VERSION = 1


def _num(x: float) -> Any:
    """JSON-safe float (inf/nan have no JSON literal)."""
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):
        return "nan"
    return x


def _unnum(x: Any) -> float:
    if isinstance(x, str):
        return float(x)
    return float(x)


def _bounds_to_list(b: Bounds) -> List[Any]:
    return [_num(b.lo), _num(b.hi)]


def _bounds_from_list(raw) -> Bounds:
    return Bounds(_unnum(raw[0]), _unnum(raw[1]))


@dataclass(frozen=True)
class NodeCertificate:
    """The proof obligations discharged at one release point."""

    node_path: str  # e.g. "post[2]:line 3" or "ops[4]:noise_output"
    mechanism: str  # "laplace" | "em" | "manual"
    label: str  # TaintLabel name of the value entering the mechanism
    sensitivity_l1: Bounds
    sensitivity_linf: Bounds
    noise_scale: Optional[Bounds]  # proven scale interval (laplace), None for em
    epsilon: Bounds
    delta: Bounds
    k: int = 1
    sample_phi: Optional[float] = None
    multiplicity: int = 1  # loop multiplier folded into epsilon/delta

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "node_path": self.node_path,
            "mechanism": self.mechanism,
            "label": self.label,
            "sensitivity_l1": _bounds_to_list(self.sensitivity_l1),
            "sensitivity_linf": _bounds_to_list(self.sensitivity_linf),
            "epsilon": _bounds_to_list(self.epsilon),
            "delta": _bounds_to_list(self.delta),
            "k": self.k,
            "multiplicity": self.multiplicity,
        }
        out["noise_scale"] = (
            _bounds_to_list(self.noise_scale) if self.noise_scale else None
        )
        out["sample_phi"] = _num(self.sample_phi) if self.sample_phi else None
        return out

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "NodeCertificate":
        return cls(
            node_path=raw["node_path"],
            mechanism=raw["mechanism"],
            label=raw["label"],
            sensitivity_l1=_bounds_from_list(raw["sensitivity_l1"]),
            sensitivity_linf=_bounds_from_list(raw["sensitivity_linf"]),
            noise_scale=(
                _bounds_from_list(raw["noise_scale"])
                if raw.get("noise_scale")
                else None
            ),
            epsilon=_bounds_from_list(raw["epsilon"]),
            delta=_bounds_from_list(raw["delta"]),
            k=int(raw.get("k", 1)),
            sample_phi=(
                _unnum(raw["sample_phi"]) if raw.get("sample_phi") else None
            ),
            multiplicity=int(raw.get("multiplicity", 1)),
        )


@dataclass(frozen=True)
class PrivacyCertificate:
    """One plan's machine-checkable privacy proof summary."""

    query_name: str
    nodes: Tuple[NodeCertificate, ...]
    total_epsilon: Bounds  # outward-rounded sum of node epsilons
    total_delta: Bounds
    claimed_epsilon: float  # the accountant-facing certificate totals
    claimed_delta: float
    analysis: str = "dataflow"  # "dataflow" | "manual"
    version: int = CERTIFICATE_VERSION
    checked_rules: Tuple[str, ...] = field(default_factory=tuple)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": self.version,
            "analysis": self.analysis,
            "query_name": self.query_name,
            "nodes": [node.to_dict() for node in self.nodes],
            "total_epsilon": _bounds_to_list(self.total_epsilon),
            "total_delta": _bounds_to_list(self.total_delta),
            "claimed_epsilon": _num(self.claimed_epsilon),
            "claimed_delta": _num(self.claimed_delta),
            "checked_rules": list(self.checked_rules),
        }

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "PrivacyCertificate":
        return cls(
            query_name=raw["query_name"],
            nodes=tuple(NodeCertificate.from_dict(n) for n in raw["nodes"]),
            total_epsilon=_bounds_from_list(raw["total_epsilon"]),
            total_delta=_bounds_from_list(raw["total_delta"]),
            claimed_epsilon=_unnum(raw["claimed_epsilon"]),
            claimed_delta=_unnum(raw["claimed_delta"]),
            analysis=raw.get("analysis", "dataflow"),
            version=int(raw.get("version", CERTIFICATE_VERSION)),
            checked_rules=tuple(raw.get("checked_rules", ())),
        )

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def digest_bytes(self) -> bytes:
        return hashlib.sha256(self.canonical_json().encode("utf-8")).digest()

    def digest(self) -> str:
        return self.digest_bytes().hex()

    def format(self) -> str:
        lines = [
            f"privacy certificate for {self.query_name!r} "
            f"({self.analysis} analysis, v{self.version}, "
            f"digest {self.digest()[:16]}...)"
        ]
        for node in self.nodes:
            scale = f", scale {node.noise_scale}" if node.noise_scale else ""
            phi = f", phi={node.sample_phi:g}" if node.sample_phi else ""
            mult = f" x{node.multiplicity}" if node.multiplicity > 1 else ""
            lines.append(
                f"  {node.node_path}: {node.mechanism}{mult} on {node.label} "
                f"value, sens l1={node.sensitivity_l1} "
                f"linf={node.sensitivity_linf}{scale}{phi} "
                f"-> eps {node.epsilon}, delta {node.delta}"
            )
        lines.append(
            f"  total: eps {self.total_epsilon} (claimed "
            f"{self.claimed_epsilon:g}), delta {self.total_delta} "
            f"(claimed {self.claimed_delta:.3e})"
        )
        return "\n".join(lines)
