"""Execution runtime (§5): simulated federated network, aggregator,
committees with VSR hand-offs, secure interpreter, the executor, and the
durable execution journal backing crash-recovery resume."""

from .aggregator import AggregatorNode, Upload
from .committee import Committee, CommitteePool
from .deployment import Deployment, DeploymentInvalid
from .executor import ExecutionError, QueryExecutor, QueryRejected, QueryResult
from .interp import InterpreterError, MechanismHooks, Secret, SecureInterpreter
from .journal import (
    ExecutionJournal,
    JournalCorrupted,
    JournalDivergence,
    JournalError,
    JournalTruncated,
    run_to_completion,
)
from .network import Device, FederatedNetwork

__all__ = [
    "AggregatorNode",
    "Upload",
    "Committee",
    "CommitteePool",
    "Deployment",
    "DeploymentInvalid",
    "QueryExecutor",
    "QueryResult",
    "QueryRejected",
    "ExecutionError",
    "ExecutionJournal",
    "JournalCorrupted",
    "JournalDivergence",
    "JournalError",
    "JournalTruncated",
    "run_to_completion",
    "SecureInterpreter",
    "MechanismHooks",
    "Secret",
    "InterpreterError",
    "Device",
    "FederatedNetwork",
]
