"""Core analyses: transition system, wait state tracking, detection."""
from repro.core.adaptation import (
    AdaptiveAnalysis,
    Verdict,
    analyze_with_adaptation,
)
from repro.core.detector import (
    DistributedDeadlockDetector,
    DistributedOutcome,
    detect_deadlocks_distributed,
)
from repro.core.transition import (
    RULE_ALL,
    RULE_ANY,
    RULE_COLL,
    RULE_NB,
    RULE_P2P,
    State,
    TransitionSystem,
    UnexpectedMatch,
)
from repro.core.waitfor import (
    GroupClause,
    WaitForCondition,
    WaitTarget,
    wait_for_conditions,
)
from repro.core.waitstate import DeadlockAnalysis, analyze_trace

__all__ = [
    "AdaptiveAnalysis",
    "Verdict",
    "analyze_with_adaptation",
    "DeadlockAnalysis",
    "DistributedDeadlockDetector",
    "DistributedOutcome",
    "GroupClause",
    "RULE_ALL",
    "RULE_ANY",
    "RULE_COLL",
    "RULE_NB",
    "RULE_P2P",
    "State",
    "TransitionSystem",
    "UnexpectedMatch",
    "WaitForCondition",
    "WaitTarget",
    "analyze_trace",
    "detect_deadlocks_distributed",
    "wait_for_conditions",
]
