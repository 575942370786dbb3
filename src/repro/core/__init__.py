"""Core analyses: transition system, wait state tracking, detection."""
from typing import TYPE_CHECKING

from repro.util.lazy import lazy_exports

if TYPE_CHECKING:
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

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "AdaptiveAnalysis": "repro.core.adaptation",
    "Verdict": "repro.core.adaptation",
    "analyze_with_adaptation": "repro.core.adaptation",
    "DistributedDeadlockDetector": "repro.core.detector",
    "DistributedOutcome": "repro.core.detector",
    "detect_deadlocks_distributed": "repro.core.detector",
    "RULE_ALL": "repro.core.transition",
    "RULE_ANY": "repro.core.transition",
    "RULE_COLL": "repro.core.transition",
    "RULE_NB": "repro.core.transition",
    "RULE_P2P": "repro.core.transition",
    "State": "repro.core.transition",
    "TransitionSystem": "repro.core.transition",
    "UnexpectedMatch": "repro.core.transition",
    "GroupClause": "repro.core.waitfor",
    "WaitForCondition": "repro.core.waitfor",
    "WaitTarget": "repro.core.waitfor",
    "wait_for_conditions": "repro.core.waitfor",
    "DeadlockAnalysis": "repro.core.waitstate",
    "analyze_trace": "repro.core.waitstate",
})
