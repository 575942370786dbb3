"""repro: runtime MPI deadlock detection with distributed wait state tracking.

A from-scratch reproduction of Hilbrich et al., "Distributed Wait State
Tracking for Runtime MPI Deadlock Detection" (SC '13) — the scalable
deadlock-detection architecture of the MUST tool — including every
substrate it needs: a virtual MPI runtime, distributed point-to-point
and collective matching, a simulated tree-based overlay network (TBON),
the wait state transition system and its distributed implementation,
AND/OR wait-for-graph deadlock detection with DOT/HTML reports, and a
performance model that regenerates the paper's evaluation figures.

Quickstart::

    from repro import Session

    def worker(rank):
        peer = 1 - rank.rank
        yield rank.recv(source=peer)   # recv-recv deadlock (Fig. 2a)
        yield rank.send(dest=peer)
        yield rank.finalize()

    with Session() as session:
        outcome = session.run([worker, worker])
        assert outcome.has_deadlock

The :class:`Session` facade (with :class:`AnalysisConfig`) is the
stable entry point; ``Session(backend="sharded", shards=4)`` runs the
analysis across worker processes. The pre-1.1 free functions
(``run_programs``, ``analyze_trace``,
``detect_deadlocks_distributed``) completed their one-release
deprecation window in 1.1 and are no longer importable from this
package — importing them raises :class:`AttributeError` naming the
:class:`Session` replacement. The originals remain available from
their home modules (``repro.runtime.run_programs``,
``repro.core.analyze_trace``,
``repro.core.detect_deadlocks_distributed``) for internal use.
"""
from typing import TYPE_CHECKING

from repro.util.lazy import lazy_exports

if TYPE_CHECKING:
    from repro.api import AnalysisConfig, Session
    from repro.backend.base import (
        AnalysisBackend,
        InlineBackend,
        make_backend,
    )
    from repro.backend.sharded import ShardedBackend
    from repro.core.adaptation import (
        AdaptiveAnalysis,
        Verdict,
        analyze_with_adaptation,
    )
    from repro.core.detector import (
        DistributedDeadlockDetector,
        DistributedOutcome,
    )
    from repro.core.transition import TransitionSystem
    from repro.core.waitstate import DeadlockAnalysis
    from repro.mpi.blocking import BlockingSemantics
    from repro.mpi.constants import ANY_SOURCE, ANY_TAG, PROC_NULL, OpKind
    from repro.mpi.trace import MatchedTrace, Trace
    from repro.runtime.engine import RunResult
    from repro.runtime.program import Rank

__version__ = "1.2.0"

#: Legacy names removed after their one-release deprecation window
#: (shims in 1.1), mapped to the v1 replacement the error names.
_REMOVED_LEGACY = {
    "run_programs": (
        "repro.Session(...).record(programs) "
        "(the original stays at repro.runtime.run_programs)"
    ),
    "analyze_trace": (
        "repro.Session(...).analyze(trace) "
        "(the original stays at repro.core.analyze_trace)"
    ),
    "detect_deadlocks_distributed": (
        "repro.Session(...).analyze(trace) "
        "(the original stays at repro.core.detect_deadlocks_distributed)"
    ),
}

_lazy_getattr, __dir__, __all__ = lazy_exports(globals(), {
    "AnalysisConfig": "repro.api",
    "Session": "repro.api",
    "AnalysisBackend": "repro.backend.base",
    "InlineBackend": "repro.backend.base",
    "make_backend": "repro.backend.base",
    "ShardedBackend": "repro.backend.sharded",
    "AdaptiveAnalysis": "repro.core.adaptation",
    "Verdict": "repro.core.adaptation",
    "analyze_with_adaptation": "repro.core.adaptation",
    "DistributedDeadlockDetector": "repro.core.detector",
    "DistributedOutcome": "repro.core.detector",
    "TransitionSystem": "repro.core.transition",
    "DeadlockAnalysis": "repro.core.waitstate",
    "BlockingSemantics": "repro.mpi.blocking",
    "ANY_SOURCE": "repro.mpi.constants",
    "ANY_TAG": "repro.mpi.constants",
    "PROC_NULL": "repro.mpi.constants",
    "OpKind": "repro.mpi.constants",
    "MatchedTrace": "repro.mpi.trace",
    "Trace": "repro.mpi.trace",
    "RunResult": "repro.runtime.engine",
    "Rank": "repro.runtime.program",
})
__all__.append("__version__")


def __getattr__(name: str):
    if name in _REMOVED_LEGACY:
        raise AttributeError(
            f"repro.{name} was removed in 1.2 (deprecated since 1.1); "
            f"use {_REMOVED_LEGACY[name]}"
        )
    return _lazy_getattr(name)
