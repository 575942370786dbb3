"""Pluggable execution backends for the distributed analysis.

:func:`make_backend` maps the CLI/config names to implementations:
``inline`` (single-process simulated network, the default) and
``sharded`` (first-layer nodes across ``multiprocessing`` workers).
Both produce identical verdicts, wait-for graphs, and blame roots —
see :mod:`repro.backend.sharded` for why.
"""
from typing import TYPE_CHECKING

from repro.util.lazy import lazy_exports

if TYPE_CHECKING:
    from repro.backend.base import (
        DEFAULT_SHARDS,
        AnalysisBackend,
        InlineBackend,
        make_backend,
    )
    from repro.backend.plan import plan_shards, shard_of_node
    from repro.backend.sharded import ShardedBackend

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "AnalysisBackend": "repro.backend.base",
    "DEFAULT_SHARDS": "repro.backend.base",
    "InlineBackend": "repro.backend.base",
    "make_backend": "repro.backend.base",
    "plan_shards": "repro.backend.plan",
    "shard_of_node": "repro.backend.plan",
    "ShardedBackend": "repro.backend.sharded",
})
