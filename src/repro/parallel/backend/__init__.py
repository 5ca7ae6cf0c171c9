"""Pluggable execution backends for the model-parallel runtime.

See :mod:`repro.parallel.backend.base` for the interface and
DESIGN.md ("Execution backends") for the bitwise-equivalence strategy.
"""

from repro.parallel.backend.base import (
    BACKEND_NAMES,
    BackendError,
    ExecutionBackend,
    StepResult,
    create_backend,
)
from repro.parallel.backend.context import (
    Group,
    RankContext,
    active_context,
    global_rank,
    rank_context,
    set_rank_context,
)
from repro.parallel.backend.events import (
    EventRecord,
    load_events,
    span_view,
)
from repro.parallel.backend.transport import (
    DEFAULT_CAPACITY,
    DEFAULT_SLOTS,
    DEFAULT_TIMEOUT_S,
    HEADER_SIZE,
    CorruptMessage,
    RankTransport,
    ShmBarrier,
    ShmChannel,
)

__all__ = [
    "BACKEND_NAMES",
    "BackendError",
    "ExecutionBackend",
    "StepResult",
    "create_backend",
    "Group",
    "RankContext",
    "active_context",
    "global_rank",
    "rank_context",
    "set_rank_context",
    "CorruptMessage",
    "EventRecord",
    "load_events",
    "span_view",
    "DEFAULT_CAPACITY",
    "DEFAULT_SLOTS",
    "DEFAULT_TIMEOUT_S",
    "HEADER_SIZE",
    "RankTransport",
    "ShmBarrier",
    "ShmChannel",
]
