"""Unified shared-memory work scheduling.

One process pool (:mod:`~repro.parallel.pool`), one task vocabulary
(:mod:`~repro.parallel.plan`), one dependency/priority-aware scheduler
(:mod:`~repro.parallel.scheduler`) and one zero-copy data plane
(:mod:`~repro.parallel.shm`).  The studies layer's ``ProcessPoolBackend`` is
a thin adapter over :class:`WorkScheduler`.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    ".plan": ("ON_ERROR_ABORT", "ON_ERROR_POLICIES", "ON_ERROR_RETRY_THEN_SKIP",
              "ON_ERROR_SKIP", "TaskFailure", "WorkItem", "validate_plan"),
    ".pool": ("MAX_WORKERS_ENV", "SharedProcessPool", "default_max_workers",
              "shared_pool"),
    ".scheduler": ("WorkScheduler",),
    ".shm": ("ArenaHandle", "InlineArena", "ObjectShipper", "SharedArena",
             "attach_arena", "load_object", "ship_object"),
})
