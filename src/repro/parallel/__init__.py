"""Work scheduling: one plan vocabulary, one scheduler, one process pool.

One task vocabulary (:mod:`~repro.parallel.plan`), one dependency/priority-
aware scheduler (:mod:`~repro.parallel.scheduler`) that runs a plan in the
calling process with one worker, and one persistent process pool
(:mod:`~repro.parallel.pool`) it imports only for wider plans.  The sweep
runner drives :class:`WorkScheduler` directly.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    ".plan": ("ON_ERROR_ABORT", "ON_ERROR_POLICIES", "ON_ERROR_RETRY_THEN_SKIP",
              "ON_ERROR_SKIP", "TaskFailure", "WorkItem", "validate_plan"),
    ".pool": ("MAX_WORKERS_ENV", "SharedProcessPool", "default_max_workers",
              "shared_pool"),
    ".scheduler": ("WorkScheduler",),
})
