"""Declarative configuration of the linear solves.

:class:`SolverOptions` travels from campaign configs (the ``[solver]`` TOML
table) through :class:`~repro.core.flow.FlowOptions`; because it is a plain
frozen dataclass it participates in the studies extraction-cache key and the
persisted result sidecars without any extra plumbing.  Every solve runs the
one path of :mod:`repro.simulator.solver`: dense LAPACK up to
:data:`~repro.simulator.solver.DENSE_MAX_UNKNOWNS` unknowns, SuperLU above.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...errors import SimulationError

#: Accepted backend names.  Both run the one LU path; ``"reuse-lu"`` stays
#: accepted so existing campaign configs keep loading.
BACKENDS = ("direct", "reuse-lu")


@dataclass(frozen=True)
class SolverOptions:
    """The ``[solver]`` table of a campaign: the backend name."""

    #: one of :data:`BACKENDS`
    backend: str = "direct"

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise SimulationError(
                f"unknown solver backend {self.backend!r}; "
                f"choose one of {', '.join(BACKENDS)}")
