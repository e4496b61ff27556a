"""Analysis utilities: level-set projections, falsification, timing."""

from .projection import ProjectionGrid, project_sublevel_set, project_union
from .falsification import (
    FalsificationFinding,
    FalsificationFindings,
    check_certificate_decrease_along_trajectories,
    check_invariant_convergence,
    random_initial_states,
    run_falsification,
    simulate_relay_abstraction,
)
from .timing import StageTimer

__all__ = [
    "ProjectionGrid",
    "project_sublevel_set",
    "project_union",
    "FalsificationFinding",
    "FalsificationFindings",
    "simulate_relay_abstraction",
    "check_invariant_convergence",
    "check_certificate_decrease_along_trajectories",
    "random_initial_states",
    "run_falsification",
    "StageTimer",
]
