"""Exact talent scheduling: order film scenes to minimize total actor pay.

Actors are paid from their first to their last day on location, so a good
shooting order packs each actor's scenes together.  The solver is a
double-ended branch and bound with subproblem simplification, pairwise
lower bounds, dominance pruning, and a direct-mapped cache of search
states; each of those rules is implemented once, as a kernel in
``solver``.  The package also ships the integer model of the problem and
its LP-format export, an exact oracle (a dynamic program over scene sets,
``brute_force``), schedule costs, instance tooling, and a benchmark CLI;
``testkit`` holds the worked example that the tests and the benchmark
runner share.

Importing the package loads the solver and what it needs, but not the LP
model: ``build_model`` and ``export_milp`` load ``ilp`` on their first
use, so a process that only solves never builds it.
"""

from .cache import CacheStats, StateCache
from .cost import Schedule, holding_cost, total_cost, work_cost
from .instance import (
    Instance,
    InstanceFormatError,
    generate_instance,
    parse_instance,
    write_instance,
)
from .solver import (
    SolveConfig,
    SolveResult,
    brute_force,
    greedy_upper_bound,
    solve,
)

__all__ = [
    "CacheStats",
    "Instance",
    "InstanceFormatError",
    "Schedule",
    "SolveConfig",
    "SolveResult",
    "StateCache",
    "brute_force",
    "build_model",
    "export_milp",
    "generate_instance",
    "greedy_upper_bound",
    "holding_cost",
    "parse_instance",
    "solve",
    "total_cost",
    "work_cost",
    "write_instance",
]


def __getattr__(name):
    # PEP 562: the LP model's two names load ``ilp`` on their first use
    if name in ("build_model", "export_milp"):
        from . import ilp

        return getattr(ilp, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
