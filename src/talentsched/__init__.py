"""Exact talent scheduling: order film scenes to minimize total actor pay.

Actors are paid from their first to their last day on location, so a good
shooting order packs each actor's scenes together.  The solver is a
double-ended branch and bound with subproblem simplification, pairwise
lower bounds, dominance pruning, and a direct-mapped cache of search
states; each of those rules is implemented once, as a kernel in
``solver``.  The package also ships an LP-format model exporter, an
exact oracle (a dynamic program over scene sets, ``brute_force``),
instance tooling, and a benchmark CLI; ``testkit``
holds test fixtures, slow reference oracles and adapters that call the
solver's kernels on one search node.
"""

from .cache import CacheStats, StateCache
from .cost import (
    Schedule,
    actor_spans,
    holding_cost,
    scene_costs,
    total_cost,
    work_cost,
)
from .ilp import MilpModel, build_model, export_milp, validate_assignment
from .instance import (
    Instance,
    InstanceFormatError,
    actors_of_scenes,
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
