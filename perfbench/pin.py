#!/usr/bin/env python3
"""Regenerate perfbench/pins.json, the values every benchmark answer is
checked against.

    python3 perfbench/pin.py

For every workload it records the optimum of every base instance and, for
each seed in ``run.PINNED_SEEDS``, the node count of every instance.  Optima of
instances with at most 10 scenes come from ``brute_force`` and the worked
example's from the test suite's pinned value; the rest come from the solver
and must agree across every seed, since the seed only relabels actors.
Node counts are the solver's own and only change when the search changes.
The file is rewritten whole, so no seed or workload keeps stale pins.
"""

import json
import sys

import run
from talentsched import brute_force, solve
from talentsched.testkit import WORKED_HOLDING_BEST

BRUTE_FORCE_MAX_SCENES = 10


def reference_optimum(base) -> tuple[int, str] | None:
    if base.gen_seed is None:
        return WORKED_HOLDING_BEST, "testkit.WORKED_HOLDING_BEST"
    if base.n <= BRUTE_FORCE_MAX_SCENES:
        return brute_force(base.make())[0], "brute_force"
    return None


def pin_workload(workload, seeds) -> dict:
    optimum: dict[str, int] = {}
    source: dict[str, str] = {}
    for base in workload.bases:
        ref = reference_optimum(base)
        if ref is not None:
            optimum[base.name], source[base.name] = ref
    nodes = {}
    for seed in seeds:
        counts = {}
        for inst in run.build_instances(workload, seed):
            result = solve(inst, workload.config)
            if result.status != "optimal":
                raise SystemExit(f"{workload.name} seed {seed} {inst.name}: {result.status}")
            if optimum.setdefault(inst.name, result.holding_cost) != result.holding_cost:
                raise SystemExit(
                    f"{workload.name} seed {seed} {inst.name}: optimum "
                    f"{result.holding_cost}, expected {optimum[inst.name]}"
                )
            source.setdefault(inst.name, "solver")
            counts[inst.name] = result.subproblems
        nodes[str(seed)] = counts
        print(f"{workload.name} seed {seed}: {sum(counts.values())} nodes", file=sys.stderr)
    return {"optimum": optimum, "optimum_source": source, "nodes": nodes}


def main() -> int:
    pins = {name: pin_workload(w, run.PINNED_SEEDS) for name, w in run.WORKLOADS.items()}
    run.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
