"""Schedule evaluation.

A schedule is a permutation of scene indices shot back to back; days are
1-based over the full horizon.  Every actor is paid from their first to
their last day on location; the holding cost is the part of that pay spent
waiting.  All arithmetic is integer.
"""

from __future__ import annotations

from dataclasses import dataclass

from .instance import Instance, bits


@dataclass(frozen=True)
class Schedule:
    """A shooting order: permutation of scene indices 0..n-1."""

    order: tuple[int, ...]


def _check_schedule(inst: Instance, sched: Schedule) -> None:
    if sorted(sched.order) != list(range(inst.num_scenes)):
        raise ValueError("schedule is not a permutation of the instance's scenes")


def work_cost(inst: Instance) -> int:
    """Schedule-independent pay: every actor paid for exactly the days their
    scenes are shooting."""
    return sum(
        inst.wages[i]
        * sum(inst.durations[j] for j in bits(inst.actor_scenes[i]))
        for i in range(inst.num_actors)
    )


def total_cost(inst: Instance, sched: Schedule) -> int:
    """Total wages paid over the schedule (work days plus waiting days):
    every actor is paid from their first day on location to their last."""
    _check_schedule(inst, sched)
    first = [0] * inst.num_actors
    last = [0] * inst.num_actors
    day = 0
    for s in sched.order:
        d = inst.durations[s]
        for i in bits(inst.scene_actors[s]):
            if first[i] == 0:
                first[i] = day + 1
            last[i] = day + d
        day += d
    return sum(
        inst.wages[i] * (last[i] - first[i] + 1)
        for i in range(inst.num_actors)
        if first[i]
    )


def holding_cost(inst: Instance, sched: Schedule) -> int:
    """Wages paid for days actors wait on location without shooting."""
    return total_cost(inst, sched) - work_cost(inst)

