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


def actor_spans(inst: Instance, sched: Schedule) -> list[tuple[int, int] | None]:
    """Per actor, the (first, last) on-location day in the schedule, 1-based;
    None for actors required by no scene."""
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
    return [
        (first[i], last[i]) if first[i] else None for i in range(inst.num_actors)
    ]


def work_cost(inst: Instance) -> int:
    """Schedule-independent pay: every actor paid for exactly the days their
    scenes are shooting."""
    return sum(
        inst.wages[i]
        * sum(inst.durations[j] for j in bits(inst.actor_scenes[i]))
        for i in range(inst.num_actors)
    )


def total_cost(inst: Instance, sched: Schedule) -> int:
    """Total wages paid over the schedule (work days plus waiting days)."""
    spans = actor_spans(inst, sched)
    return sum(
        inst.wages[i] * (span[1] - span[0] + 1)
        for i, span in enumerate(spans)
        if span is not None
    )


def holding_cost(inst: Instance, sched: Schedule) -> int:
    """Wages paid for days actors wait on location without shooting."""
    return total_cost(inst, sched) - work_cost(inst)


def scene_costs(inst: Instance, sched: Schedule) -> list[int]:
    """Cost attributed to each schedule position: scene duration times the
    combined wage of every actor on location during it."""
    spans = actor_spans(inst, sched)
    out = []
    day = 0
    for s in sched.order:
        d = inst.durations[s]
        rate = sum(
            inst.wages[i]
            for i, span in enumerate(spans)
            if span is not None and span[0] <= day + 1 and day + d <= span[1]
        )
        out.append(rate * d)
        day += d
    return out

