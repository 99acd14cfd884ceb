import itertools
import random

import pytest

from talentsched import (
    Instance,
    Schedule,
    generate_instance,
    holding_cost,
    total_cost,
    work_cost,
)
from talentsched.instance import bits
from talentsched.testkit import (
    WORKED_BEST_ORDER,
    WORKED_HOLDING_BEST,
    WORKED_HOLDING_IDENTITY,
    WORKED_TOTAL_BEST,
    WORKED_TOTAL_IDENTITY,
    fixture_worked_example,
)

from support import (
    SearchNode,
    enumerate_future_cost,
    fixture_partial_example,
    increment,
    past_cost,
    random_node,
)

IDENTITY12 = Schedule(tuple(range(12)))


def test_worked_example_identity():
    inst = fixture_worked_example()
    assert total_cost(inst, IDENTITY12) == WORKED_TOTAL_IDENTITY
    assert holding_cost(inst, IDENTITY12) == WORKED_HOLDING_IDENTITY


def test_worked_example_best_order():
    inst = fixture_worked_example()
    best = Schedule(WORKED_BEST_ORDER)
    assert total_cost(inst, best) == WORKED_TOTAL_BEST
    assert holding_cost(inst, best) == WORKED_HOLDING_BEST


def test_single_scene_costs():
    inst = Instance(1, 2, (0b11,), (4,), (3, 5))
    sched = Schedule((0,))
    assert total_cost(inst, sched) == 4 * (3 + 5)
    assert holding_cost(inst, sched) == 0


def test_everyone_in_every_scene_has_no_holding():
    inst = generate_instance(6, 4, seed=1, density=1.0)
    rng = random.Random(0)
    order = list(range(6))
    rng.shuffle(order)
    assert holding_cost(inst, Schedule(tuple(order))) == 0


def test_invalid_schedule_rejected():
    inst = fixture_worked_example()
    with pytest.raises(ValueError):
        total_cost(inst, Schedule((0, 1)))
    with pytest.raises(ValueError):
        total_cost(inst, Schedule(tuple([0] * 12)))


def test_total_minus_holding_is_constant():
    rng = random.Random(11)
    for seed in range(10):
        inst = generate_instance(9, 6, seed=seed, density=0.4)
        const = work_cost(inst)
        for _ in range(10):
            order = list(range(inst.num_scenes))
            rng.shuffle(order)
            sched = Schedule(tuple(order))
            assert total_cost(inst, sched) - holding_cost(inst, sched) == const


def test_reversal_symmetry():
    rng = random.Random(13)
    for seed in range(10):
        inst = generate_instance(10, 5, seed=seed, density=0.35)
        order = list(range(inst.num_scenes))
        rng.shuffle(order)
        fwd = Schedule(tuple(order))
        rev = Schedule(tuple(reversed(order)))
        assert total_cost(inst, fwd) == total_cost(inst, rev)


def test_partial_example_past_cost():
    inst, node = fixture_partial_example()
    w = inst.wages
    d = inst.durations
    expected = w[0] * (d[1] + d[3]) + w[1] * d[1] + w[2] * d[4]
    assert past_cost(inst, node) == expected


def test_empty_blocks_have_no_past_cost():
    inst = fixture_worked_example()
    node = SearchNode(front=(), back=(), remaining=inst.all_scenes)
    assert past_cost(inst, node) == 0


def test_partial_example_increments():
    inst, node = fixture_partial_example()
    w = inst.wages
    d = inst.durations
    assert increment(inst, node, 3) == (w[1] + w[3]) * d[3]
    assert increment(inst, node, 2) == w[2] * d[3]


def test_increment_requires_remaining_scene():
    inst, node = fixture_partial_example()
    with pytest.raises(ValueError):
        increment(inst, node, 0)


def test_increment_order_independent():
    inst, node = fixture_partial_example()
    shuffled = SearchNode(
        front=tuple(reversed(node.front)),
        back=tuple(reversed(node.back)),
        remaining=node.remaining,
    )
    for s in bits(node.remaining):
        assert increment(inst, node, s) == increment(inst, shuffled, s)


def _walk_branch(inst, rng):
    """Random double-ended placement run, priced by the solver's
    ``_increment``; yields (node after the placement, increment)."""
    remaining = inst.all_scenes
    front: tuple[int, ...] = ()
    back: tuple[int, ...] = ()
    front_turn = True
    while remaining:
        node = SearchNode(front=front, back=back, remaining=remaining)
        scene = rng.choice(list(bits(remaining)))
        if front_turn:
            inc = increment(inst, node, scene)
            front = front + (scene,)
        else:
            flipped = SearchNode(front=back, back=front, remaining=remaining)
            inc = increment(inst, flipped, scene)
            back = (scene,) + back
        remaining &= ~(1 << scene)
        front_turn = not front_turn
        yield SearchNode(front=front, back=back, remaining=remaining), inc


def test_increments_accumulate_to_past_cost():
    rng = random.Random(17)
    for seed in range(15):
        inst = generate_instance(8, 5, seed=100 + seed, density=0.4)
        running = 0
        last_node = None
        for node, inc in _walk_branch(inst, rng):
            running += inc
            assert running == past_cost(inst, node)
            last_node = node
        # a fully fixed partial schedule carries the schedule's whole holding
        full = Schedule(last_node.front + last_node.back)
        assert running == holding_cost(inst, full)


def test_past_cost_on_random_split_nodes():
    # past cost never exceeds the holding of any completion
    rng = random.Random(23)
    for seed in range(10):
        inst = generate_instance(8, 6, seed=200 + seed, density=0.4)
        for _ in range(10):
            node = random_node(inst, rng, max_remaining=4)
            pc = past_cost(inst, node)
            mid = list(bits(node.remaining))
            rng.shuffle(mid)
            sched = Schedule(node.front + tuple(mid) + node.back)
            assert pc <= holding_cost(inst, sched)


def test_future_cost_oracle_completes_the_past_cost():
    # past plus future cost is the best holding over every middle order
    rng = random.Random(29)
    for seed in range(20):
        inst = generate_instance(7, 5, seed=300 + seed, density=0.4)
        for _ in range(5):
            node = random_node(inst, rng, max_remaining=5)
            best = min(
                holding_cost(inst, Schedule(node.front + mid + node.back))
                for mid in itertools.permutations(bits(node.remaining))
            )
            assert past_cost(inst, node) + enumerate_future_cost(inst, node) == best
