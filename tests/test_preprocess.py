"""Node simplification as the solver runs it, in ``_simplify``, through
the testkit adapters."""

import random
from itertools import permutations

from talentsched import (
    Instance,
    Schedule,
    brute_force,
    generate_instance,
    holding_cost,
    solve,
    SolveConfig,
)
from talentsched.instance import bits, mask_of
from talentsched.testkit import SearchNode, kernel_node, random_node, simplify

# scene 0 anchors the front, scene 5 the back, scenes 1..4 are the middle.
# a3 is anchored on both sides, a4 only needs the back block.
PRE_ROWS = [
    "XXXXX.",
    "X.XXX.",
    ".XXX.X",
    "X.X..X",
    ".....X",
]


def _pre_instance():
    return Instance.from_rows(PRE_ROWS, (1, 2, 3, 4, 5, 6), (1, 1, 1, 1, 1))


def _expand(kn, order):
    """Original scene ids of a representative order, as the search's leaf
    expands it: each representative's members, consecutively."""
    return tuple(j for s in order for j in kn.members[s])


def test_worked_preprocess_example():
    inst = _pre_instance()
    node = SearchNode(front=(0,), back=(5,), remaining=mask_of([1, 2, 3, 4]))
    start = kernel_node(inst, node)
    simplified = simplify(start)
    assert simplified.active == mask_of([0, 1, 2])
    assert simplified.q_reps == mask_of([1, 2, 4])
    assert simplified.groups() == {2: (2, 3)}
    assert simplified.dur_view[2] == 3 + 4
    assert simplified.member_mask[2] == mask_of([2, 3])
    assert simplified.member_actors[2] == inst.scene_actors[2] | inst.scene_actors[3]
    assert simplified.front_act == start.front_act
    assert simplified.back_act == start.back_act


def test_no_rule_fires():
    inst = Instance.from_rows(
        ["XX.", "X.X", ".XX"], (1, 1, 1), (1, 1, 1)
    )
    node = SearchNode(front=(), back=(), remaining=0b111)
    simplified = simplify(kernel_node(inst, node))
    assert simplified.q_reps == 0b111
    assert not simplified.groups()
    assert simplified.active == 0b111


def test_idempotent():
    rng = random.Random(31)
    for seed in range(20):
        inst = generate_instance(10, 6, seed=300 + seed, density=0.45)
        node = random_node(inst, rng, max_remaining=8)
        once = simplify(kernel_node(inst, node))
        twice = simplify(once)
        # no further drop and no further merge
        assert twice == once


def test_active_actors_only_shrink():
    rng = random.Random(37)
    for seed in range(20):
        inst = generate_instance(9, 6, seed=400 + seed, density=0.4)
        node = random_node(inst, rng, max_remaining=7)
        start = rng.getrandbits(inst.num_actors)
        node = SearchNode(node.front, node.back, node.remaining, 0, start)
        simplified = simplify(kernel_node(inst, node))
        assert simplified.active & ~start == 0


def test_expand_identity():
    inst = Instance.from_rows(["XX.", "X.X", ".XX"], (1, 1, 1), (1, 1, 1))
    kn = simplify(kernel_node(inst, SearchNode((), (), 0b111)))
    assert _expand(kn, (2, 0, 1)) == (2, 0, 1)


def test_expand_merged_members_consecutive():
    inst = _pre_instance()
    node = SearchNode(front=(0,), back=(5,), remaining=mask_of([1, 2, 3, 4]))
    kn = simplify(kernel_node(inst, node))
    assert _expand(kn, (2, 1, 4)) == (2, 3, 1, 4)
    assert _expand(kn, (4, 1, 2)) == (4, 1, 2, 3)
    # scenes 2 and 3 need the same actors, so the search merges them at the
    # root and every schedule it reports shoots them back to back
    twins = Instance.from_rows(
        ["X.XX.", ".XXX.", "X...X"], (2, 1, 3, 1, 2), (4, 6, 5)
    )
    order = solve(twins, SolveConfig(cache_capacity=0)).schedule.order
    assert order.index(3) == order.index(2) + 1


def test_merged_orders_cover_the_optimum():
    # enumerating merged-universe orders and expanding reaches exactly the
    # optimal holding of the original instance
    for seed in range(8):
        inst = generate_instance(7, 4, seed=500 + seed, density=0.5)
        root = SearchNode(front=(), back=(), remaining=inst.all_scenes)
        kn = simplify(kernel_node(inst, root))
        reps = list(bits(kn.q_reps))
        best = min(
            holding_cost(inst, Schedule(_expand(kn, order)))
            for order in permutations(reps)
        )
        assert best == brute_force(inst)[0]


def test_preprocess_keeps_optimum():
    for seed in range(25):
        inst = generate_instance(2 + seed % 7, 2 + seed % 5, seed=600 + seed, density=0.45)
        on = solve(inst, SolveConfig(cache_capacity=0, enable_preprocess=True))
        off = solve(inst, SolveConfig(cache_capacity=0, enable_preprocess=False))
        assert on.holding_cost == off.holding_cost == brute_force(inst)[0]
