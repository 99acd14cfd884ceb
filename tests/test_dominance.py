"""Dominance rules 1 and 2, and the zero-cost scene that rule 1's switch
forces (a remaining scene that needs exactly the front's active actors is
a node's only branch), as the solver runs them, in ``_Search._dominated``,
through the adapters in ``support``."""

import random

from talentsched import (
    Instance,
    brute_force,
    generate_instance,
    solve,
    SolveConfig,
)

from support import (
    SearchNode,
    dominated,
    enumerate_future_cost,
    kernel_node,
    mask_of,
    past_cost,
    random_node,
    rule_fires,
    simplify,
)

# rule 1 reads no wages; any instance with enough actors will do
FOUR_ACTORS = Instance(1, 4, (0b1111,), (1,), (1, 1, 1, 1))


def test_rule1_equal_scenes():
    a = mask_of([0, 2])
    assert rule_fires(FOUR_ACTORS, 1, a, a, 0, 0)
    assert rule_fires(FOUR_ACTORS, 1, a, a, mask_of([1]), mask_of([3]))


def test_rule1_cross_cover_example():
    # a(s1)={a0}, a(s2)={a1}, front={a1}, back={a0}:
    # fronts {0,1} vs {1}, backs {0} vs {0,1}
    assert rule_fires(
        FOUR_ACTORS, 1, mask_of([0]), mask_of([1]), mask_of([1]), mask_of([0])
    )


def test_rule1_direction_matters():
    s1 = mask_of([0])
    s2 = mask_of([0, 1])
    # s2 covers s1 at the front, so s2's branch is not dominated by s1's
    assert not rule_fires(FOUR_ACTORS, 1, s1, s2, 0, 0)
    assert rule_fires(FOUR_ACTORS, 1, s2, s1, 0, mask_of([1]))


def test_rule2_strictness_blocks_equal_scenes():
    a = mask_of([0, 1])
    inst = Instance(2, 2, (a, a), (1, 1), (5, 7))
    assert not rule_fires(inst, 2, a, a, 0, 0)


def test_rule2_positive_margin():
    # a(s1)={a0,a1} superset of a(s2)={a0}; the a1 wage only appears on the
    # gain side because a1 waits at the back
    inst = Instance(2, 2, (mask_of([0, 1]), mask_of([0])), (1, 1), (5, 7))
    assert rule_fires(inst, 2, mask_of([0, 1]), mask_of([0]), 0, mask_of([1]))
    # zero-wage margin is not enough
    free = Instance(2, 2, (mask_of([0, 1]), mask_of([0])), (1, 1), (5, 0))
    assert not rule_fires(free, 2, mask_of([0, 1]), mask_of([0]), 0, mask_of([1]))


def test_is_dominated_single_scene_has_no_competitor():
    inst = generate_instance(4, 3, seed=1, density=0.6)
    node = SearchNode(front=(0, 1, 2), back=(), remaining=0b1000)
    assert dominated(inst, kernel_node(inst, node)) == 0


def test_identical_scenes_tie_break_keeps_smaller_id():
    # scenes 1 and 3 need exactly the same actors; preprocessing is what
    # normally removes this, so probe the raw rule with a plain node
    rows = ["XX.X", "X..X", ".X.."]
    inst = Instance.from_rows(rows, (1, 2, 1, 2), (3, 4, 5))
    # scene 2 needs no one, exactly the empty front's actors, so it is
    # forced and every other scene skipped
    node = SearchNode(front=(), back=(), remaining=0b1111)
    assert dominated(inst, kernel_node(inst, node)) == 0b1011
    node = SearchNode(front=(), back=(), remaining=0b1011)
    assert dominated(inst, kernel_node(inst, node)) == 1 << 3


def test_rule1_spares_the_smaller_id_only_on_a_true_tie():
    # scene 2 is in the front block (a0), scene 3 in the back block (a1):
    # scene 1 = {a0, a1} adds to the front what scene 0 = {a1} adds, and
    # covers it at the back, but not the other way round, so scene 0 goes
    # although its id is smaller
    inst = Instance.from_rows([".XX.", "XX.X"], (1, 1, 1, 1), (3, 5))
    node = SearchNode(front=(2,), back=(3,), remaining=0b0011)
    assert dominated(inst, kernel_node(inst, node), use_rule2=False) == 1 << 0
    # the other way round: scene 1 = {a1} matches scene 0 = {a0} at the
    # back (a0 and a1 are both there already) and adds less at the front
    inst = Instance.from_rows(["X..X", ".XXX"], (1, 1, 1, 1), (3, 5))
    node = SearchNode(front=(2,), back=(3,), remaining=0b0011)
    assert dominated(inst, kernel_node(inst, node), use_rule2=False) == 1 << 0


def test_some_remaining_scene_always_survives():
    # the search relies on it: a node's least child bound is finite when it
    # enters the cache, and the first dive reaches a leaf unchecked
    rng = random.Random(97)
    for seed in range(150):
        inst = generate_instance(
            3 + seed % 8, 1 + seed % 6, seed=2100 + seed, density=0.3 + seed % 5 / 10,
            max_duration=3, max_wage=1 + seed % 4,
        )
        node = random_node(inst, rng, max_remaining=8)
        if not node.remaining:
            continue
        plain = kernel_node(inst, node)
        for kn in (plain, simplify(plain)):
            for rule1 in (True, False):
                for rule2 in (True, False):
                    reps = mask_of(rec[3][0] for rec in kn.scenes)
                    mask = dominated(inst, kn, rule1, rule2)
                    assert mask & ~reps == 0
                    assert mask != reps, (seed, rule1, rule2)


def _through(inst, node, rec):
    """The node's exact cost past its past cost when the record ``rec``
    is shot next: its increment plus the exact future cost after it."""
    child = SearchNode(node.front + rec[3], node.back, node.remaining & ~rec[1])
    return (
        past_cost(inst, child) - past_cost(inst, node)
        + enumerate_future_cost(inst, child)
    )


def test_zero_cost_scene_is_the_only_child():
    # a scene that needs exactly the front's active actors holds no one
    # when shot next, and moving it first in any completion adds nothing
    rng = random.Random(41)
    forced = 0
    for seed in range(400):
        inst = generate_instance(
            3 + seed % 8, 1 + seed % 6, seed=3100 + seed, density=0.3 + seed % 5 / 10,
            max_duration=3, max_wage=1 + seed % 4,
        )
        node = random_node(inst, rng, max_remaining=7)
        if not node.remaining:
            continue
        exact = enumerate_future_cost(inst, node)
        plain = kernel_node(inst, node)
        for kn in (plain, simplify(plain)):
            reps = mask_of(rec[3][0] for rec in kn.scenes)
            # every mask spares a scene through which the optimum runs
            for rule1 in (True, False):
                for rule2 in (True, False):
                    mask = dominated(inst, kn, rule1, rule2)
                    assert exact == min(
                        _through(inst, node, rec)
                        for rec in kn.scenes
                        if not mask >> rec[3][0] & 1
                    ), (seed, rule1, rule2)
            front = kn.front & kn.active
            zero = [rec for rec in kn.scenes if rec[2] & kn.active == front]
            if not zero:
                continue
            forced += 1
            rep = zero[0][3][0]
            for rule2 in (True, False):
                assert dominated(inst, kn, True, rule2) == reps & ~(1 << rep)
            assert exact == _through(inst, node, zero[0])
    assert forced >= 250


def test_actorless_scene_after_an_all_fixed_front_is_forced():
    # a0 is in both blocks, so fixed and inactive: the front's active
    # actors are none, as are those of scene 2, which needs no one
    rows = ["XX...X", "...XX.", "...X.X"]
    inst = Instance.from_rows(rows, (1, 1, 2, 1, 3, 1), (3, 4, 5))
    node = SearchNode(front=(0,), back=(1,), remaining=0b111100)
    kn = simplify(kernel_node(inst, node))
    assert kn.front & kn.active == 0
    assert dominated(inst, kn) == 0b111000
    assert dominated(inst, kn, use_rule1=False) & 1 << 2 == 0
    assert enumerate_future_cost(inst, node) == _through(inst, node, kn.scenes[0])


def test_rules_never_change_the_optimum():
    for seed in range(30):
        inst = generate_instance(
            2 + seed % 7, 2 + (seed * 3) % 5, seed=1100 + seed, density=0.45
        )
        expect = brute_force(inst)[0]
        for r1 in (True, False):
            for r2 in (True, False):
                cfg = SolveConfig(
                    cache_capacity=0,
                    enable_rule1=r1,
                    enable_rule2=r2,
                    enable_preprocess=False,
                )
                assert solve(inst, cfg).holding_cost == expect


def test_rule_node_counts_are_logged_not_asserted():
    inst = generate_instance(9, 5, seed=77, density=0.4)
    on = solve(inst, SolveConfig(cache_capacity=0))
    off = solve(
        inst,
        SolveConfig(cache_capacity=0, enable_rule1=False, enable_rule2=False),
    )
    assert on.holding_cost == off.holding_cost
    assert on.subproblems > 0 and off.subproblems > 0
