"""Node simplification as the solver runs it, in ``_simplify``, through
the adapters in ``support``."""

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
from talentsched import solver as solver_mod
from talentsched.instance import bits, mask_of

from support import KernelNode, SearchNode, kernel_node, random_node, simplify

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


def _reps(kn):
    """The node's representative ids, in the order of its records."""
    return [rec[3][0] for rec in kn.scenes]


def _expand(kn, order):
    """Original scene ids of a representative order, as the search's leaf
    expands it: each representative's members, consecutively."""
    members = {rec[3][0]: rec[3] for rec in kn.scenes}
    return tuple(j for s in order for j in members[s])


def test_worked_preprocess_example():
    inst = _pre_instance()
    node = SearchNode(front=(0,), back=(5,), remaining=mask_of([1, 2, 3, 4]))
    start = kernel_node(inst, node)
    simplified = simplify(start)
    assert simplified.active == mask_of([0, 1, 2])
    assert _reps(simplified) == [1, 2, 4]
    assert simplified.groups() == {2: (2, 3)}
    duration, mask, actors, _ = simplified.scenes[1]
    assert duration == 3 + 4
    assert mask == mask_of([2, 3])
    assert actors == inst.scene_actors[2] | inst.scene_actors[3]
    assert simplified.front == start.front
    assert simplified.back == start.back


def test_no_rule_fires():
    inst = Instance.from_rows(
        ["XX.", "X.X", ".XX"], (1, 1, 1), (1, 1, 1)
    )
    node = SearchNode(front=(), back=(), remaining=0b111)
    simplified = simplify(kernel_node(inst, node))
    assert _reps(simplified) == [0, 1, 2]
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


def _pin(kn, k):
    """The child the search enters after pinning the record at position
    ``k`` of the simplified node ``kn`` in front: the blocks swap roles,
    and each keeps the actors still on location."""
    scenes = kn.scenes[:k] + kn.scenes[k + 1 :]
    aq = 0
    for rec in scenes:
        aq |= rec[2]
    front, back = kn.back, kn.front | kn.scenes[k][2]
    return KernelNode(front & (aq | back), back & (aq | front), kn.active, scenes)


def test_active_actors_only_shrink():
    # ``_simplify`` derives the active actors afresh at every node: those of
    # two or more remaining scenes, or of one and anchored at a block, less
    # those anchored at both.  Along a search path, pinning one scene at a
    # time from the root, that set never gains an actor
    rng = random.Random(37)
    steps = shrinks = merges = 0
    for seed in range(40):
        inst = generate_instance(9, 6, seed=400 + seed, density=0.4)
        kn = simplify(kernel_node(inst, SearchNode((), (), inst.all_scenes)))
        while True:
            aq = multi = 0
            for rec in kn.scenes:
                multi |= aq & rec[2]
                aq |= rec[2]
            anchored, fixed = kn.front | kn.back, kn.front & kn.back
            assert kn.active == (multi | (aq & anchored)) & ~fixed
            child = _pin(kn, rng.randrange(len(kn.scenes)))
            if not child.scenes:
                break
            simplified = simplify(child)
            assert simplified.active & ~kn.active == 0
            shrinks += simplified.active != kn.active
            merges += len(simplified.scenes) != len(child.scenes)
            steps += 1
            kn = simplified
    assert steps > 150 and shrinks > 50 and merges > 10


def test_fixed_masks_count_every_active_actors_remaining_days(monkeypatch):
    # the increment and the pair bound read an active actor's remaining
    # days as their fixed mask within the node's remaining mask, which
    # counts whole original scenes.  That is exact only if no merge joins
    # a scene that needs the actor with one that does not.  Along random
    # search paths, in both mask forms
    rng = random.Random(43)
    checked = merged = 0
    for day_cap in (solver_mod.DAY_MASK_MAX_DAYS, 0):
        monkeypatch.setattr(solver_mod, "DAY_MASK_MAX_DAYS", day_cap)
        for seed in range(30):
            inst = generate_instance(10, 6, seed=800 + seed, density=0.4, max_duration=4)
            search = solver_mod._Search(inst, SolveConfig(cache_capacity=0))
            assert (search.days is int.bit_count) == (day_cap > 0)
            kn = simplify(kernel_node(inst, SearchNode((), (), inst.all_scenes)))
            while kn.scenes:
                q_orig = sum(rec[1] for rec in kn.scenes)
                dq = solver_mod._masked_sum(search.q_tables, q_orig)
                for i in bits(kn.active):
                    need = sum(d for d, _, a, _ in kn.scenes if a >> i & 1)
                    assert search.days(search.actor_q[i] & dq) == need
                    checked += 1
                merged += bool(kn.groups())
                kn = simplify(_pin(kn, rng.randrange(len(kn.scenes))))
    assert checked > 1000 and merged > 50


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
        reps = _reps(kn)
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
