"""The pair lower bound the solver runs: ``_pair_constants`` and
``_pair_bound``, and ``_Search._branch_lower`` through the testkit
adapters."""

import random
from itertools import permutations

from talentsched import Instance, generate_instance
from talentsched.instance import bits, mask_of
from talentsched.solver import _pair_bound
from talentsched.testkit import (
    SearchNode,
    branch_lower,
    enumerate_future_cost,
    pair_constants,
    random_node,
    relevant_actors,
)

SIX_CONSTRAINTS = {
    (0, 1): 2,
    (0, 2): 7,
    (0, 3): 6,
    (1, 2): 12,
    (1, 3): 8,
    (2, 3): 5,
}


def _pairs(constants):
    """Constants as the (c, i, j) list ``_pair_constants`` returns."""
    return [(c, i, j) for (i, j), c in constants.items() if c > 0]


def test_lb_greedy_matching_worked_example():
    # matching picks 12, then 6; the averaging bound is only ceil(40 / 3)
    assert _pair_bound(_pairs(SIX_CONSTRAINTS), 4) == 18


def test_lb_sum_worked_example():
    # on the six constraints the averaging bound, ceil(40 / 3) = 14, loses
    # to the matching; on a triangle of equal constants it wins, rounded up
    assert _pair_bound(_pairs(SIX_CONSTRAINTS), 4) == max(14, 18)
    assert _pair_bound(_pairs({(0, 1): 10, (0, 2): 10, (1, 2): 10}), 3) == 15
    assert _pair_bound(_pairs({(0, 1): 10, (0, 2): 10, (1, 2): 11}), 3) == 16
    # actors with no positive constant still count in the divisor
    assert _pair_bound(_pairs({(0, 1): 10, (0, 2): 10, (1, 2): 10}), 4) == 10


def test_lb_single_pair_and_degenerate():
    assert _pair_bound([(5, 0, 1)], 2) == 5
    assert _pair_bound([], 1) == 0
    assert _pair_bound([], 0) == 0


def test_lb_all_zero_constants():
    # zero constants never reach the list, so nothing is left to combine
    assert _pairs({(0, 1): 0, (0, 2): 0, (1, 2): 0}) == []
    assert _pair_bound([], 3) == 0


def test_greedy_matching_insertion_order_invariant():
    rng = random.Random(41)
    for _ in range(20):
        actors = list(range(6))
        constants = {
            (i, j): rng.randint(0, 30)
            for a, i in enumerate(actors)
            for j in actors[a + 1 :]
        }
        items = _pairs(constants)
        baseline = _pair_bound(list(items), len(actors))
        for _ in range(5):
            rng.shuffle(items)
            assert _pair_bound(list(items), len(actors)) == baseline


def _two_sided_instance():
    # scene 0 = front anchor, scene 5 = back anchor, middle 1..4;
    # a0, a1 anchored front; a2, a3 anchored back
    rows = [
        "XXX...",
        "X.XX..",
        "..XX.X",
        "...X.X",
    ]
    return Instance.from_rows(rows, (1, 2, 3, 4, 5, 1), (3, 5, 7, 11))


def test_pair_constant_cases():
    inst = _two_sided_instance()
    node = SearchNode(front=(0,), back=(5,), remaining=mask_of([1, 2, 3, 4]))
    constants = pair_constants(inst, node)
    # same side (front): a0 alone in scene 1, a1 alone in scene 3
    only_a0 = inst.durations[1]
    only_a1 = inst.durations[3]
    assert constants[(0, 1)] == min(5 * only_a0, 3 * only_a1)
    # same side (back) with one private-scene set empty: bound collapses to 0
    assert (2, 3) not in constants
    # opposite sides sharing scene 3 (a1, a3): scenes 1 and 4 need neither
    assert constants[(1, 3)] == min(5, 11) * (
        inst.durations[1] + inst.durations[4]
    )
    # opposite sides sharing scene 2 (a0, a2): only scene 4 needs neither
    assert constants[(0, 2)] == min(3, 7) * inst.durations[4]
    # opposite sides with no shared scene: zero
    assert (0, 3) not in constants


def test_relevant_actors_split_by_anchor_side():
    inst = _two_sided_instance()
    node = SearchNode(front=(0,), back=(5,), remaining=mask_of([1, 2, 3, 4]))
    assert relevant_actors(inst, node) == (mask_of([0, 1]), mask_of([2, 3]))
    # the kernel bounds the same actors
    pairs = [(c, i, j) for (i, j), c in pair_constants(inst, node).items()]
    assert branch_lower(inst, node) == _pair_bound(pairs, 4) > 0
    # an actor anchored on both sides is fixed and drops out
    both = Instance.from_rows(["XXX", "XX.", ".XX"], (1, 1, 1), (2, 3, 4))
    node = SearchNode(front=(0,), back=(2,), remaining=0b010)
    front_rel, back_rel = relevant_actors(both, node)
    assert front_rel | back_rel == mask_of([1, 2])


def _reverse_actors(inst):
    """The instance with actor i renamed to m-1-i."""
    m = inst.num_actors
    flip = lambda mask: sum(1 << (m - 1 - i) for i in bits(mask))  # noqa: E731
    return Instance(
        inst.num_scenes,
        m,
        tuple(flip(a) for a in inst.scene_actors),
        inst.durations,
        tuple(reversed(inst.wages)),
    )


def test_pair_constant_symmetric():
    # the constant of a pair does not depend on which block is called the
    # front, nor on which of the two actors comes first
    inst = _two_sided_instance()
    node = SearchNode(front=(0,), back=(5,), remaining=mask_of([1, 2, 3, 4]))
    flipped = SearchNode(front=(5,), back=(0,), remaining=node.remaining)
    constants = pair_constants(inst, node)
    assert pair_constants(inst, flipped) == constants
    m = inst.num_actors
    renamed = pair_constants(_reverse_actors(inst), node)
    assert {(m - 1 - j, m - 1 - i): c for (i, j), c in renamed.items()} == constants


def test_pair_constant_rejects_irrelevant_actor():
    # an actor on location at neither block, or at both, gets no constant
    inst = _two_sided_instance()
    node = SearchNode(front=(0,), back=(5,), remaining=mask_of([1, 2, 3, 4]))
    front_rel, back_rel = relevant_actors(inst, node)
    rel = front_rel | back_rel
    for i, j in pair_constants(inst, node):
        assert i < j and rel >> i & 1 and rel >> j & 1
    tiny = Instance.from_rows(["XXX", "XXX"], (1, 1, 1), (2, 3))
    assert pair_constants(tiny, SearchNode((0,), (2,), 0b010)) == {}


def _q_span_holdings(inst, node, order):
    """Per-actor waiting cost inside the middle block for one order."""
    a_front = 0
    for s in node.front:
        a_front |= inst.scene_actors[s]
    a_back = 0
    for s in node.back:
        a_back |= inst.scene_actors[s]
    mid_days = sum(inst.durations[s] for s in order)
    first, last, work = {}, {}, {}
    day = 0
    for s in order:
        d = inst.durations[s]
        for i in bits(inst.scene_actors[s]):
            first.setdefault(i, day)
            last[i] = day + d
            work[i] = work.get(i, 0) + d
        day += d
    out = {}
    for i in set(first) | set(bits(a_front & a_back)):
        start = 0 if a_front >> i & 1 else first.get(i, 0)
        end = mid_days if a_back >> i & 1 else last.get(i, 0)
        if i not in first and not (a_front >> i & 1 and a_back >> i & 1):
            continue
        out[i] = inst.wages[i] * max(0, end - start - work.get(i, 0))
    return out


def test_pair_constants_valid_under_enumeration():
    rng = random.Random(43)
    checked = 0
    for seed in range(40):
        inst = generate_instance(7 + seed % 3, 3 + seed % 5, seed=700 + seed, density=0.45)
        node = random_node(inst, rng, max_remaining=5)
        constants = pair_constants(inst, node)
        # the adapter's relevant set gives the kernel's own bound
        front_rel, back_rel = relevant_actors(inst, node)
        k = (front_rel | back_rel).bit_count()
        assert branch_lower(inst, node) == _pair_bound(_pairs(constants), k)
        if not constants:
            continue
        mid = list(bits(node.remaining))
        for order in permutations(mid):
            x = _q_span_holdings(inst, node, order)
            for (i, j), c in constants.items():
                assert x.get(i, 0) + x.get(j, 0) >= c
                checked += 1
    assert checked > 1000


def test_future_lower_degenerate_nodes():
    inst = _two_sided_instance()
    empty_q = SearchNode(front=(0, 1, 2, 3, 4), back=(5,), remaining=0)
    assert branch_lower(inst, empty_q) == 0
    # fully fixed actors leave nothing to bound
    rows = ["XXX", "XXX"]
    tiny = Instance.from_rows(rows, (1, 1, 1), (2, 3))
    node = SearchNode(front=(0,), back=(2,), remaining=0b010)
    assert branch_lower(tiny, node) == 0


def test_future_lower_never_exceeds_enumeration():
    rng = random.Random(47)
    for seed in range(150):
        inst = generate_instance(
            4 + seed % 6, 3 + seed % 6, seed=800 + seed, density=0.4
        )
        node = random_node(inst, rng, max_remaining=6)
        assert branch_lower(inst, node) <= enumerate_future_cost(inst, node)


def _exact_integer_lb(relevant: int, constants) -> int:
    """Integer optimum of the pair-constraint relaxation via scipy's MILP."""
    import numpy as np
    from scipy.optimize import LinearConstraint, milp

    actors = sorted(bits(relevant))
    index = {a: k for k, a in enumerate(actors)}
    n = len(actors)
    rows = []
    rhs = []
    for (i, j), c in constants.items():
        row = [0] * n
        row[index[i]] = 1
        row[index[j]] = 1
        rows.append(row)
        rhs.append(c)
    if not rows:
        return 0
    res = milp(
        c=np.ones(n),
        constraints=LinearConstraint(np.array(rows), lb=np.array(rhs)),
        integrality=np.ones(n),
    )
    assert res.success
    return round(res.fun)


def test_heuristic_bounds_below_exact_relaxation():
    rng = random.Random(53)
    for seed in range(60):
        inst = generate_instance(8, 3 + seed % 4, seed=900 + seed, density=0.45)
        node = random_node(inst, rng, max_remaining=6)
        front_rel, back_rel = relevant_actors(inst, node)
        relevant = front_rel | back_rel
        if relevant.bit_count() > 6:
            continue
        constants = pair_constants(inst, node)
        exact = _exact_integer_lb(relevant, constants)
        # both the averaging and the matching bound sit below the optimum
        assert _pair_bound(_pairs(constants), relevant.bit_count()) <= exact
        assert branch_lower(inst, node) <= exact
