"""The pair lower bound the solver runs: ``_Search._pair_keys`` and
``_pair_bound``, with the two tables they read, and
``_Search._branch_lower``, through the adapters in ``support``.  The keys are
checked against the constants written out over scene sets, on day masks
and on scene masks."""

import random
from itertools import permutations

from talentsched import Instance, SolveConfig, generate_instance, solve
from talentsched import solver as solver_mod
from talentsched.instance import bits
from talentsched.solver import _pair_bound

from support import (
    SearchNode,
    branch_lower,
    enumerate_future_cost,
    kernel_node,
    lower_at,
    mask_of,
    pack_pairs,
    pair_constants,
    q_span_holdings,
    random_node,
    relevant_actors,
    simplify,
    unpack_pairs,
)

SIX_CONSTRAINTS = {
    (0, 1): 2,
    (0, 2): 7,
    (0, 3): 6,
    (1, 2): 12,
    (1, 3): 8,
    (2, 3): 5,
}


def test_lb_greedy_matching_worked_example():
    # matching picks 12, then 6; the averaging bound is only ceil(40 / 3)
    assert _pair_bound(*pack_pairs(SIX_CONSTRAINTS), 4) == 18


def test_lb_sum_worked_example():
    # on the six constraints the averaging bound, ceil(40 / 3) = 14, loses
    # to the matching; on a triangle of equal constants it wins, rounded up
    assert _pair_bound(*pack_pairs(SIX_CONSTRAINTS), 4) == max(14, 18)
    assert _pair_bound(*pack_pairs({(0, 1): 10, (0, 2): 10, (1, 2): 10}), 3) == 15
    assert _pair_bound(*pack_pairs({(0, 1): 10, (0, 2): 10, (1, 2): 11}), 3) == 16
    # actors with no positive constant still count in the divisor
    assert _pair_bound(*pack_pairs({(0, 1): 10, (0, 2): 10, (1, 2): 10}), 4) == 10


def test_lb_single_pair_and_degenerate():
    assert _pair_bound(*pack_pairs({(0, 1): 5}), 2) == 5
    assert _pair_bound([], 0, 1) == 0
    assert _pair_bound([], 0, 0) == 0


def test_lb_all_zero_constants():
    # zero constants never reach the list, so nothing is left to combine
    assert pack_pairs({(0, 1): 0, (0, 2): 0, (1, 2): 0}) == ([], 0)
    assert _pair_bound([], 0, 3) == 0


def test_greedy_matching_insertion_order_invariant():
    rng = random.Random(41)
    for _ in range(20):
        actors = list(range(6))
        constants = {
            (i, j): rng.randint(0, 30)
            for a, i in enumerate(actors)
            for j in actors[a + 1 :]
        }
        keys, total = pack_pairs(constants)
        baseline = _pair_bound(list(keys), total, len(actors))
        for _ in range(5):
            rng.shuffle(keys)
            assert _pair_bound(list(keys), total, len(actors)) == baseline


def _reference_bound(constants, count):
    """The pair bound written out on ``(c, i, j)`` tuples: matching in
    ``(-c, i, j)`` order against the averaging bound."""
    pairs = sorted((-c, i, j) for (i, j), c in constants.items() if c > 0)
    marked = set()
    matched = 0
    for c, i, j in pairs:
        if i not in marked and j not in marked:
            matched -= c
            marked |= {i, j}
    if not pairs:
        return 0
    return max(matched, -(-sum(-p[0] for p in pairs) // (count - 1)))


def test_matching_stops_once_complete():
    # ``_pair_bound`` stops after ``count // 2`` pairs: with ``count`` the
    # number of actors the keys name, no later key can add one.  Sparse and
    # dense constants, ties included, of both parities of ``count``
    rng = random.Random(61)
    parities = set()
    checked = 0
    for _ in range(600):
        actors = sorted(rng.sample(range(64), rng.randint(2, 9)))
        density = rng.choice((0.3, 0.6, 1.0))
        constants = {
            (i, j): rng.randint(1, 6)
            for a, i in enumerate(actors)
            for j in actors[a + 1 :]
            if rng.random() < density
        }
        count = len({i for pair in constants for i in pair})
        if count < 2:
            continue
        keys, total = pack_pairs(constants)
        assert _pair_bound(keys, total, count) == _reference_bound(constants, count)
        parities.add(count % 2)
        checked += 1
    assert parities == {0, 1} and checked > 400


def test_pack_pairs_round_trip():
    constants = {(0, 1): 7, (0, 63): 1, (5, 9): 1 << 40, (62, 63): 3}
    keys, total = pack_pairs(constants)
    assert unpack_pairs(keys) == constants
    assert total == sum(constants.values())
    # reverse order of the keys is (-c, i, j) order of the pairs
    keys.sort(reverse=True)
    assert list(unpack_pairs(keys)) == [(5, 9), (0, 1), (62, 63), (0, 63)]


def test_matching_ties_follow_the_actor_pair_under_relabelling():
    # a path of equal constants: the matching keeps whichever edge comes
    # first by actor pair, so the labels decide between 10 and 5
    path = [(0, 1), (1, 2), (2, 3)]
    rng = random.Random(59)
    seen = set()
    for labels in permutations(range(4)):
        constants = {
            tuple(sorted((labels[a], labels[b]))): 5 for a, b in path
        }
        got = _pair_bound(*pack_pairs(constants), 4)
        assert got == _reference_bound(constants, 4)
        seen.add(got)
    assert seen == {5, 10}
    # the kernel's own constants on relabelled instances, ties included
    checked = 0
    for seed in range(40):
        base = generate_instance(8, 6, seed=1500 + seed, density=0.45, max_wage=3)
        labels = list(range(base.num_actors))
        rng.shuffle(labels)
        inst = Instance(
            base.num_scenes,
            base.num_actors,
            tuple(sum(1 << labels[i] for i in bits(a)) for a in base.scene_actors),
            base.durations,
            tuple(base.wages[labels.index(i)] for i in range(base.num_actors)),
        )
        node = random_node(inst, rng, max_remaining=6)
        constants = pair_constants(inst, node)
        front_rel, back_rel = relevant_actors(inst, node)
        count = (front_rel | back_rel).bit_count()
        assert branch_lower(inst, node) == _reference_bound(constants, count)
        checked += len(constants) > len(set(constants.values()))
    assert checked > 5


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
    packed = pack_pairs(pair_constants(inst, node))
    assert branch_lower(inst, node) == _pair_bound(*packed, 4) > 0
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
        assert branch_lower(inst, node) == _pair_bound(*pack_pairs(constants), k)
        if not constants:
            continue
        mid = list(bits(node.remaining))
        for order in permutations(mid):
            x = q_span_holdings(inst, node, order)
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
        assert _pair_bound(*pack_pairs(constants), relevant.bit_count()) <= exact
        assert branch_lower(inst, node) <= exact


def _with_duplicate_scenes(inst, rng, extra):
    """The instance plus ``extra`` scenes that copy the actor set of a
    random scene, with their own durations, so that simplification has
    scenes to merge."""
    copies = [rng.randrange(inst.num_scenes) for _ in range(extra)]
    return Instance(
        inst.num_scenes + extra,
        inst.num_actors,
        inst.scene_actors + tuple(inst.scene_actors[j] for j in copies),
        inst.durations + tuple(rng.randint(1, 4) for _ in copies),
        inst.wages,
    )


def test_pair_bound_depends_only_on_child_state():
    # each child state (front set, back set, remaining set) is reached by
    # pinning any of its front scenes, by pinning any of its back scenes
    # with the blocks' roles swapped, and by pinning a merged scene after
    # simplification; the bound must agree on all of these routes
    rng = random.Random(61)
    routes = merged = positive = 0
    for seed in range(120):
        base = generate_instance(7 + seed % 3, 4 + seed % 5, seed=1600 + seed, density=0.4)
        inst = _with_duplicate_scenes(base, rng, 2 + seed % 3)
        scenes = list(range(inst.num_scenes))
        rng.shuffle(scenes)
        cut = rng.randint(1, inst.num_scenes - 2)
        placed, rest = scenes[:cut], scenes[cut:]
        split = rng.randint(0, len(placed))
        front, back = placed[:split], placed[split:]
        parent = SearchNode(tuple(front), tuple(back), mask_of(rest))
        kn = simplify(kernel_node(inst, parent))
        for k, (_, _, _, group, _) in enumerate(kn.scenes):
            child_front = front + list(group)
            remaining = parent.remaining & ~mask_of(group)
            value = lower_at(inst, kn, k)
            merged += len(group) > 1
            positive += value > 0
            for _ in range(3):
                f = child_front[:]
                b = back[:]
                rng.shuffle(f)
                rng.shuffle(b)
                assert branch_lower(inst, SearchNode(tuple(f), tuple(b), remaining)) == value
                if b:
                    flipped = SearchNode(tuple(b), tuple(f), remaining)
                    assert branch_lower(inst, flipped) == value
                routes += 1
    assert routes > 1000 and merged > 50 and positive > 100


def test_scene_masks_past_the_day_cap_scale_with_the_durations():
    # scaling every duration by 720720 = lcm(1..16) puts an instance past
    # DAY_MASK_MAX_DAYS, where the kernels take one bit per scene, and
    # scales every pair constant and every bound, the averaging bound's
    # rounding included, by that factor
    rng = random.Random(67)
    merged = positive = 0
    for seed in range(100):
        base = generate_instance(
            7 + seed % 3, 3 + seed % 5, seed=1700 + seed, density=0.45, max_duration=9
        )
        inst = _with_duplicate_scenes(base, rng, 2)
        big = Instance(
            inst.num_scenes, inst.num_actors, inst.scene_actors,
            tuple(720720 * d for d in inst.durations), inst.wages,
        )
        assert sum(inst.durations) <= solver_mod.DAY_MASK_MAX_DAYS < sum(big.durations)
        node = random_node(inst, rng, max_remaining=6)
        constants = pair_constants(inst, node)
        assert pair_constants(big, node) == {p: 720720 * c for p, c in constants.items()}
        assert branch_lower(big, node) == 720720 * branch_lower(inst, node)
        kn, kn_big = (simplify(kernel_node(x, node)) for x in (inst, big))
        for k, (_, _, _, group, _) in enumerate(kn.scenes):
            value = lower_at(inst, kn, k)
            assert lower_at(big, kn_big, k) == 720720 * value
            merged += len(group) > 1
            positive += value > 0
    assert merged > 40 and positive > 40


def test_pair_tables_follow_the_packing_rule():
    # a key's low 12 bits are (63 - i) << 6 | (63 - j) for i < j, from
    # either actor's row, and name the matching mark of both actors
    for i in range(64):
        for j in range(i + 1, 64):
            tag = (63 - i) << 6 | 63 - j
            assert solver_mod._PAIR_TAGS[i][j] == solver_mod._PAIR_TAGS[j][i] == tag
            assert solver_mod._PAIR_MARKS[tag] == 1 << i | 1 << j


def _closed_form_constants(inst, node):
    """The pair constants of the node's relevant actors written out over
    scene sets: a same-side pair's ``min(w_j * (d_i - d_ij), w_i * (d_j -
    d_ij))``, and a cross pair that shares a scene ``min(w_i, w_j) *
    (d_Q - d_i - d_j + d_ij)``, keyed ``(i, j)`` with i < j."""
    middle = list(bits(node.remaining))
    days = lambda scenes: sum(inst.durations[s] for s in scenes)  # noqa: E731
    need = {
        i: {s for s in middle if inst.scene_actors[s] >> i & 1} for i in range(inst.num_actors)
    }
    front, back = (list(bits(rel)) for rel in relevant_actors(inst, node))
    wages = inst.wages
    constants = {}
    for side in (front, back):
        for a, i in enumerate(side):
            for j in side[a + 1 :]:
                shared = days(need[i] & need[j])
                c = min(
                    wages[j] * (days(need[i]) - shared), wages[i] * (days(need[j]) - shared)
                )
                constants[i, j] = c
    for i in front:
        for j in back:
            if need[i] & need[j]:
                c = min(wages[i], wages[j]) * (
                    days(middle) - days(need[i]) - days(need[j]) + days(need[i] & need[j])
                )
                constants[min(i, j), max(i, j)] = c
    return {pair: c for pair, c in constants.items() if c > 0}


def _spread_actors(inst, rng):
    """The instance on 64 actors, its own renamed to random ids, so that
    pairs reach the tables' far rows and columns."""
    labels = rng.sample(range(64), inst.num_actors)
    wages = [1] * 64
    for i, label in enumerate(labels):
        wages[label] = inst.wages[i]
    return Instance(
        inst.num_scenes,
        64,
        tuple(sum(1 << labels[i] for i in bits(a)) for a in inst.scene_actors),
        inst.durations,
        tuple(wages),
    )


def test_pair_keys_agree_with_the_closed_form_on_both_mask_forms(monkeypatch):
    # the one-pass kernel against the constants written out, and its keys
    # and child bounds on day masks against those on scene masks
    rng = random.Random(73)
    cases = []
    cross = 0
    for seed in range(150):
        inst = generate_instance(
            6 + seed % 6, 3 + seed % 10, seed=1900 + seed, density=0.4, max_duration=5
        )
        if seed % 3 == 0:
            inst = _spread_actors(inst, rng)
        node = random_node(inst, rng, max_remaining=8)
        constants = pair_constants(inst, node)
        assert constants == _closed_form_constants(inst, node)
        front_rel, back_rel = relevant_actors(inst, node)
        cross += sum(
            (front_rel >> i & 1) != (front_rel >> j & 1) for i, j in constants
        )
        kn = simplify(kernel_node(inst, node))
        lowers = [lower_at(inst, kn, k) for k in range(len(kn.scenes))]
        cases.append((inst, node, kn, constants, lowers))
    positive = sum(value > 0 for case in cases for value in case[4])
    assert cross > 30 and positive > 200
    monkeypatch.setattr(solver_mod, "DAY_MASK_MAX_DAYS", 0)
    for inst, node, kn, constants, lowers in cases:
        assert solver_mod._Search(inst, SolveConfig(cache_capacity=0)).days is not int.bit_count
        assert pair_constants(inst, node) == constants
        assert [lower_at(inst, kn, k) for k in range(len(kn.scenes))] == lowers


class _CheckedMemo(dict):
    """A pair-bound memo generation that never answers: every value is
    recomputed and, when its state is still stored in this generation or
    in ``peer``, the other one, compared with the stored value."""

    def __init__(self):
        super().__init__()
        self.peer: dict = {}
        self.compared = 0

    def get(self, key, default=None):
        return default

    def __setitem__(self, key, value):
        for generation in (self, self.peer):
            if key in generation:
                assert dict.__getitem__(generation, key) == value
                self.compared += 1
                break
        super().__setitem__(key, value)


def test_memoised_pair_bound_equals_recomputed(monkeypatch):
    original = solver_mod._Search.__init__
    memos = []

    def checked_init(self, *args):
        original(self, *args)
        current, prev = _CheckedMemo(), _CheckedMemo()
        current.peer, prev.peer = prev, current
        self.lower_memo, self.lower_prev = current, prev
        memos.extend((current, prev))

    solves = []
    for n, m, seed in ((11, 7, 7102), (12, 8, 7103), (13, 7, 7105)):
        inst = generate_instance(n, m, seed=seed, density=0.35)
        for pre in (True, False):
            cfg = SolveConfig(cache_capacity=1 << 10, enable_preprocess=pre)
            solves.append((inst, cfg, solve(inst, cfg)))
    monkeypatch.setattr(solver_mod._Search, "__init__", checked_init)
    for inst, cfg, memoised in solves:
        checked = solve(inst, cfg)
        assert checked.holding_cost == memoised.holding_cost
        assert checked.schedule == memoised.schedule
        assert checked.subproblems == memoised.subproblems
        assert checked.cache_stats == memoised.cache_stats
    assert len(memos) == 2 * len(solves)
    assert sum(memo.compared for memo in memos) > 1000


def test_memo_rotation_keeps_the_search(monkeypatch):
    """Generations far smaller than the default change no answer, node
    count or cache counter, and never hold more than two generations."""
    solves = []
    for n, m, seed in ((12, 7, 7111), (13, 8, 7112), (14, 7, 7113)):
        inst = generate_instance(n, m, seed=seed, density=0.35)
        for pre in (True, False):
            cfg = SolveConfig(cache_capacity=1 << 10, enable_preprocess=pre)
            solves.append((inst, cfg, solve(inst, cfg)))

    original = solver_mod._Search._branch_lower
    resident = []

    def watched(self, *args):
        value = original(self, *args)
        resident.append(len(self.lower_memo) + len(self.lower_prev))
        return value

    monkeypatch.setattr(solver_mod._Search, "_branch_lower", watched)
    for entries in (1, 2, 64):
        monkeypatch.setattr(solver_mod, "LOWER_MEMO_ENTRIES", entries)
        resident.clear()
        for inst, cfg, expected in solves:
            result = solve(inst, cfg)
            assert result.holding_cost == expected.holding_cost
            assert result.schedule == expected.schedule
            assert result.subproblems == expected.subproblems
            assert result.cache_stats == expected.cache_stats
        # both generations filled, and never more
        assert max(resident) == 2 * entries
