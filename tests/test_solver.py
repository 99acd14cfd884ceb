import itertools
import random
import re
import time
import tracemalloc
from pathlib import Path

import pytest

from talentsched import (
    Instance,
    Schedule,
    SolveConfig,
    StateCache,
    brute_force,
    generate_instance,
    greedy_upper_bound,
    holding_cost,
    solve,
    total_cost,
)
from talentsched import solver as solver_mod
from talentsched.instance import bits
from talentsched.solver import BRUTE_FORCE_MAX_SCENES
from talentsched.testkit import (
    WORKED_HOLDING_BEST,
    WORKED_TOTAL_BEST,
    fixture_worked_example,
)

FAST = SolveConfig(cache_capacity=1 << 12)

FEATURES = ("enable_preprocess", "enable_rule1", "enable_rule2", "enable_lower")
# all 16 switch sets, and the 8 that keep the pair bound
EVERY = [dict(zip(FEATURES, on)) for on in itertools.product((True, False), repeat=4)]
BOUNDED = [flags for flags in EVERY if flags["enable_lower"]]


def test_worked_example_is_solved_exactly():
    inst = fixture_worked_example()
    result = solve(inst, FAST)
    assert result.status == "optimal"
    assert result.holding_cost == WORKED_HOLDING_BEST
    assert result.total_cost == WORKED_TOTAL_BEST
    assert holding_cost(inst, result.schedule) == WORKED_HOLDING_BEST
    assert total_cost(inst, result.schedule) == WORKED_TOTAL_BEST


def test_single_scene():
    inst = Instance(1, 2, (0b11,), (3,), (4, 9))
    result = solve(inst, FAST)
    assert result.status == "optimal"
    assert result.holding_cost == 0
    assert result.schedule.order == (0,)


def test_matches_brute_force_across_configs():
    for seed in range(40):
        inst = generate_instance(
            2 + seed % 7, 2 + (seed * 3) % 5, seed=1200 + seed,
            density=(0.3, 0.45, 0.6)[seed % 3],
        )
        expect, _ = brute_force(inst)
        for pre, lower in itertools.product((True, False), repeat=2):
            cfg = SolveConfig(
                cache_capacity=(0, 1 << 10, 1 << 64)[seed % 3],
                enable_preprocess=pre,
                enable_lower=lower,
            )
            result = solve(inst, cfg)
            assert result.holding_cost == expect
            assert holding_cost(inst, result.schedule) == expect


def test_brute_force_guard_and_tie_break():
    # past the cap it refuses before allocating anything of size 2^n
    for n in (BRUTE_FORCE_MAX_SCENES + 1, 64):
        inst = generate_instance(n, 3, seed=1, density=0.5)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="capped"):
                brute_force(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000
    inst = generate_instance(6, 4, seed=9, density=0.4)
    best_h, best_sched = brute_force(inst)
    # reversal gives the same value; the order's tie-break is checked
    # against enumeration in test_brute_force_matches_permutation_enumeration
    assert holding_cost(inst, Schedule(tuple(reversed(best_sched.order)))) == best_h


def test_greedy_upper_bound_is_feasible_and_above_optimum():
    for seed in range(15):
        inst = generate_instance(7, 5, seed=1400 + seed, density=0.4)
        gh, gsched = greedy_upper_bound(inst)
        assert sorted(gsched.order) == list(range(inst.num_scenes))
        assert gh == holding_cost(inst, gsched)
        assert gh >= brute_force(inst)[0]
    single = Instance(1, 1, (1,), (2,), (3,))
    assert greedy_upper_bound(single) == (0, Schedule((0,)))


def test_greedy_upper_bound_on_worked_example():
    inst = fixture_worked_example()
    gh, gsched = greedy_upper_bound(inst)
    assert gh >= WORKED_HOLDING_BEST
    assert gh == holding_cost(inst, gsched)


def test_trace_entries_are_feasible_and_strictly_decreasing():
    inst = fixture_worked_example()
    result = solve(inst, FAST)
    values = [t.holding_cost for t in result.ub_trace]
    assert values == sorted(values, reverse=True)
    assert len(set(values)) == len(values)
    for entry in result.ub_trace:
        assert holding_cost(inst, Schedule(entry.order)) == entry.holding_cost
    assert result.ub_trace[-1].holding_cost == result.holding_cost
    # the first entry is the first dive's leaf
    assert 0 < result.ub_trace[0].subproblems <= inst.num_scenes + 1


def test_subproblems_count_search_invocations(monkeypatch):
    calls = 0
    original = solver_mod._Search._search

    def counting(self, *args, **kwargs):
        nonlocal calls
        calls += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(solver_mod._Search, "_search", counting)
    inst = generate_instance(7, 5, seed=21, density=0.4)
    result = solve(inst, FAST)
    assert result.subproblems == calls


def test_a_node_the_cache_prunes_is_never_simplified(monkeypatch):
    # the probe reads only the blocks and the remaining scenes, which
    # simplifying leaves as they are, so it comes first; every node but a
    # leaf or a cache prune is simplified once, and every leaf sets a new
    # incumbent, so the trace counts the leaves
    calls = 0
    original = solver_mod._simplify

    def counting(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    monkeypatch.setattr(solver_mod, "_simplify", counting)
    for n, m, seed, density in ((11, 7, 7102, 0.4), (12, 8, 7103, 0.3), (13, 7, 7105, 0.35)):
        inst = generate_instance(n, m, seed=seed, density=density)
        for pre in (True, False):
            calls = 0
            result = solve(inst, SolveConfig(cache_capacity=1 << 16, enable_preprocess=pre))
            hits = result.cache_stats.hits
            assert hits > 0
            expect = result.subproblems - hits - len(result.ub_trace) if pre else 0
            assert calls == expect, (n, pre)


def test_a_node_inherits_its_mask_and_its_parents_active_set(monkeypatch):
    # the parent hands each child ``dq`` less the pinned record's fixed mask
    # and its own active set; at every node, in both mask forms, ``dq`` is
    # the union of the node's records' fixed masks, and the records
    # ``_simplify`` returns have distinct signatures, also where it took the
    # exit for an active set equal to the parent's
    nodes = exits = 0
    search = solver_mod._Search._search
    simplify = solver_mod._simplify

    def checked_search(self, front, back, z, scenes, dq, known):
        nonlocal nodes
        union = 0
        for rec in scenes:
            union |= rec[4]
        assert dq == union
        nodes += 1
        return search(self, front, back, z, scenes, dq, known)

    def checked_simplify(front, back, scenes, seen_once, seen_twice, known):
        nonlocal exits
        out = simplify(front, back, scenes, seen_once, seen_twice, known)
        merged, active, _ = out
        assert len({rec[2] & active for rec in merged}) == len(merged)
        if active == known:
            assert merged is scenes
            exits += 1
        return out

    monkeypatch.setattr(solver_mod._Search, "_search", checked_search)
    monkeypatch.setattr(solver_mod, "_simplify", checked_simplify)
    for day_cap in (solver_mod.DAY_MASK_MAX_DAYS, 0):
        monkeypatch.setattr(solver_mod, "DAY_MASK_MAX_DAYS", day_cap)
        for seed in range(12):
            inst = generate_instance(
                8 + seed % 5, 4 + seed % 9, seed=7200 + seed, density=0.35, max_duration=4
            )
            assert (solver_mod._Search(inst, FAST).days is int.bit_count) == (day_cap > 0)
            result = solve(inst, SolveConfig(cache_capacity=1 << 4))
            assert result.holding_cost == brute_force(inst)[0]
    assert nodes > 2000 and exits > 500


@pytest.mark.parametrize("m", [1, 8, 9, 16, 64])
def test_a_wage_sum_is_the_sum_of_its_actors_wages(m):
    # one byte table up to 8 actors, partial sums over several past that
    rng = random.Random(7300 + m)
    wages = tuple(rng.randint(0, 10**6) for _ in range(m))
    inst = Instance(1, m, ((1 << m) - 1,), (1,), wages)
    wage = solver_mod._Search(inst, FAST).wage
    masks = range(1 << m) if m <= 8 else [rng.getrandbits(m) for _ in range(2000)]
    for mask in masks:
        assert wage(mask) == sum(wages[i] for i in bits(mask))


def test_identical_runs_are_identical():
    inst = generate_instance(10, 6, seed=33, density=0.4)
    cfg = SolveConfig(cache_capacity=1 << 10)
    a = solve(inst, cfg)
    b = solve(inst, cfg)
    assert a.schedule == b.schedule
    assert a.holding_cost == b.holding_cost
    assert a.subproblems == b.subproblems
    assert a.cache_stats == b.cache_stats
    assert [t.holding_cost for t in a.ub_trace] == [
        t.holding_cost for t in b.ub_trace
    ]


def test_time_limit_returns_incumbent():
    inst = generate_instance(26, 8, seed=2, density=0.3, max_duration=3)
    cfg = SolveConfig(cache_capacity=1 << 10, time_limit=0.05)
    result = solve(inst, cfg)
    assert result.status == "time_limit"
    assert holding_cost(inst, result.schedule) == result.holding_cost
    assert result.subproblems > 0


def test_time_limit_is_checked_at_every_node():
    # banded 64x64 instance where one node takes milliseconds, so a clock
    # read every few thousand nodes overshoots the limit by many seconds
    n = 64
    inst = Instance(
        n, n, tuple((1 << j) | (1 << (j + 1) % n) for j in range(n)), (1,) * n, (1,) * n
    )
    t0 = time.perf_counter()
    result = solve(inst, SolveConfig(cache_capacity=1 << 16, time_limit=1))
    wall = time.perf_counter() - t0
    assert result.status == "time_limit"
    assert sorted(result.schedule.order) == list(range(n))
    assert holding_cost(inst, result.schedule) == result.holding_cost
    assert wall < 2

    # a limit that runs out before the first leaf: the first dive still
    # finishes, and the search stops at the node after its leaf
    for case in (inst, generate_instance(n, 16, seed=3, density=0.35)):
        result = solve(case, SolveConfig(cache_capacity=1 << 16, time_limit=1e-9))
        assert result.status == "time_limit"
        assert sorted(result.schedule.order) == list(range(n))
        assert holding_cost(case, result.schedule) == result.holding_cost
        assert result.ub_trace[0].subproblems <= n + 1
        assert result.subproblems <= n + 2


def test_infinite_time_limit_means_no_limit():
    result = solve(
        fixture_worked_example(),
        SolveConfig(cache_capacity=1 << 10, time_limit=float("inf")),
    )
    assert result.status == "optimal"
    assert result.holding_cost == WORKED_HOLDING_BEST


def test_config_validation():
    for bad in (3, -4, None, True, 1.0, 1 << 65, 1 << 100):
        with pytest.raises(ValueError, match=re.escape("0 (off) or a power of two up to 2**64")):
            SolveConfig(cache_capacity=bad)
    assert SolveConfig(cache_capacity=1 << 64).cache_capacity == 1 << 64
    with pytest.raises(TypeError):  # one collision policy, not a setting
        SolveConfig(cache_strategy="latest")
    for bad in (0, -1.0, float("nan"), True):
        with pytest.raises(ValueError):
            SolveConfig(time_limit=bad)
    with pytest.raises(TypeError):  # one branch order, not a setting
        SolveConfig(branch_order="id")
    with pytest.raises(TypeError):  # the search finds its own incumbent
        SolveConfig(initial_ub=5)


def test_zero_wages_and_empty_scenes():
    # wages may be zero and a parsed scene may need nobody; neither breaks
    # the accounting
    rng = random.Random(99)
    for k in range(12):
        n = 3 + k % 5
        m = 2 + k % 4
        scene_actors = [rng.getrandbits(m) for _ in range(n)]
        scene_actors[0] = 0
        inst = Instance(
            n,
            m,
            tuple(scene_actors),
            tuple(rng.randint(1, 5) for _ in range(n)),
            tuple(rng.choice([0, 0, 1, 4, 9]) for _ in range(m)),
        )
        expect, _ = brute_force(inst)
        for cap in (0, 1 << 8):
            result = solve(inst, SolveConfig(cache_capacity=cap))
            assert result.holding_cost == expect
            assert holding_cost(inst, result.schedule) == expect


def test_inputs_at_the_format_limits():
    n = m = 64
    everyone = (1 << m) - 1
    identical = Instance(n, m, (everyone,) * n, (1,) * n, tuple(range(1, m + 1)))
    result = solve(identical, SolveConfig(cache_capacity=1 << 10))
    # the root, then the one merged scene's leaf
    assert (result.status, result.holding_cost, result.subproblems) == ("optimal", 0, 2)

    rng = random.Random(64)
    unpaid = Instance(
        n,
        m,
        tuple(rng.getrandbits(m) | 1 << j % m for j in range(n)),
        tuple(rng.randint(1, 5) for _ in range(n)),
        (0,) * m,
    )
    result = solve(unpaid, SolveConfig(cache_capacity=1 << 10))
    assert (result.status, result.holding_cost) == ("optimal", 0)
    assert sorted(result.schedule.order) == list(range(n))

    # half the scenes need nobody; the others form a cycle of shared
    # actors, so someone has to wait
    empty = Instance(
        8,
        6,
        (0, 0b010011, 0, 0b000110, 0, 0b101100, 0, 0b111001),
        (1, 2, 3, 1, 2, 3, 1, 2),
        (5, 3, 7, 2, 9, 4),
    )
    expect, _ = brute_force(empty)
    assert expect > 0
    for cap in (0, 1 << 8, 1 << 64):
        result = solve(empty, SolveConfig(cache_capacity=cap))
        assert result.holding_cost == expect
        assert holding_cost(empty, result.schedule) == expect


def test_default_cache_costs_what_it_stores():
    tracemalloc.start()
    try:
        solve(fixture_worked_example())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6


def _small_instances():
    """Random draws for n = 1-8, with zero wages and scenes that need
    nobody among them."""
    rng = random.Random(8900)
    for n in range(1, 9):
        yield generate_instance(n, 5, seed=8900 + n, density=0.4, max_duration=4, max_wage=30)
        for _ in range(2 if n < 8 else 1):
            m = rng.randint(1, 6)
            yield Instance(
                n,
                m,
                tuple(rng.choice([0, rng.getrandbits(m)]) for _ in range(n)),
                tuple(rng.randint(1, 4) for _ in range(n)),
                tuple(rng.choice([0, 0, 1, 7]) for _ in range(m)),
            )


def test_brute_force_matches_permutation_enumeration():
    for inst in _small_instances():
        best = min(
            (holding_cost(inst, Schedule(perm)), perm)
            for perm in itertools.permutations(range(inst.num_scenes))
        )
        holding, sched = brute_force(inst)
        # same value and the lexicographically smallest optimal order
        assert (holding, sched.order) == best
    assert brute_force(fixture_worked_example())[0] == WORKED_HOLDING_BEST


def test_matches_brute_force_at_oracle_ceiling():
    # n = 9 and 10 were the permutation oracle's ceiling; kept as draws
    for n, seed in ((9, 8800), (10, 8801)):
        inst = generate_instance(n, 5, seed=seed, density=0.4, max_duration=3, max_wage=20)
        expect, _ = brute_force(inst)
        result = solve(inst, SolveConfig(cache_capacity=1 << 14))
        assert result.status == "optimal"
        assert result.holding_cost == expect
        assert holding_cost(inst, result.schedule) == expect


def test_matches_subset_dp_past_the_brute_force_ceiling():
    # brute_force is the subset DP now; n = 11-16 were past the old
    # permutation oracle's ceiling
    switches = [{}] + [{flag: False} for flag in FEATURES]
    replaced = 0
    for n, inst, expect in _subset_dp_draws((11, 12, 13, 14, 15, 16)):
        # past 14 scenes only the unbounded cache, to keep the test's time
        # (the slow test below adds the pair-bound sets); up to 13 every
        # feature combination with no cache, at 2^4, where almost every
        # store collides and so drives the cache's replace path, and at
        # 2^16; at 14 every combination that keeps the pair bound, with no
        # cache and at 2^4
        runs = [(flags, 1 << 64) for flags in switches]
        if n <= 13:
            runs += [(flags, cap) for flags in EVERY for cap in (0, 1 << 4, 1 << 16)]
        elif n == 14:
            runs += [(flags, cap) for flags in BOUNDED for cap in (0, 1 << 4)]
        for flags, cap in runs:
            result = solve(inst, SolveConfig(cache_capacity=cap, **flags))
            assert result.status == "optimal"
            assert result.holding_cost == expect, (n, flags, cap)
            assert holding_cost(inst, result.schedule) == expect
            if cap == 1 << 64:
                assert result.cache_stats.collisions == 0
            if cap == 1 << 4:
                replaced += result.cache_stats.replacements
    assert replaced


def _subset_dp_draws(sizes):
    """``(n, instance, optimum)`` for the draws of n scenes, with 6 and 8
    actors at densities 0.30 and 0.45, that the subset-DP tests share."""
    for n, m, density in itertools.product(sizes, (6, 8), (0.3, 0.45)):
        inst = generate_instance(n, m, seed=9100 + n, density=density)
        yield n, inst, brute_force(inst)[0]


@pytest.mark.slow
def test_bounded_switch_sets_match_the_subset_dp_at_fifteen_and_sixteen_scenes():
    # the 8 switch sets that keep the pair bound, at caches 0, 2^4 and 2^16,
    # on the draws of n = 15-16 above, and at 2^16 on n = 14, which tier-1
    # runs at 0 and 2^4.  About 25 s on a 2-vCPU Xeon under CPython 3.11;
    # the sets without the bound would take about 430 s more at caches 0
    # and 2^4 (at 2^4, 16, 8, seed 9116, 0.30 alone takes 426,233 nodes),
    # so the next test runs them at 2^16 only
    solves = 0
    for n, inst, expect in _subset_dp_draws((14, 15, 16)):
        caps = (1 << 16,) if n == 14 else (0, 1 << 4, 1 << 16)
        for flags in BOUNDED:
            for cap in caps:
                result = solve(inst, SolveConfig(cache_capacity=cap, **flags))
                assert result.status == "optimal"
                assert result.holding_cost == expect, (n, flags, cap)
                assert holding_cost(inst, result.schedule) == expect
                solves += 1
    assert solves == 224


@pytest.mark.slow
def test_unbounded_switch_sets_match_the_subset_dp_at_fourteen_to_sixteen_scenes():
    # the 8 switch sets without the pair bound, at 2^16 only, on the draws
    # of n = 14-16 above.  About 10 s on a 2-vCPU Xeon under CPython 3.11
    solves = 0
    unbounded = [flags for flags in EVERY if not flags["enable_lower"]]
    for n, inst, expect in _subset_dp_draws((14, 15, 16)):
        for flags in unbounded:
            result = solve(inst, SolveConfig(cache_capacity=1 << 16, **flags))
            assert result.status == "optimal"
            assert result.holding_cost == expect, (n, flags)
            assert holding_cost(inst, result.schedule) == expect
            solves += 1
    assert solves == 96


def test_branch_order_matches_brute_force():
    """1,008 solves with all 16 feature switch sets at caches 0, 2^4 and 2^16
    on 21 draws of n = 4-10 with 5, 8 and 12 actors, and 144 with the pair
    bound on at the same caches for n = 11-16; durations up to 3, 5 and 9.
    Past 10 scenes the switch sets without the bound are left out (with 12
    actors one such solve takes up to a million nodes), and past 11 the
    draws have 5 or 8 actors (at n = 14 with 12, the 24 solves take 20 s)."""
    draws = [(n, k) for n in range(4, 11) for k in range(3)]
    draws += [(11, 2)] + [(n, n % 2) for n in range(12, 17)]
    solves = 0
    for n, k in draws:
        m = (5, 8, 12)[k]
        max_duration = (3, 5, 9)[(n + k) % 3]
        inst = generate_instance(
            n, m, seed=9700 + 3 * n + k, density=(0.3, 0.45)[n % 2],
            max_duration=max_duration, max_wage=20,
        )
        expect, _ = brute_force(inst)
        for flags in EVERY if n <= 10 else BOUNDED:
            for cap in (0, 1 << 4, 1 << 16):
                result = solve(inst, SolveConfig(cache_capacity=cap, **flags))
                assert result.status == "optimal"
                assert result.holding_cost == expect, (n, m, flags, cap)
                assert holding_cost(inst, result.schedule) == expect
                solves += 1
    assert solves == 1152


def test_day_mask_cap_is_decided_per_solve():
    at_cap = Instance(4, 2, (0b01, 0b10, 0b11, 0b01), (1024,) * 4, (3, 5))
    past_cap = Instance(4, 2, at_cap.scene_actors, (1024, 1024, 1024, 1025), (3, 5))
    assert sum(at_cap.durations) == solver_mod.DAY_MASK_MAX_DAYS
    assert solver_mod._Search(at_cap, FAST).days is int.bit_count
    assert solver_mod._Search(past_cap, FAST).days is not int.bit_count
    for inst in (at_cap, past_cap):
        expect, _ = brute_force(inst)
        assert solve(inst, FAST).holding_cost == expect


def test_huge_durations_take_scene_masks_and_match_brute_force():
    # durations around 10^6 would make day masks of millions of bits, so
    # these solves sum durations per scene
    rng = random.Random(9800)
    for n in (8, 10, 12):
        base = generate_instance(n, 6, seed=9800 + n, density=0.4, max_duration=3)
        inst = Instance(
            n, base.num_actors, base.scene_actors,
            tuple(rng.randint(500_000, 1_500_000) for _ in range(n)), base.wages,
        )
        assert solver_mod._Search(inst, FAST).days is not int.bit_count
        expect, _ = brute_force(inst)
        for cap in (0, 1 << 4, 1 << 16):
            for lower in (True, False):
                cfg = SolveConfig(cache_capacity=cap, enable_lower=lower)
                result = solve(inst, cfg)
                assert result.holding_cost == expect
                assert holding_cost(inst, result.schedule) == expect
    # every cost scales with the durations, so the scaled search is the same
    # one; 720720 = lcm(1..16) keeps the averaging bound's rounding exact
    for n, m in ((11, 7), (12, 8), (13, 8)):
        inst = generate_instance(n, m, seed=9810 + n, density=0.35, max_duration=9)
        big = Instance(
            n, m, inst.scene_actors, tuple(720720 * d for d in inst.durations), inst.wages
        )
        assert solver_mod._Search(inst, FAST).days is int.bit_count
        assert solver_mod._Search(big, FAST).days is not int.bit_count
        small, large = solve(inst, FAST), solve(big, FAST)
        assert large.holding_cost == small.holding_cost * 720720
        assert large.schedule == small.schedule
        assert large.subproblems == small.subproblems


def test_scene_masks_keep_the_search(monkeypatch):
    """With the day-mask cap at 0 every solve sums durations per scene;
    answers, node counts and cache counters are those of day masks."""
    cases = [
        (generate_instance(n, m, seed=9820 + n, density=0.35, max_duration=d), cap)
        for n, m, d in ((12, 8, 3), (13, 12, 9), (14, 6, 5))
        for cap in (0, 1 << 4, 1 << 16)
    ]
    by_day = [solve(inst, SolveConfig(cache_capacity=cap)) for inst, cap in cases]
    monkeypatch.setattr(solver_mod, "DAY_MASK_MAX_DAYS", 0)
    for (inst, cap), expected in zip(cases, by_day):
        result = solve(inst, SolveConfig(cache_capacity=cap))
        assert result.holding_cost == expected.holding_cost
        assert result.schedule == expected.schedule
        assert result.subproblems == expected.subproblems
        assert result.cache_stats == expected.cache_stats


def test_time_limited_answers_never_undercut_the_optimum():
    for n in range(17, 21):
        inst = generate_instance(n, 8, seed=9400 + n, density=0.35, max_duration=3, max_wage=20)
        optimum, _ = brute_force(inst)
        result = solve(inst, SolveConfig(cache_capacity=1 << 16, time_limit=0.2))
        assert holding_cost(inst, result.schedule) == result.holding_cost
        assert result.holding_cost >= optimum
        if result.status == "optimal":
            assert result.holding_cost == optimum


def _overstated_bounds(inst, search, exact_costs=None):
    """The resident cache entries of a finished ``_Search`` whose bound
    exceeds the state's exact future cost, and how many entries there are.
    That cost is the oracle's DP over the remaining scenes with the front's
    actors on location from the first day and the back's to the last;
    actors at both blocks are left out, as the past cost charged them.
    ``exact_costs``, a dict by key, keeps the costs across solves of
    ``inst``."""
    if exact_costs is None:
        exact_costs = {}
    over = []
    slots = search.cache._slots
    for key, bound in slots.values():
        exact = exact_costs.get(key)
        if exact is None:
            front, back, remaining = key
            charged = front & back
            scenes = bits(remaining)
            exact = exact_costs[key] = solver_mod._order_dp(
                [inst.scene_actors[s] & ~charged for s in scenes],
                [inst.durations[s] for s in scenes],
                inst.wages,
                front & ~charged,
                back & ~charged,
            )[0]
        if bound > exact:
            over.append((key, bound, exact))
    return over, len(slots)


def test_cached_bounds_never_exceed_the_future_cost():
    proved = 0
    for k in range(40):
        inst = generate_instance(
            6 + k % 8, 5 + k % 4, seed=9300 + k, density=(0.3, 0.45)[k % 2],
            max_duration=3, max_wage=20,
        )
        for pre in (True, False):
            search = solver_mod._Search(
                inst, SolveConfig(cache_capacity=1 << 64, enable_preprocess=pre)
            )
            assert search.run().holding_cost == brute_force(inst)[0]
            over, _ = _overstated_bounds(inst, search)
            assert not over, (k, pre, over[:3])
            proved += sum(entry[1] > 0 for entry in search.cache._slots.values())
    assert proved > 1000
    # a time-limit unwind writes no bound: this draw's first dive is far
    # from the optimum, so a bound written on the way out would overstate
    inst = generate_instance(13, 8, seed=13, density=0.35, max_duration=3, max_wage=20)
    search = solver_mod._Search(inst, SolveConfig(cache_capacity=1 << 64, time_limit=1e-9))
    result = search.run()
    assert result.status == "time_limit"
    assert result.holding_cost > brute_force(inst)[0]
    over, entries = _overstated_bounds(inst, search)
    assert not over and entries > 5


def test_cached_bounds_are_sound_under_every_switch_set():
    # the subset scan prunes a node by any resident state of its blocks
    # whose remaining scenes it holds, which is sound only if every stored
    # bound is at most its own state's exact future cost; small caches
    # evict entries whose nodes are still searching
    proved = 0
    for k in range(30):
        inst = generate_instance(
            6 + k % 5, 5 + k % 4, seed=9500 + k, density=(0.3, 0.45)[k % 2],
            max_duration=3, max_wage=20,
        )
        optimum = brute_force(inst)[0]
        exact_costs = {}
        for flags in EVERY:
            for cap in (1 << 4, 1 << 16):
                search = solver_mod._Search(inst, SolveConfig(cache_capacity=cap, **flags))
                assert search.run().holding_cost == optimum, (k, flags, cap)
                over, _ = _overstated_bounds(inst, search, exact_costs)
                assert not over, (k, flags, cap, over[:3])
                proved += sum(entry[1] > 0 for entry in search.cache._slots.values())
    assert proved > 20000, proved


def test_matches_brute_force_on_a_wide_cast_at_eighteen_scenes():
    # the hardest class the oracle still checks in about a second
    inst = generate_instance(18, 14, seed=1, density=0.30, max_duration=3, max_wage=20)
    assert brute_force(inst)[0] == 674
    result = solve(inst)
    assert (result.status, result.holding_cost) == ("optimal", 674)
    assert holding_cost(inst, result.schedule) == 674


def _switch_sets_agree(draws, caps):
    """Every draw ``(n, m, seed, density)`` (durations up to 3, wages up to
    20) gets one optimum from all switches on, from rule 1 off and from
    preprocessing off, at each cache capacity in ``caps``; each schedule
    costs what its solve reports."""
    for n, m, seed, density in draws:
        inst = generate_instance(n, m, seed=seed, density=density, max_duration=3, max_wage=20)
        optima = set()
        for flags in ({}, {"enable_rule1": False}, {"enable_preprocess": False}):
            for cap in caps:
                result = solve(inst, SolveConfig(cache_capacity=cap, **flags))
                assert result.status == "optimal", (n, m, seed, flags, cap)
                assert sorted(result.schedule.order) == list(range(n))
                assert holding_cost(inst, result.schedule) == result.holding_cost
                optima.add(result.holding_cost)
        assert len(optima) == 1, (n, m, seed, optima)


def test_switch_sets_agree_past_the_oracle_ceiling():
    # no oracle reaches these sizes, and each switch set takes its own
    # search path, so one optimum among them is evidence of it
    _switch_sets_agree(((22, 8, 1, 0.35), (24, 8, 2, 0.35), (26, 8, 4, 0.40)), (1 << 16,))


@pytest.mark.slow
def test_switch_sets_agree_on_larger_draws():
    # about 55 s on a 2-vCPU Xeon under CPython 3.11; at 2^10 slots rule 1
    # off alone takes 5 minutes on 28, 8, 3
    _switch_sets_agree(
        ((28, 8, 3, 0.40), (30, 8, 2, 0.40), (36, 8, 1, 0.40)), (1 << 16, 1 << 22)
    )


@pytest.mark.slow
def test_small_and_large_caches_agree_at_fifty_two_scenes():
    # 2^16 slots is the smallest cache tried on which this draw finishes:
    # at 2^12 it takes more than 600 s.  About 12 s on a 2-vCPU Xeon under
    # CPython 3.11
    inst = generate_instance(52, 8, seed=1, density=0.5, max_duration=3, max_wage=20)
    for cap in (1 << 16, 1 << 22):
        result = solve(inst, SolveConfig(cache_capacity=cap))
        assert (result.status, result.holding_cost) == ("optimal", 2477), cap
        assert holding_cost(inst, result.schedule) == 2477


def test_cache_modes_only_change_node_counts():
    inst = generate_instance(12, 6, seed=8, density=0.35)
    results = {
        cap: solve(inst, SolveConfig(cache_capacity=cap))
        for cap in (0, 1 << 6, 1 << 8, 1 << 14, 1 << 64)
    }
    values = {r.holding_cost for r in results.values()}
    assert len(values) == 1


# (n, m, seed, density) -> config -> (optimum, nodes without a cache,
# nodes with a 2^10 cache, cache hits with it, nodes with the default 2^25
# cache, cache hits with it).  Recorded when the cache came to store a
# proven lower bound on each state's future cost, pruning at ``z + bound >=
# incumbent``, and to give a colliding slot to the state with more scenes
# left, and re-recorded when dominance came to force a scene that needs
# exactly the front's active actors and when the cache came to prune by
# any resident state with the same blocks and a subset of the node's
# remaining scenes; the 2^10 columns were re-recorded when every key came to
# take the mixed slot, which changes only which states share a slot.  The
# 12-actor draw, the only one past 8 actors (so its wage sums read more than
# one byte table), was recorded before each node came to take its
# remaining-days mask and active actors from its parent.  Any change to a
# pruning rule, to the cache, to the order of the search or to its start
# shows up here.
NODE_PINS = {
    (10, 6, 7101, 0.35): {
        "all": (90, 34, 32, 3, 32, 3),
        "no-preprocess": (90, 41, 39, 3, 39, 3),
        "no-rule1": (90, 34, 32, 3, 32, 3),
        "no-rule2": (90, 34, 32, 3, 32, 3),
        "no-lower": (90, 264, 142, 44, 142, 44),
    },
    (11, 7, 7102, 0.4): {
        "all": (234, 82, 44, 16, 44, 16),
        "no-preprocess": (234, 84, 46, 16, 46, 16),
        "no-rule1": (234, 98, 46, 16, 46, 16),
        "no-rule2": (234, 82, 44, 16, 44, 16),
        "no-lower": (234, 576, 215, 68, 215, 70),
    },
    (12, 8, 7103, 0.3): {
        "all": (609, 892, 340, 102, 332, 102),
        "no-preprocess": (609, 903, 344, 103, 336, 103),
        "no-rule1": (609, 1034, 366, 112, 353, 111),
        "no-rule2": (609, 939, 352, 110, 341, 110),
        "no-lower": (609, 13489, 3969, 1334, 2974, 1290),
    },
    (12, 6, 7104, 0.45): {
        "all": (466, 93, 39, 11, 39, 11),
        "no-preprocess": (466, 113, 46, 12, 46, 12),
        "no-rule1": (466, 101, 40, 11, 40, 11),
        "no-rule2": (466, 102, 40, 11, 40, 11),
        "no-lower": (466, 712, 246, 86, 246, 86),
    },
    (13, 7, 7105, 0.35): {
        "all": (246, 283, 156, 42, 156, 44),
        "no-preprocess": (246, 428, 226, 55, 221, 57),
        "no-rule1": (246, 312, 169, 45, 169, 48),
        "no-rule2": (246, 309, 163, 48, 163, 50),
        "no-lower": (246, 5007, 1777, 673, 1619, 696),
    },
    (14, 8, 7106, 0.3): {
        "all": (124, 137, 70, 21, 70, 21),
        "no-preprocess": (124, 316, 92, 27, 92, 27),
        "no-rule1": (124, 164, 79, 24, 79, 24),
        "no-rule2": (124, 137, 70, 21, 70, 21),
        "no-lower": (124, 2546, 431, 180, 426, 180),
    },
    (12, 12, 7107, 0.3): {
        "all": (1150, 929, 443, 130, 441, 136),
        "no-preprocess": (1150, 931, 445, 130, 443, 136),
        "no-rule1": (1150, 937, 446, 131, 444, 137),
        "no-rule2": (1150, 947, 452, 137, 450, 143),
        "no-lower": (1150, 14017, 5055, 1592, 4334, 1955),
    },
}
PIN_CONFIGS = {
    "all": {},
    "no-preprocess": {"enable_preprocess": False},
    "no-rule1": {"enable_rule1": False},
    "no-rule2": {"enable_rule2": False},
    "no-lower": {"enable_lower": False},
}


@pytest.mark.parametrize("key", sorted(NODE_PINS))
def test_node_counts_are_pinned(key):
    n, m, seed, density = key
    inst = generate_instance(n, m, seed=seed, density=density)
    for name, pins in NODE_PINS[key].items():
        bare = solve(inst, SolveConfig(cache_capacity=0, **PIN_CONFIGS[name]))
        cached = solve(inst, SolveConfig(cache_capacity=1 << 10, **PIN_CONFIGS[name]))
        default = solve(inst, SolveConfig(**PIN_CONFIGS[name]))
        got = (
            bare.holding_cost,
            bare.subproblems,
            cached.subproblems,
            cached.cache_stats.hits,
            default.subproblems,
            default.cache_stats.hits,
        )
        assert got == pins, name
        assert cached.holding_cost == default.holding_cost == pins[0], name


def test_profiled_kernel_names_exist():
    # perfbench/run.py charges self time to these names through a
    # defaultdict, which reads 0 for a name that no longer exists
    for owner, name in (
        (solver_mod._Search, "_search"),
        (solver_mod._Search, "_branch_lower"),
        (solver_mod._Search, "_dominated"),
        (solver_mod._Search, "_increment"),
        (StateCache, "check_and_update"),
    ):
        assert callable(getattr(owner, name, None)), name
    runner = (Path(__file__).resolve().parents[1] / "perfbench" / "run.py").read_text(encoding="utf-8")
    assert set(re.findall(r'cum\["(\w+)"\]', runner)) == {
        "_search", "_branch_lower", "_dominated", "_increment", "check_and_update",
    }
