import itertools
import random
import time
import tracemalloc

import pytest

from talentsched import (
    Instance,
    Schedule,
    SolveConfig,
    brute_force,
    generate_instance,
    greedy_upper_bound,
    holding_cost,
    solve,
    total_cost,
)
from talentsched import solver as solver_mod
from talentsched.solver import BRUTE_FORCE_MAX_SCENES
from talentsched.testkit import (
    WORKED_HOLDING_BEST,
    WORKED_TOTAL_BEST,
    fixture_worked_example,
)

FAST = SolveConfig(cache_capacity=1 << 12)


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


def test_branch_orders_agree():
    for seed in range(10):
        inst = generate_instance(8, 5, seed=1300 + seed, density=0.4)
        by_id = solve(inst, SolveConfig(cache_capacity=1 << 10, branch_order="id"))
        cheap = solve(
            inst, SolveConfig(cache_capacity=1 << 10, branch_order="cheapest")
        )
        assert by_id.holding_cost == cheap.holding_cost


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


def test_infinite_time_limit_means_no_limit():
    result = solve(
        fixture_worked_example(),
        SolveConfig(cache_capacity=1 << 10, time_limit=float("inf")),
    )
    assert result.status == "optimal"
    assert result.holding_cost == WORKED_HOLDING_BEST


def test_initial_ub_hint_keeps_optimum_reachable():
    inst = generate_instance(8, 5, seed=55, density=0.4)
    expect = brute_force(inst)[0]
    exact_hint = solve(inst, SolveConfig(cache_capacity=0, initial_ub=expect))
    loose_hint = solve(inst, SolveConfig(cache_capacity=0, initial_ub=expect + 5))
    assert exact_hint.holding_cost == expect
    assert loose_hint.holding_cost == expect


def test_initial_ub_below_the_optimum_raises():
    inst = fixture_worked_example()
    with pytest.raises(ValueError, match="initial_ub=52"):
        solve(inst, SolveConfig(cache_capacity=1 << 10, initial_ub=52))
    result = solve(inst, SolveConfig(cache_capacity=1 << 10, initial_ub=53))
    assert result.status == "optimal"
    assert result.holding_cost == WORKED_HOLDING_BEST


def test_initial_ub_keeps_time_limit_status():
    # the search stops long before it could prove the hint unreachable, so
    # the greedy incumbent above the hint comes back as a time-limited answer
    inst = generate_instance(26, 8, seed=2, density=0.3, max_duration=3)
    cfg = SolveConfig(cache_capacity=1 << 10, time_limit=0.01, initial_ub=800)
    result = solve(inst, cfg)
    assert result.status == "time_limit"
    assert result.holding_cost > 800
    assert holding_cost(inst, result.schedule) == result.holding_cost


def test_config_validation():
    for bad in (3, -4, None):
        with pytest.raises(ValueError):
            SolveConfig(cache_capacity=bad)
    with pytest.raises(ValueError):
        SolveConfig(cache_strategy="clock")
    for bad in (0, -1.0, float("nan")):
        with pytest.raises(ValueError):
            SolveConfig(time_limit=bad)
    with pytest.raises(ValueError):
        SolveConfig(branch_order="random")
    with pytest.raises(ValueError):
        SolveConfig(initial_ub=-1)


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
    assert (result.status, result.holding_cost, result.subproblems) == ("optimal", 0, 1)

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
    switches = [{}] + [
        {flag: False}
        for flag in ("enable_preprocess", "enable_rule1", "enable_rule2", "enable_lower")
    ]
    for n, m, density in itertools.product((11, 12, 13, 14, 15, 16), (6, 8), (0.3, 0.45)):
        inst = generate_instance(n, m, seed=9100 + n, density=density)
        expect, _ = brute_force(inst)
        # past 14 scenes only the unbounded cache, to keep the test's time
        caps = (0, 1 << 4, 1 << 64) if n <= 14 else (1 << 64,)
        for flags, cap in itertools.product(switches, caps):
            result = solve(inst, SolveConfig(cache_capacity=cap, **flags))
            assert result.status == "optimal"
            assert result.holding_cost == expect, (n, flags, cap)
            assert holding_cost(inst, result.schedule) == expect
            if cap == 1 << 64:
                assert result.cache_stats.collisions == 0


def test_time_limited_answers_never_undercut_the_optimum():
    for n in range(17, 21):
        inst = generate_instance(n, 8, seed=9400 + n, density=0.35, max_duration=3, max_wage=20)
        optimum, _ = brute_force(inst)
        result = solve(inst, SolveConfig(cache_capacity=1 << 16, time_limit=0.2))
        assert holding_cost(inst, result.schedule) == result.holding_cost
        assert result.holding_cost >= optimum
        if result.status == "optimal":
            assert result.holding_cost == optimum


def test_cache_modes_only_change_node_counts():
    inst = generate_instance(12, 6, seed=8, density=0.35)
    results = {
        cap: solve(inst, SolveConfig(cache_capacity=cap))
        for cap in (0, 1 << 6, 1 << 14, 1 << 64)
    }
    values = {r.holding_cost for r in results.values()}
    assert len(values) == 1
    for strategy in ("latest", "greedy"):
        r = solve(inst, SolveConfig(cache_capacity=1 << 8, cache_strategy=strategy))
        assert r.holding_cost in values


# (n, m, seed, density) -> config -> (optimum, nodes without a cache,
# nodes with a 2^10 cache, cache hits with it, nodes with the default 2^25
# cache, cache hits with it).  Recorded from the solver before its kernels
# were lifted into module functions (the default-cache pair before the
# cache moved its slots into a dict); any change to a pruning rule, to the
# cache or to the order of the search shows up here.
NODE_PINS = {
    (10, 6, 7101, 0.35): {
        "all": (90, 29, 27, 3, 27, 3),
        "no-preprocess": (90, 30, 28, 3, 28, 3),
        "no-rule1": (90, 31, 29, 3, 29, 3),
        "no-rule2": (90, 29, 27, 3, 27, 3),
        "no-lower": (90, 191, 95, 33, 95, 33),
        "cheapest": (90, 29, 27, 3, 27, 3),
    },
    (11, 7, 7102, 0.4): {
        "all": (234, 125, 92, 15, 92, 15),
        "no-preprocess": (234, 147, 114, 15, 114, 15),
        "no-rule1": (234, 144, 100, 16, 100, 16),
        "no-rule2": (234, 127, 94, 15, 94, 15),
        "no-lower": (234, 625, 281, 55, 280, 56),
        "cheapest": (234, 120, 87, 15, 87, 15),
    },
    (12, 8, 7103, 0.3): {
        "all": (609, 1329, 822, 112, 816, 114),
        "no-preprocess": (609, 1405, 888, 120, 882, 122),
        "no-rule1": (609, 1605, 947, 159, 922, 159),
        "no-rule2": (609, 1413, 865, 116, 859, 118),
        "no-lower": (609, 13274, 4923, 1106, 4619, 1305),
        "cheapest": (609, 1432, 865, 133, 859, 135),
    },
    (12, 6, 7104, 0.45): {
        "all": (466, 252, 179, 19, 179, 19),
        "no-preprocess": (466, 336, 231, 23, 231, 23),
        "no-rule1": (466, 294, 211, 22, 211, 22),
        "no-rule2": (466, 278, 193, 19, 193, 19),
        "no-lower": (466, 875, 384, 67, 384, 67),
        "cheapest": (466, 179, 107, 16, 107, 16),
    },
    (13, 7, 7105, 0.35): {
        "all": (246, 349, 252, 35, 247, 35),
        "no-preprocess": (246, 634, 431, 59, 429, 60),
        "no-rule1": (246, 391, 280, 38, 275, 38),
        "no-rule2": (246, 406, 292, 39, 286, 38),
        "no-lower": (246, 4640, 1999, 503, 1903, 535),
        "cheapest": (246, 362, 265, 33, 260, 33),
    },
    (14, 8, 7106, 0.3): {
        "all": (124, 174, 103, 22, 103, 22),
        "no-preprocess": (124, 474, 170, 36, 170, 36),
        "no-rule1": (124, 221, 139, 24, 139, 25),
        "no-rule2": (124, 174, 103, 22, 103, 22),
        "no-lower": (124, 2820, 626, 180, 605, 177),
        "cheapest": (124, 157, 86, 22, 86, 22),
    },
}
PIN_CONFIGS = {
    "all": {},
    "no-preprocess": {"enable_preprocess": False},
    "no-rule1": {"enable_rule1": False},
    "no-rule2": {"enable_rule2": False},
    "no-lower": {"enable_lower": False},
    "cheapest": {"branch_order": "cheapest"},
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


def test_cheapest_order_computes_each_increment_once(monkeypatch):
    inst = generate_instance(14, 8, seed=7106, density=0.3)
    calls = 0
    increment = solver_mod._Search._increment

    def counted(self, *args):
        nonlocal calls
        calls += 1
        return increment(self, *args)

    monkeypatch.setattr(solver_mod._Search, "_increment", counted)
    result = solve(inst, SolveConfig(cache_capacity=1 << 10, branch_order="cheapest"))
    assert result.subproblems == NODE_PINS[(14, 8, 7106, 0.3)]["cheapest"][2]
    # one call per remaining scene per branching node; computing the sort
    # key and the branch's increment separately made 602 here
    assert calls < 602
