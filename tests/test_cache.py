import random
import tracemalloc

import pytest

from talentsched import (
    ExactStateStore,
    StateCache,
    StateKey,
    canonicalize,
    check_and_update,
)
from talentsched.instance import bits, mask_of


def test_canonicalize_keeps_lower_front():
    front = mask_of([0, 1, 3, 4])
    back = mask_of([0, 2, 5, 6])
    key = canonicalize(front, back, 0b111)
    assert key == StateKey(front, back, 0b111)  # index 1 beats index 2


def test_canonicalize_swaps_when_back_is_lower():
    front = mask_of([0, 2, 5, 6])
    back = mask_of([0, 1, 3, 4])
    key = canonicalize(front, back, 0b111)
    assert key.front == back and key.back == front


def test_canonicalize_equal_masks_unswapped():
    key = canonicalize(0b101, 0b101, 0b11)
    assert key == StateKey(0b101, 0b101, 0b11)


def test_canonicalize_symmetric():
    rng = random.Random(61)
    for _ in range(200):
        a, b, q = rng.getrandbits(12), rng.getrandbits(12), rng.getrandbits(12)
        assert canonicalize(a, b, q) == canonicalize(b, a, q)


def test_capacity_must_be_power_of_two():
    StateCache(1)
    StateCache(1 << 10)
    for bad in (0, -4, 3, 12):
        with pytest.raises(ValueError):
            StateCache(bad)
    with pytest.raises(ValueError):
        StateCache(8, strategy="random")


def test_capacity_only_bounds_memory():
    tracemalloc.start()
    try:
        cache = StateCache(1 << 30)
        allocated = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert allocated < 1e6
    assert not check_and_update(cache, 0b01, 0b10, 0b111, 5)
    assert check_and_update(cache, 0b01, 0b10, 0b111, 5)


def test_replace_policies():
    key_a = StateKey(1, 3, 7)
    key_b = StateKey(2, 5, 7)

    latest = StateCache(1, strategy="latest")
    assert latest.store(key_a, 10)
    assert latest.store(key_b, 99)  # collision always overwrites
    assert latest.lookup(key_b, 99)
    assert not latest.lookup(key_a, 10**9)

    greedy = StateCache(1, strategy="greedy")
    assert greedy.store(key_a, 10)
    assert not greedy.store(key_b, 12)  # larger value loses the slot fight
    assert greedy.lookup(key_a, 10)
    assert greedy.store(key_b, 9)  # smaller value wins it
    assert greedy.lookup(key_b, 9)


def test_equal_keys_keep_minimum_value():
    for strategy in ("latest", "greedy"):
        cache = StateCache(4, strategy=strategy)
        key = StateKey(3, 5, 1)
        cache.store(key, 10)
        assert cache.store(key, 7)
        assert cache.lookup(key, 7)
        assert not cache.store(key, 9)  # never regress to a larger value
        assert cache.lookup(key, 8)


def test_collision_never_prunes():
    cache = StateCache(1)  # everything lands in slot 0
    cache.store(StateKey(1, 2, 3), 0)
    assert not cache.lookup(StateKey(4, 5, 6), 10**9)
    assert cache.stats.collisions == 0  # lookups don't count collisions
    cache.store(StateKey(4, 5, 6), 1)
    assert cache.stats.collisions == 1


def test_check_and_update_stores_then_prunes_revisits():
    cache = StateCache(1 << 8)
    assert not check_and_update(cache, 0b01, 0b10, 0b111, 5)
    assert check_and_update(cache, 0b01, 0b10, 0b111, 5)
    assert check_and_update(cache, 0b01, 0b10, 0b111, 9)
    assert not check_and_update(cache, 0b01, 0b10, 0b111, 3)  # better value
    assert check_and_update(cache, 0b01, 0b10, 0b111, 3)


def test_check_and_update_canonicalizes_sides():
    cache = StateCache(1 << 8)
    assert not check_and_update(cache, 0b10, 0b01, 0b11, 4)
    assert check_and_update(cache, 0b01, 0b10, 0b11, 4)  # swapped sides match


def test_subset_state_prunes():
    cache = StateCache(1 << 8)
    # seed the state reached after finishing scene 2 (remaining 0b011)
    assert not check_and_update(cache, 0b01, 0b10, 0b011, 5)
    # the superset node (remaining 0b111) with equal past cost is dominated
    assert check_and_update(cache, 0b01, 0b10, 0b111, 5)
    # a cheaper superset node survives and is stored
    assert not check_and_update(cache, 0b01, 0b10, 0b111, 4)


def test_subset_probe_respects_removable_masks():
    cache = StateCache(1 << 8)
    # state after removing the merged pair {0,1}
    check_and_update(cache, 0b01, 0b10, 0b100, 5)
    # merged probe drops both bits at once and finds it
    assert check_and_update(
        cache, 0b01, 0b10, 0b111, 5, removable_masks=[0b011, 0b100]
    )


def test_probe_accounting_balances():
    cache = StateCache(1 << 4)
    rng = random.Random(67)
    for _ in range(300):
        key = canonicalize(rng.getrandbits(6), rng.getrandbits(6), rng.getrandbits(6))
        if rng.random() < 0.5:
            cache.lookup(key, rng.randint(0, 20))
        else:
            cache.store(key, rng.randint(0, 20))
    assert cache.stats.hits + cache.stats.misses == cache.stats.probes


def test_exact_store_always_prunes_revisits():
    store = ExactStateStore()
    rng = random.Random(71)
    seen = {}
    for _ in range(500):
        key = canonicalize(rng.getrandbits(8), rng.getrandbits(8), rng.getrandbits(8))
        value = rng.randint(0, 50)
        best = seen.get(key)
        expect_prune = best is not None and best <= value
        assert store.lookup(key, value) == expect_prune
        store.store(key, value)
        seen[key] = value if best is None else min(best, value)
    assert store.stats.hits + store.stats.misses == store.stats.probes


def _resident(cache):
    return cache._map if isinstance(cache, ExactStateStore) else cache._slots


@pytest.mark.parametrize(
    "capacity, strategy",
    [(None, "exact")] + [(cap, s) for cap in (1, 16, 256) for s in ("latest", "greedy")],
)
def test_check_and_update_matches_lookups_then_store(capacity, strategy):
    # the one-pass probe against the same cache driven through lookup (own
    # state, then each subset) and store, on a key space small enough for
    # hits, equal keys and slot collisions
    def make():
        return ExactStateStore() if capacity is None else StateCache(capacity, strategy)

    fast, ref = make(), make()
    rng = random.Random(73)
    for _ in range(3000):
        front, back, remaining = rng.getrandbits(3), rng.getrandbits(3), rng.getrandbits(5)
        past = rng.randint(0, 12)
        masks = None
        if rng.random() < 0.3:
            masks = []
            for s in bits(remaining):
                if masks and rng.random() < 0.4:
                    masks[-1] |= 1 << s  # a merged scene drops all its members
                else:
                    masks.append(1 << s)
        got = check_and_update(fast, front, back, remaining, past, masks)

        key = canonicalize(front, back, remaining)
        subs = [1 << s for s in bits(remaining)] if masks is None else masks
        want = ref.lookup(key, past) or any(
            ref.lookup(StateKey(key.front, key.back, remaining & ~r), past) for r in subs
        )
        if not want:
            ref.store(key, past)
        assert got == want
        assert fast.stats == ref.stats
        assert _resident(fast) == _resident(ref)
    assert fast.stats.hits and fast.stats.stores
    if capacity is not None:
        assert fast.stats.collisions and fast.stats.replacements
