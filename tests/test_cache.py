import random
import tracemalloc

import pytest

from talentsched import StateCache
from talentsched.instance import bits, mask_of
from talentsched.testkit import CacheModel

FULL_HASH = 1 << 64  # the slot is the whole 64-bit hash: only equal hashes collide


def _singles(remaining):
    return [1 << s for s in bits(remaining)]


def _resident_keys(cache):
    return sorted(entry[0] for entry in cache._slots.values())


def test_canonicalize_keeps_lower_front():
    front = mask_of([0, 1, 3, 4])
    back = mask_of([0, 2, 5, 6])
    cache = StateCache(1 << 8)
    cache.check_and_update(front, back, 0b111, 0, [])
    assert _resident_keys(cache) == [(front, back, 0b111)]  # index 1 beats index 2


def test_canonicalize_swaps_when_back_is_lower():
    front = mask_of([0, 2, 5, 6])
    back = mask_of([0, 1, 3, 4])
    cache = StateCache(1 << 8)
    cache.check_and_update(front, back, 0b111, 0, [])
    assert _resident_keys(cache) == [(back, front, 0b111)]


def test_canonicalize_equal_masks_unswapped():
    cache = StateCache(1 << 8)
    cache.check_and_update(0b101, 0b101, 0b11, 0, [])
    assert _resident_keys(cache) == [(0b101, 0b101, 0b11)]


def test_canonicalize_symmetric():
    rng = random.Random(61)
    for _ in range(200):
        a, b, q = rng.getrandbits(12), rng.getrandbits(12), rng.getrandbits(12)
        one, other = StateCache(FULL_HASH), StateCache(FULL_HASH)
        one.check_and_update(a, b, q, 0, [])
        other.check_and_update(b, a, q, 0, [])
        assert _resident_keys(one) == _resident_keys(other)


def test_capacity_must_be_power_of_two():
    StateCache(1)
    StateCache(1 << 10)
    StateCache(FULL_HASH)
    for bad in (0, -4, 3, 12):
        with pytest.raises(ValueError):
            StateCache(bad)
    for bad in ("random", "latest"):
        with pytest.raises(ValueError):
            StateCache(8, strategy=bad)


def test_capacity_only_bounds_memory():
    tracemalloc.start()
    try:
        cache = StateCache(1 << 30)
        allocated = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert allocated < 1e6
    assert not cache.check_and_update(0b01, 0b10, 0b111, 5, _singles(0b111))
    assert cache.check_and_update(0b01, 0b10, 0b111, 5, _singles(0b111))


def test_replace_policies():
    cache = StateCache(1)
    assert not cache.check_and_update(1, 2, 7, 10, [])  # stored
    assert not cache.check_and_update(4, 8, 7, 12, [])  # larger value loses the slot fight
    assert not cache.check_and_update(4, 8, 7, 10, [])  # and so does an equal one
    assert cache.check_and_update(1, 2, 7, 10, [])
    assert not cache.check_and_update(4, 8, 7, 9, [])  # smaller value wins it
    assert cache.check_and_update(4, 8, 7, 9, [])
    assert (cache.stats.collisions, cache.stats.replacements) == (3, 1)
    assert _resident_keys(cache) == [(4, 8, 7)]


def test_equal_keys_keep_minimum_value():
    cache = StateCache(4)
    assert not cache.check_and_update(3, 5, 1, 10, [])
    assert not cache.check_and_update(3, 5, 1, 7, [])  # improves the value
    assert cache.check_and_update(3, 5, 1, 7, [])
    assert cache.check_and_update(3, 5, 1, 9, [])  # never regress to a larger value
    assert cache.check_and_update(3, 5, 1, 8, [])
    # improving a resident equal key is neither a store nor a collision
    assert (cache.stats.stores, cache.stats.collisions) == (1, 0)


def test_collision_never_prunes():
    cache = StateCache(1)  # everything lands in slot 0
    cache.check_and_update(1, 2, 3, 0, [])
    assert not cache.check_and_update(4, 8, 6, 10**9, [])
    assert cache.stats.hits == 0
    assert cache.stats.collisions == 1


def test_check_and_update_stores_then_prunes_revisits():
    cache = StateCache(1 << 8)
    masks = _singles(0b111)
    assert not cache.check_and_update(0b01, 0b10, 0b111, 5, masks)
    assert cache.check_and_update(0b01, 0b10, 0b111, 5, masks)
    assert cache.check_and_update(0b01, 0b10, 0b111, 9, masks)
    assert not cache.check_and_update(0b01, 0b10, 0b111, 3, masks)  # better value
    assert cache.check_and_update(0b01, 0b10, 0b111, 3, masks)


def test_check_and_update_canonicalizes_sides():
    cache = StateCache(1 << 8)
    assert not cache.check_and_update(0b10, 0b01, 0b11, 4, _singles(0b11))
    assert cache.check_and_update(0b01, 0b10, 0b11, 4, _singles(0b11))  # swapped sides match


def test_subset_state_prunes():
    cache = StateCache(1 << 8)
    # seed the state reached after finishing scene 2 (remaining 0b011)
    assert not cache.check_and_update(0b01, 0b10, 0b011, 5, _singles(0b011))
    # the superset node (remaining 0b111) with equal past cost is dominated
    assert cache.check_and_update(0b01, 0b10, 0b111, 5, _singles(0b111))
    # a cheaper superset node survives and is stored
    assert not cache.check_and_update(0b01, 0b10, 0b111, 4, _singles(0b111))


def test_subset_probe_respects_removable_masks():
    cache = StateCache(1 << 8)
    # state after removing the merged pair {0,1}
    cache.check_and_update(0b01, 0b10, 0b100, 5, _singles(0b100))
    # single-scene probes never reach it
    assert not cache.check_and_update(0b01, 0b10, 0b111, 5, _singles(0b111))
    # the merged probe drops both bits at once and finds it
    assert cache.check_and_update(0b01, 0b10, 0b111, 6, [0b011, 0b100])


def test_probe_accounting_balances():
    cache = StateCache(1 << 4)
    rng = random.Random(67)
    for _ in range(300):
        remaining = rng.getrandbits(4)
        masks = _singles(remaining) if rng.random() < 0.5 else []
        cache.check_and_update(
            rng.getrandbits(3), rng.getrandbits(3), remaining, rng.randint(0, 20), masks
        )
    assert cache.stats.hits + cache.stats.misses == cache.stats.probes
    assert cache.stats.hits and cache.stats.collisions


def test_exact_store_always_prunes_revisits():
    cache = StateCache(FULL_HASH)
    rng = random.Random(71)
    seen = {}
    for _ in range(500):
        front, back, remaining = rng.getrandbits(8), rng.getrandbits(8), rng.getrandbits(8)
        value = rng.randint(0, 50)
        key = (frozenset((front, back)), remaining)
        best = seen.get(key)
        expect_prune = best is not None and best <= value
        assert cache.check_and_update(front, back, remaining, value, []) == expect_prune
        seen[key] = value if best is None else min(best, value)
    assert cache.stats.hits + cache.stats.misses == cache.stats.probes
    assert cache.stats.collisions == 0
    assert cache.stats.stores == len(seen)


# each case is named for its capacity and the cache's one collision policy
@pytest.mark.parametrize("capacity", [FULL_HASH, 1, 16, 256], ids=lambda cap: f"{cap}-greedy")
def test_check_and_update_matches_lookups_then_store(capacity):
    # the one-pass probe against the testkit model, which looks up the own
    # state, then each subset, then stores, on a key space small enough for
    # hits, equal keys and slot collisions
    fast, ref = StateCache(capacity), CacheModel(capacity)
    rng = random.Random(73)
    for _ in range(3000):
        front, back, remaining = rng.getrandbits(3), rng.getrandbits(3), rng.getrandbits(5)
        past = rng.randint(0, 12)
        masks = _singles(remaining)
        if rng.random() < 0.3:
            masks = []
            for s in bits(remaining):
                if masks and rng.random() < 0.4:
                    masks[-1] |= 1 << s  # a merged scene drops all its members
                else:
                    masks.append(1 << s)
        got = fast.check_and_update(front, back, remaining, past, masks)
        want = ref.check_and_update(front, back, remaining, past, masks)
        assert got == want
        assert fast.stats == ref.stats
        assert fast._slots == ref.slots
    assert fast.stats.hits and fast.stats.stores
    if capacity == FULL_HASH:
        assert fast.stats.collisions == 0
        assert fast.stats.stores == len(fast._slots)
    else:
        assert fast.stats.collisions and fast.stats.replacements

