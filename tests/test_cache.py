import random
import re
import sys
import tracemalloc

import pytest

from talentsched import SolveConfig, StateCache, generate_instance
from talentsched.solver import _Search

from support import CacheModel, index_entries, mask_of, resident_states, slot_entries

FULL_HASH = 1 << 64  # the slot is a bijection of the 64-bit hash: only equal hashes collide
NO_INCUMBENT = float("inf")  # the search's limit before its first schedule


def _resident_keys(cache):
    return sorted(resident_states(cache))


def _slot_of(capacity, front, back, remaining):
    """The slot a ``capacity``-slot cache stores the state in."""
    cache = StateCache(capacity)
    cache.check_and_update(front, back, remaining, 0, NO_INCUMBENT)
    (slot,) = cache._slots
    return slot


def _colliding_keys(capacity):
    """Three distinct keys that share one slot of a ``capacity``-slot cache:
    two with the same number of remaining scenes, and one with more."""
    by_slot = {}
    for remaining in range(1, 1 << 12):
        key = (1, 2, remaining)
        by_slot.setdefault(_slot_of(capacity, *key), []).append(key)
    for keys in by_slot.values():
        for one, other in zip(keys, keys[1:]):
            size = one[2].bit_count()
            if other[2].bit_count() == size:
                for more in keys:
                    if more[2].bit_count() > size:
                        return one, other, more
    raise AssertionError("no slot shared")


def test_canonicalize_keeps_lower_front():
    front = mask_of([0, 1, 3, 4])
    back = mask_of([0, 2, 5, 6])
    cache = StateCache(1 << 8)
    cache.check_and_update(front, back, 0b111, 0, NO_INCUMBENT)
    assert _resident_keys(cache) == [(front, back, 0b111)]  # 27 < 101


def test_canonicalize_swaps_when_back_is_lower():
    front = mask_of([0, 2, 5, 6])
    back = mask_of([0, 1, 3, 4])
    cache = StateCache(1 << 8)
    cache.check_and_update(front, back, 0b111, 0, NO_INCUMBENT)
    assert _resident_keys(cache) == [(back, front, 0b111)]


def test_canonicalize_equal_masks_unswapped():
    cache = StateCache(1 << 8)
    cache.check_and_update(0b101, 0b101, 0b11, 0, NO_INCUMBENT)
    assert _resident_keys(cache) == [(0b101, 0b101, 0b11)]


def test_canonicalize_symmetric():
    rng = random.Random(61)
    for _ in range(200):
        a, b, q = rng.getrandbits(12), rng.getrandbits(12), rng.getrandbits(12)
        one, other = StateCache(FULL_HASH), StateCache(FULL_HASH)
        one.check_and_update(a, b, q, 0, NO_INCUMBENT)
        other.check_and_update(b, a, q, 0, NO_INCUMBENT)
        assert _resident_keys(one) == _resident_keys(other)


def test_capacity_must_be_power_of_two():
    StateCache(1)
    StateCache(1 << 10)
    StateCache(FULL_HASH)
    for bad in (0, -4, 3, 12, True, 1.0, 1 << 65, 1 << 100):
        with pytest.raises(ValueError, match=re.escape("a power of two up to 2**64")):
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
    assert cache.check_and_update(0b01, 0b10, 0b111, 5, 20) is None
    assert resident_states(cache) == {(0b01, 0b10, 0b111): 0}
    cache.raise_bound(0b01, 0b10, 0b111, 15)
    assert cache.check_and_update(0b01, 0b10, 0b111, 5, 20) == 15


def _resident_bytes(cache):
    """``sys.getsizeof`` summed over the cache's dicts and every object they
    hold, each object once: what its resident states cost."""
    seen = set()
    total = 0
    stack = [value for value in vars(cache).values() if isinstance(value, dict)]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        if isinstance(obj, dict):
            stack.extend(obj)
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
    return total


def test_a_resident_state_costs_at_most_340_bytes():
    # the README's count on 16, 16, 1, 0.30 at 2^22 slots: 312 bytes a
    # state under CPython 3.11, and 454 when each state was a list
    # ``[key, bound]`` on a tuple key.  340 leaves 9% for other versions'
    # dict and int layouts
    inst = generate_instance(16, 16, seed=1, density=0.3, max_duration=3, max_wage=20)
    search = _Search(inst, SolveConfig(cache_capacity=1 << 22))
    assert search.run().subproblems == 6019
    states = len(search.cache._slots)
    assert states == 2865
    assert _resident_bytes(search.cache) / states <= 340


def test_replace_policies():
    # one slot: a newcomer takes it only from a resident with fewer
    # remaining scenes, whatever either bound
    cache = StateCache(1)
    assert cache.check_and_update(1, 2, 0b0111, 0, 100) is None  # stored
    assert cache.check_and_update(4, 8, 0b0011, 0, 100) is None  # detached
    assert cache.check_and_update(4, 8, 0b0111, 0, 100) is None  # detached
    assert _resident_keys(cache) == [(1, 2, 0b0111)]
    cache.raise_bound(1, 2, 0b0111, 5)  # first's node proves a bound at exit
    assert cache.check_and_update(1, 2, 0b0111, 95, 100) == 5
    assert cache.check_and_update(4, 8, 0b1111, 0, 100) is None  # takes the slot
    assert slot_entries(cache) == {0: [(4, 8, 0b1111), 0]}
    assert _resident_keys(cache) == [(4, 8, 0b1111)]
    assert cache.check_and_update(1, 2, 0b0111, 95, 100) is None
    assert (cache.stats.collisions, cache.stats.replacements) == (4, 1)


def test_collision_rule_at_sixteen_slots():
    one, other, more = _colliding_keys(16)
    cache = StateCache(16)
    assert cache.check_and_update(*one, 0, 100) is None
    cache.raise_bound(*one, 9)
    # as many scenes left: detached, and its node's exit write is lost
    assert cache.check_and_update(*other, 0, 100) is None
    cache.raise_bound(*other, 50)
    assert resident_states(cache) == {one: 9}
    assert cache.check_and_update(*one, 91, 100) == 9
    assert cache.check_and_update(*other, 99, 100) is None
    # more scenes left: replaced
    assert cache.check_and_update(*more, 0, 100) is None
    cache.raise_bound(*more, 3)
    assert _resident_keys(cache) == [more]
    assert cache.check_and_update(*more, 97, 100) == 3
    assert cache.check_and_update(*one, 99, 100) is None
    stats = cache.stats
    assert (stats.collisions, stats.replacements, stats.stores) == (4, 1, 1)


def test_equal_keys_keep_larger_bound():
    cache = StateCache(4)
    assert cache.check_and_update(3, 5, 1, 0, 100) is None
    cache.raise_bound(3, 5, 1, 10)
    # a revisit that the bound does not prune leaves the resident state,
    # bound and all, so the node's exit write keeps the larger bound
    assert cache.check_and_update(3, 5, 1, 80, 100) is None
    assert resident_states(cache) == {(3, 5, 1): 10}
    cache.raise_bound(3, 5, 1, 7)
    assert resident_states(cache) == {(3, 5, 1): 10}
    assert cache.check_and_update(3, 5, 1, 90, 100) == 10
    assert cache.check_and_update(3, 5, 1, 89, 100) is None
    # finding a resident equal key is neither a store nor a collision
    assert (cache.stats.stores, cache.stats.collisions) == (1, 0)


def test_collision_never_prunes():
    cache = StateCache(1)  # everything lands in slot 0
    cache.check_and_update(1, 2, 3, 0, 10)
    cache.raise_bound(1, 2, 3, 10**6)
    assert cache.check_and_update(4, 8, 6, 10**9, 10) is None
    assert cache.stats.hits == 0
    assert cache.stats.collisions == 1


def test_writing_into_an_evicted_entry_changes_no_slot():
    cache = StateCache(1)
    cache.check_and_update(1, 2, 0b011, 0, 100)
    cache.check_and_update(4, 8, 0b111, 0, 100)  # takes the slot
    before = slot_entries(cache)
    cache.raise_bound(1, 2, 0b011, 60)  # the evicted node's exit write
    assert slot_entries(cache) == before == {0: [(4, 8, 0b111), 0]}
    # the bound table holds the resident state alone
    assert len(cache._bounds) == 1
    assert cache.check_and_update(1, 2, 0b011, 99, 100) is None


def test_check_and_update_stores_then_prunes_revisits():
    cache = StateCache(1 << 8)
    assert cache.check_and_update(0b01, 0b10, 0b111, 5, 20) is None
    cache.raise_bound(0b01, 0b10, 0b111, 15)
    assert cache.check_and_update(0b01, 0b10, 0b111, 5, 20) == 15
    assert cache.check_and_update(0b01, 0b10, 0b111, 9, 20) == 15
    assert cache.check_and_update(0b01, 0b10, 0b111, 4, 20) is None  # 19 < 20
    assert resident_states(cache) == {(0b01, 0b10, 0b111): 15}
    # a lower incumbent lets the same bound prune more
    assert cache.check_and_update(0b01, 0b10, 0b111, 4, 19) == 15


def test_prune_threshold_is_z_plus_bound_at_limit():
    cache = StateCache(1 << 8)
    cache.check_and_update(0b01, 0b10, 0b011, 0, 100)
    cache.raise_bound(0b01, 0b10, 0b011, 7)
    # own probe: 13 + 7 reaches 20, 12 + 7 does not
    assert cache.check_and_update(0b01, 0b10, 0b011, 13, 20) == 7
    assert cache.check_and_update(0b01, 0b10, 0b011, 12, 20) is None
    # subset scan from remaining 0b111 (scene 2 more): the same threshold
    assert cache.check_and_update(0b01, 0b10, 0b111, 13, 20) == 7
    assert cache.check_and_update(0b01, 0b10, 0b111, 12, 20) is None
    assert cache.stats.hits == 2


def test_check_and_update_canonicalizes_sides():
    cache = StateCache(1 << 8)
    cache.check_and_update(0b10, 0b01, 0b11, 4, 10)
    cache.raise_bound(0b10, 0b01, 0b11, 6)
    assert cache.check_and_update(0b01, 0b10, 0b11, 4, 10) == 6  # swapped sides match
    # the exit write canonicalizes its sides too
    cache.raise_bound(0b01, 0b10, 0b11, 8)
    assert resident_states(cache) == {(0b01, 0b10, 0b11): 8}


def test_subset_state_prunes():
    cache = StateCache(1 << 8)
    # seed the state reached after finishing scene 2 (remaining 0b011)
    cache.check_and_update(0b01, 0b10, 0b011, 5, 100)
    cache.raise_bound(0b01, 0b10, 0b011, 5)
    # the superset node costs at least as much to finish, so at 5 + 5 it
    # reaches the limit and is pruned with the subset's bound
    assert cache.check_and_update(0b01, 0b10, 0b111, 5, 10) == 5
    # a cheaper superset node survives and is stored
    assert cache.check_and_update(0b01, 0b10, 0b111, 4, 10) is None
    assert resident_states(cache)[0b01, 0b10, 0b111] == 0


def test_subset_scan_reaches_a_merged_pair_subset():
    cache = StateCache(1 << 8)
    # state after removing the merged pair {0,1}
    cache.check_and_update(0b01, 0b10, 0b100, 5, 100)
    cache.raise_bound(0b01, 0b10, 0b100, 4)
    # two scenes fewer: no one-scene probe reached it, the scan does
    assert cache.check_and_update(0b01, 0b10, 0b111, 6, 10) == 4
    assert (cache.stats.hits, cache.stats.subset_hits) == (1, 1)
    # a resident state with a scene the node has not left never prunes it
    assert cache.check_and_update(0b01, 0b10, 0b011, 6, 10) is None


def _probes_to_prune(cache, front, back, remaining, z, limit):
    """The probes one ``check_and_update`` call makes -- 1 for the node's
    own state, plus one per resident state of its blocks with a smaller
    remaining set as an int compared, the largest first, up to the one
    that prunes -- and the state that prunes: ``"own"``, ``"subset"`` or
    None."""
    if back < front:
        front, back = back, front
    key = (front, back, remaining)
    entries = slot_entries(cache).values()
    own = [entry for entry in entries if entry[0] == key]
    if own and z + own[0][1] >= limit:
        return 1, "own"
    below = sorted(
        (entry[0][2], entry[1])
        for entry in entries
        if entry[0][:2] == (front, back) and entry[0][2] < remaining
    )[::-1]
    for count, (r, bound) in enumerate(below, 2):
        if r & ~remaining == 0 and z + bound >= limit:
            return count, "subset"
    return 1 + len(below), None


def test_probe_accounting_balances():
    cache = StateCache(1 << 4)
    rng = random.Random(67)
    probes = 0
    prunes = {"own": 0, "subset": 0, None: 0}

    def call(*args):
        nonlocal probes
        count, pruned_by = _probes_to_prune(cache, *args)
        probes += count
        prunes[pruned_by] += 1
        got = cache.check_and_update(*args)
        assert (got is not None) == (pruned_by is not None)
        if got is None and rng.random() < 0.7:
            cache.raise_bound(*args[:3], rng.randint(0, 20))

    for _ in range(300):
        # one call in four revisits a resident state, as the search does
        if cache._slots and rng.random() < 0.25:
            front, back, remaining = rng.choice(list(slot_entries(cache).values()))[0]
        else:
            front, back, remaining = rng.getrandbits(3), rng.getrandbits(3), rng.getrandbits(4)
        call(front, back, remaining, rng.randint(0, 20), 25)
    subset_before = prunes["subset"]
    for _ in range(300):
        # a resident state's remaining set plus one scene: that resident
        # is a subset state, so its bound can prune by the scan, as it does
        # for a parent of a searched node
        front, back, remaining = rng.choice(list(slot_entries(cache).values()))[0]
        free = [s for s in range(remaining.bit_length() + 1) if not remaining >> s & 1]
        remaining |= 1 << rng.choice(free)
        call(front, back, remaining, rng.randint(0, 20), 25)
    assert cache.stats.probes == probes
    assert cache.stats.hits and cache.stats.collisions
    assert cache.stats.hits == prunes["own"] + prunes["subset"]
    assert cache.stats.subset_hits == prunes["subset"]
    assert prunes["own"] and prunes["subset"]
    # at least one in five
    assert prunes["subset"] - subset_before >= 60, prunes


def test_exact_store_always_prunes_revisits():
    cache = StateCache(FULL_HASH)
    rng = random.Random(71)
    limit = 60
    seen = {}  # nothing is evicted
    probes = 0
    for _ in range(500):
        front, back, remaining = rng.getrandbits(3), rng.getrandbits(3), rng.getrandbits(3)
        z = rng.randint(0, 50)
        blocks = frozenset((front, back))
        key = (blocks, remaining)
        bound = seen.get(key)
        got = cache.check_and_update(front, back, remaining, z, limit)
        if bound is not None and z + bound >= limit:
            assert got == bound
            probes += 1
            continue
        # of the stored states with the same blocks and a smaller remaining
        # set, the largest first, the first that is a subset whose bound
        # prunes, else none
        below = sorted(
            ((r, v) for (b, r), v in seen.items() if b == blocks and r < remaining), reverse=True
        )
        probes += 1 + len(below)
        for count, (r, v) in enumerate(below, 1):
            if r & ~remaining == 0 and z + v >= limit:
                assert got == v
                probes -= len(below) - count
                break
        else:
            assert got is None
            state = (min(front, back), max(front, back), remaining)
            assert resident_states(cache)[state] == (bound or 0)
            cache.raise_bound(front, back, remaining, rng.randint(0, 40))
            seen[key] = resident_states(cache)[state]
    # one probe per call, plus one per stored state of its blocks compared
    assert cache.stats.probes == probes
    assert cache.stats.hits and cache.stats.subset_hits
    assert cache.stats.collisions == 0
    assert cache.stats.stores == len(seen)


# each case is named for its capacity and the cache's one collision policy
@pytest.mark.parametrize("capacity", [FULL_HASH, 1, 16, 256], ids=lambda cap: f"{cap}-greedy")
def test_check_and_update_matches_lookups_then_store(capacity):
    # the one-pass probe against ``support.CacheModel``, which looks up the
    # own state, then sorts the resident states of its blocks for a subset
    # one, then stores, on a key space small enough for hits, equal keys and
    # slot collisions; one call in four revisits a resident state, as the
    # search does.  Each call that does not prune then makes the same exit
    # write to both, a bound of 0 in one call of three, as a node would
    fast, ref = StateCache(capacity), CacheModel(capacity)
    rng = random.Random(73)
    for _ in range(3000):
        front, back, remaining = rng.getrandbits(3), rng.getrandbits(3), rng.getrandbits(5)
        if fast._slots and rng.random() < 0.25:
            front, back, remaining = rng.choice(list(slot_entries(fast).values()))[0]
        z = rng.randint(0, 12)
        limit = rng.randint(8, 20)
        got = fast.check_and_update(front, back, remaining, z, limit)
        want = ref.check_and_update(front, back, remaining, z, limit)
        # the model hands back an entry where the cache returns None
        assert got == (want if isinstance(want, int) else None)
        assert fast.stats == ref.stats
        assert slot_entries(fast) == ref.slots
        # the bound table holds the resident keys, and only those
        assert set(fast._bounds) == set(fast._slots.values())
        # the index lists each block pair's resident entries, sorted
        groups = {}
        for entry in ref.slots.values():
            groups.setdefault(entry[0][:2], []).append(entry)
        assert index_entries(fast) == {blocks: sorted(group) for blocks, group in groups.items()}
        if got is None:
            bound = rng.choice([0, rng.randint(1, 12), rng.randint(1, 12)])
            fast.raise_bound(front, back, remaining, bound)
            want[1] = max(want[1], bound)
    assert fast.stats.hits and fast.stats.stores
    # one slot rarely keeps a subset of the next state resident
    assert fast.stats.subset_hits or capacity == 1
    if capacity == FULL_HASH:
        assert fast.stats.collisions == 0
        assert fast.stats.stores == len(fast._slots)
    else:
        assert fast.stats.collisions and fast.stats.replacements


@pytest.mark.parametrize("scenes", [20, 40, 64])
@pytest.mark.parametrize("k", [4, 16, 22, 25])
def test_slot_sees_every_scene(k, scenes):
    # for random states over ``scenes`` scenes, flipping any one scene moves
    # the slot unless the two slots meet by chance, one time in 2^k
    rng = random.Random(79)
    states = [
        (rng.getrandbits(16), rng.getrandbits(16), rng.getrandbits(scenes)) for _ in range(40)
    ]
    for scene in range(scenes):
        kept = 0
        for front, back, remaining in states:
            kept += _slot_of(1 << k, front, back, remaining) == _slot_of(
                1 << k, front, back, remaining ^ 1 << scene
            )
        assert kept <= 8, (scene, kept)
