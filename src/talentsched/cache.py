"""Direct-mapped cache of search states.

A state is the triple (actors on location at the front, actors on location
at the back, remaining scene set over original scene ids); its value is the
holding cost already forced by the two blocks (the "past cost" the solver
carries as ``z``).  Front/back are interchangeable by the problem's
reversal symmetry, so keys are canonicalized with the lower of the two
masks first.  The cache has ``capacity`` slots, a power of two, one entry
each; the slot index is the key's hash masked to the capacity.  Slots are
held in a dict filled only on store, so memory grows with the states
stored and the capacity only bounds it.  A prune is only ever issued on an
exact field-by-field key match -- colliding keys fall through to the
replacement policy:

* ``latest`` -- a collision always overwrites the resident entry.
* ``greedy`` -- a collision overwrites only if the incoming value is smaller.

Equal keys always keep the minimum value under either policy.  A node may
also be pruned when the state reached by dropping any one remaining scene
(a merged scene drops all its members at once) is cached with a value not
above the node's past cost: finishing a subset of the work, in the same
order, can only cost less.

``ExactStateStore`` is an unbounded dict-backed variant with the same
interface.  ``SolveConfig(cache_capacity=None)`` selects it so that tests
can check the cache against plain memoization; it has no capacity bound,
so it is not meant for large solves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .instance import bits, bitset_lt


class StateKey(NamedTuple):
    front: int
    back: int
    remaining: int


def canonicalize(front: int, back: int, remaining: int) -> StateKey:
    """Key with the lexicographically smaller actor mask first."""
    if bitset_lt(back, front):
        front, back = back, front
    return StateKey(front, back, remaining)


@dataclass
class CacheStats:
    probes: int = 0
    hits: int = 0
    misses: int = 0
    collisions: int = 0
    replacements: int = 0
    stores: int = 0


class StateCache:
    """Direct-mapped store of the best known past cost per state, at most
    ``capacity`` entries.

    Slot ``hash(key) & (capacity - 1)`` holds one ``(key, value)`` pair.  A
    ``StateKey`` hashes and compares as the plain tuple of its fields (tuples
    of ints hash through the interpreter's 64-bit mixer, which is
    deterministic across runs), so ``check`` probes with plain tuples and
    lands in the same slots as ``lookup`` and ``store``.
    """

    def __init__(self, capacity: int, strategy: str = "greedy"):
        if capacity < 1 or capacity & (capacity - 1):
            raise ValueError("capacity must be a positive power of two")
        if strategy not in ("latest", "greedy"):
            raise ValueError(f"unknown strategy {strategy!r}")
        self.capacity = capacity
        self.strategy = strategy
        self._slots: dict[int, tuple[tuple[int, int, int], int]] = {}
        self.stats = CacheStats()

    def slot_of(self, key: StateKey) -> int:
        return hash(key) & (self.capacity - 1)

    def lookup(self, key: StateKey, past_cost: int) -> bool:
        """True iff the exact key is resident with a value <= past_cost."""
        self.stats.probes += 1
        entry = self._slots.get(self.slot_of(key))
        if entry is not None and entry[0] == key and entry[1] <= past_cost:
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        return False

    def replace(self, slot: int, key: StateKey, value: int) -> bool:
        """Install (key, value) in the slot per the replacement policy;
        returns whether anything was stored."""
        entry = self._slots.get(slot)
        if entry is None:
            self._slots[slot] = (key, value)
            self.stats.stores += 1
            return True
        if entry[0] == key:
            if value < entry[1]:
                self._slots[slot] = (entry[0], value)
                return True
            return False
        self.stats.collisions += 1
        if self.strategy == "latest" or value < entry[1]:
            self._slots[slot] = (key, value)
            self.stats.replacements += 1
            return True
        return False

    def store(self, key: StateKey, value: int) -> bool:
        return self.replace(self.slot_of(key), key, value)

    def check(self, front, back, remaining, past_cost, removable_masks) -> bool:
        """Prune check for one canonical state; True means prune.

        Does what ``lookup`` of the state, ``lookup`` of each subset state
        (``remaining`` without one of ``removable_masks``) and then ``store``
        of the state would do, counters included, in one pass.
        """
        slots = self._slots
        mask = self.capacity - 1
        key = (front, back, remaining)
        slot = hash(key) & mask
        own = slots.get(slot)
        stats = self.stats
        if own is not None and own[0] == key and own[1] <= past_cost:
            stats.probes += 1
            stats.hits += 1
            return True
        probes = 1
        for removed in removable_masks:
            probes += 1
            sub = (front, back, remaining & ~removed)
            entry = slots.get(hash(sub) & mask)
            if entry is not None and entry[0] == sub and entry[1] <= past_cost:
                stats.probes += probes
                stats.hits += 1
                stats.misses += probes - 1
                return True
        stats.probes += probes
        stats.misses += probes
        # the own-state probe missed, so a resident equal key holds a
        # larger value and is always improved
        if own is None:
            slots[slot] = (key, past_cost)
            stats.stores += 1
        elif own[0] == key:
            slots[slot] = (key, past_cost)
        else:
            stats.collisions += 1
            if self.strategy == "latest" or past_cost < own[1]:
                slots[slot] = (key, past_cost)
                stats.replacements += 1
        return False


class ExactStateStore:
    """Unbounded exact map with the same probe/store interface (test use)."""

    capacity = None
    strategy = "exact"

    def __init__(self):
        self._map: dict[tuple[int, int, int], int] = {}
        self.stats = CacheStats()

    def lookup(self, key: StateKey, past_cost: int) -> bool:
        self.stats.probes += 1
        value = self._map.get(key)
        if value is not None and value <= past_cost:
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        return False

    def store(self, key: StateKey, value: int) -> bool:
        old = self._map.get(key)
        if old is None or value < old:
            self._map[key] = value
            self.stats.stores += 1
            return True
        return False

    def check(self, front, back, remaining, past_cost, removable_masks) -> bool:
        """Same contract as ``StateCache.check``."""
        values = self._map
        stats = self.stats
        key = (front, back, remaining)
        own = values.get(key)
        if own is not None and own <= past_cost:
            stats.probes += 1
            stats.hits += 1
            return True
        probes = 1
        for removed in removable_masks:
            probes += 1
            value = values.get((front, back, remaining & ~removed))
            if value is not None and value <= past_cost:
                stats.probes += probes
                stats.hits += 1
                stats.misses += probes - 1
                return True
        stats.probes += probes
        stats.misses += probes
        values[key] = past_cost  # the own-state probe missed: new or better
        stats.stores += 1
        return False


def check_and_update(
    cache,
    front: int,
    back: int,
    remaining: int,
    past_cost: int,
    removable_masks=None,
) -> bool:
    """Prune check for one search node; True means prune.

    Probes the node's own state, then the state left by dropping each
    remaining scene (``removable_masks`` gives the scene-set mask each
    candidate removes; single bits by default).  When no probe prunes, the
    node's state is offered to the cache under its replacement policy.
    """
    if bitset_lt(back, front):
        front, back = back, front
    if removable_masks is None:
        removable_masks = [1 << s for s in bits(remaining)]
    return cache.check(front, back, remaining, past_cost, removable_masks)
