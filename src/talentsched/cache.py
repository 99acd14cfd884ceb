"""Direct-mapped cache of search states.

A state is the triple (actors on location at the front, actors on location
at the back, remaining scene set over original scene ids); its value is the
holding cost already forced by the two blocks (the "past cost" the solver
carries as ``z``).  Front/back are interchangeable by the problem's
reversal symmetry, so keys are canonicalized with the lower of the two
masks first.  The cache is a fixed power-of-two array of slots, one entry
each; the slot index is a 64-bit hash of the key masked to the capacity.
A prune is only ever issued on an exact field-by-field key match --
colliding keys fall through to the replacement policy:

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


def _hash_key(key: StateKey) -> int:
    # tuples of ints hash through the interpreter's 64-bit mixer, which is
    # deterministic across runs (int hashing is never randomized)
    return hash(key)


@dataclass
class CacheStats:
    probes: int = 0
    hits: int = 0
    misses: int = 0
    collisions: int = 0
    replacements: int = 0
    stores: int = 0


class StateCache:
    """Fixed-capacity direct-mapped store of the best known past cost per state."""

    def __init__(self, capacity: int, strategy: str = "greedy"):
        if capacity < 1 or capacity & (capacity - 1):
            raise ValueError("capacity must be a positive power of two")
        if strategy not in ("latest", "greedy"):
            raise ValueError(f"unknown strategy {strategy!r}")
        self.capacity = capacity
        self.strategy = strategy
        self._keys: list[StateKey | None] = [None] * capacity
        self._values: list[int] = [0] * capacity
        self.stats = CacheStats()

    def slot_of(self, key: StateKey) -> int:
        return _hash_key(key) & (self.capacity - 1)

    def lookup(self, key: StateKey, past_cost: int) -> bool:
        """True iff the exact key is resident with a value <= past_cost."""
        self.stats.probes += 1
        slot = self.slot_of(key)
        if self._keys[slot] == key and self._values[slot] <= past_cost:
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        return False

    def replace(self, slot: int, key: StateKey, value: int) -> bool:
        """Install (key, value) in the slot per the replacement policy;
        returns whether anything was stored."""
        resident = self._keys[slot]
        if resident is None:
            self._keys[slot] = key
            self._values[slot] = value
            self.stats.stores += 1
            return True
        if resident == key:
            if value < self._values[slot]:
                self._values[slot] = value
                return True
            return False
        self.stats.collisions += 1
        if self.strategy == "latest" or value < self._values[slot]:
            self._keys[slot] = key
            self._values[slot] = value
            self.stats.replacements += 1
            return True
        return False

    def store(self, key: StateKey, value: int) -> bool:
        return self.replace(self.slot_of(key), key, value)


class ExactStateStore:
    """Unbounded exact map with the same probe/store interface (test use)."""

    capacity = None
    strategy = "exact"

    def __init__(self):
        self._map: dict[StateKey, int] = {}
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
    key = canonicalize(front, back, remaining)
    if cache.lookup(key, past_cost):
        return True
    if removable_masks is None:
        removable_masks = [1 << s for s in bits(remaining)]
    for removed in removable_masks:
        sub = StateKey(key.front, key.back, remaining & ~removed)
        if cache.lookup(sub, past_cost):
            return True
    cache.store(key, past_cost)
    return False
