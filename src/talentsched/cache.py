"""Direct-mapped cache of search states.

A state is the triple (actors on location at the front, actors on location
at the back, remaining scene set over original scene ids); its value is the
holding cost already forced by the two blocks (the "past cost" the solver
carries as ``z``).  Front/back are interchangeable by the problem's
reversal symmetry, so keys are canonicalized with the lower of the two
masks first.  The cache has ``capacity`` slots, a power of two, one entry
each; the slot index is the key's hash masked to the capacity.  Slots are
held in a dict filled only on store, so memory grows with the states
stored and the capacity only bounds it.  With ``capacity = 1 << 64`` the
mask keeps the whole 64-bit hash, so distinct states share a slot only
when their hashes are equal and nothing else is ever evicted.  A prune is
only ever issued on an exact field-by-field key match.  On a collision the
incoming state takes the slot only if its value is smaller (the ``greedy``
policy, the only one), and equal keys keep the minimum value.  A node may
also be pruned when the state reached by dropping any one remaining scene
(a merged scene drops all its members at once) is cached with a value not
above the node's past cost: finishing a subset of the work, in the same
order, can only cost less.

Each slot also keeps a record, an int the cache does not read: the solver
writes one at the exit of a node whose state holds the slot and reads it
back when a later visit of the same state is not pruned.  Lowering the
value of a resident key keeps its record; a state that takes a slot starts
with none (0).
"""

from __future__ import annotations

from dataclasses import dataclass

from .instance import bitset_lt


@dataclass
class CacheStats:
    """Counters of one cache, summed over its ``check_and_update`` calls.

    * ``probes`` -- states looked up: the node's own state and each subset state tried.
    * ``hits`` -- probes that found their exact key resident at a value not above
      the past cost, and so pruned the node.
    * ``misses`` -- probes that did not prune; ``hits + misses == probes``.
    * ``collisions`` -- stores that found a different key in the slot.
    * ``replacements`` -- collisions in which the incoming state took the slot,
      because its value was smaller.
    * ``stores`` -- fills of an empty slot; lowering the value of a resident
      equal key is not a store.
    * ``replays`` -- nodes whose children came from their state's record
      (counted by the solver, which reads the records).
    """

    probes: int = 0
    hits: int = 0
    misses: int = 0
    collisions: int = 0
    replacements: int = 0
    stores: int = 0
    replays: int = 0


class StateCache:
    """Direct-mapped store of the best known past cost per state, at most
    ``capacity`` entries.

    Slot ``hash(key) & (capacity - 1)`` holds one entry, the list ``[key,
    value, record]``; a key is the plain tuple ``(front, back, remaining)``,
    and tuples of ints hash through the interpreter's 64-bit mixer, which
    is deterministic across runs.  A colliding state takes the slot only if
    its value is smaller.  ``strategy`` accepts only ``"greedy"``, that
    policy's name; the benchmark runner still passes it.
    """

    def __init__(self, capacity: int, strategy: str = "greedy"):
        if capacity < 1 or capacity & (capacity - 1):
            raise ValueError("capacity must be a positive power of two")
        if strategy != "greedy":
            raise ValueError(f"unknown strategy {strategy!r} (greedy is the only one)")
        self.capacity = capacity
        self._slots: dict[int, list] = {}
        self.stats = CacheStats()

    def check_and_update(self, front, back, remaining, past_cost, removable_masks):
        """Prune check for one search node; ``None`` means prune.

        Probes the node's own state, then the state left by dropping each
        of ``removable_masks`` (the scene-set mask each remaining candidate
        removes) from ``remaining``.  When no probe prunes, the node's state
        is stored, unless it collides with a resident state of a value not
        above its own, and the node's entry ``[key, value, record]`` is
        returned.  Its record is the one stored with the state, or 0, and
        the caller may set a new one when the node exits, if ``holds``
        finds the entry still in its slot.
        """
        if bitset_lt(back, front):
            front, back = back, front
        slots = self._slots
        mask = self.capacity - 1
        key = (front, back, remaining)
        slot = hash(key) & mask
        own = slots.get(slot)
        stats = self.stats
        if own is not None and own[0] == key and own[1] <= past_cost:
            stats.probes += 1
            stats.hits += 1
            return None
        probes = 1
        for removed in removable_masks:
            probes += 1
            sub = (front, back, remaining & ~removed)
            entry = slots.get(hash(sub) & mask)
            if entry is not None and entry[0] == sub and entry[1] <= past_cost:
                stats.probes += probes
                stats.hits += 1
                stats.misses += probes - 1
                return None
        stats.probes += probes
        stats.misses += probes
        # the own-state probe missed, so a resident equal key holds a
        # larger value and is always improved, keeping its record
        if own is None:
            own = slots[slot] = [key, past_cost, 0]
            stats.stores += 1
        elif own[0] == key:
            own[1] = past_cost
        else:
            stats.collisions += 1
            resident = own[1]
            own = [key, past_cost, 0]
            if past_cost < resident:
                slots[slot] = own
                stats.replacements += 1
        return own

    def holds(self, entry) -> bool:
        """Whether an entry that ``check_and_update`` returned is in its
        slot: it may never have got it, or have lost it to a colliding
        state since."""
        return self._slots.get(hash(entry[0]) & (self.capacity - 1)) is entry
