"""Direct-mapped cache of search states, each with a proven lower bound on
its future cost (bounded dynamic programming: Garcia de la Banda, Stuckey
& Chu, *Solving talent scheduling with dynamic programming*, INFORMS JoC
2011).

A state is the triple (actors on location at the front, actors on location
at the back, remaining scene set over original scene ids).  Its future
cost is the least holding cost still to come once the two blocks are
fixed, on top of the "past cost" ``z`` the solver carries; it depends on
the state alone.  Front/back are interchangeable by the problem's reversal
symmetry, so keys are canonicalized with the lower of the two masks first.

An entry is the list ``[key, bound]``.  It is created with bound 0 when a
node's probe finds nothing to prune, and the solver raises the bound in
place when that node's search completes (a node cut short by the time
limit writes nothing).  A node at past cost ``z`` is pruned when its own
state, or the state reached by dropping any one remaining scene (a merged
scene drops all its members at once), is resident with ``z + bound >=
limit``, the incumbent's cost: finishing a subset of the work can only
cost less, so a subset state's bound holds for the node too.  A prune is
only ever issued on an exact field-by-field key match.  A cache of past
costs, which prunes a revisit at no lower past cost, is the special case
``bound = limit - z`` of this rule.

The cache has ``capacity`` slots, a power of two, one entry each; the slot
index is the key's hash masked to the capacity.  Slots are held in a dict
filled only on store, so memory grows with the states stored and the
capacity only bounds it.  With ``capacity = 1 << 64`` the mask keeps the
whole 64-bit hash, so distinct states share a slot only when their hashes
are equal and nothing else is ever evicted.  On a collision the incoming
state takes the slot only from a resident with fewer remaining scenes (the
``greedy`` policy, the only one): the larger state heads the larger
subtree, so its bound prunes more, and a node still being searched is
never pushed out by its own descendants.  Otherwise the incoming state
gets a detached entry, and its bound is lost at exit.  An entry evicted
while its node is still searching loses its bound the same way.

The slot index does not see every scene (measured under CPython 3.11).
The low k bits of a 3-tuple's hash do not depend on the high bits of its
last field's hash, so at ``2**k`` slots flipping any one of scenes 33 + k
through 60 never moves a state's slot: scenes 37-60 at ``2**4``, 55-60 at
``2**22``, 58-60 at the default ``2**25``, none from ``2**28`` up, so
states that differ only there share a slot.  And an int hashes modulo
``2**61 - 1``, so scenes 61-63 fold onto scenes 0-2: from 62 scenes up,
distinct states can share a full hash, and so a slot at any capacity.
"""

from __future__ import annotations

from dataclasses import dataclass

from .instance import bitset_lt


@dataclass
class CacheStats:
    """Counters of one cache, summed over its ``check_and_update`` calls.

    * ``probes`` -- states looked up: the node's own state and each subset state tried.
    * ``hits`` -- probes that found their exact key resident with a bound that
      reaches the incumbent (``z + bound >= limit``), and so pruned the node.
    * ``misses`` -- probes that did not prune, ``probes - hits``; read-only.
    * ``collisions`` -- stores that found a different key in the slot.
    * ``replacements`` -- collisions in which the incoming state took the slot,
      because it had more remaining scenes than the resident.
    * ``stores`` -- fills of an empty slot; finding a resident equal key is not
      a store.
    """

    probes: int = 0
    hits: int = 0
    collisions: int = 0
    replacements: int = 0
    stores: int = 0

    @property
    def misses(self) -> int:
        return self.probes - self.hits


class StateCache:
    """Direct-mapped store of a lower bound on each state's future cost, at
    most ``capacity`` entries.

    Slot ``hash(key) & (capacity - 1)`` holds one entry, the list ``[key,
    bound]``; a key is the plain tuple ``(front, back, remaining)``, and
    tuples of ints hash through the interpreter's 64-bit mixer, which is
    deterministic across runs.  The slot is blind to scenes 33 + k through
    60 at ``2**k`` slots, and from 62 scenes up distinct keys can share a
    full hash (see the module docstring).  A colliding state takes the
    slot only from a resident with fewer remaining scenes.  ``strategy``
    accepts only ``"greedy"``, that policy's name; the benchmark runner
    still passes it.
    """

    def __init__(self, capacity: int, strategy: str = "greedy"):
        if capacity < 1 or capacity & (capacity - 1):
            raise ValueError("capacity must be a positive power of two")
        if strategy != "greedy":
            raise ValueError(f"unknown strategy {strategy!r} (greedy is the only one)")
        self.capacity = capacity
        self._slots: dict[int, list] = {}
        self.stats = CacheStats()

    def check_and_update(self, front, back, remaining, z, limit, removable_masks):
        """Prune check for one search node at past cost ``z`` under the
        incumbent cost ``limit``.

        Probes the node's own state, then the state left by dropping each
        of ``removable_masks`` (the scene-set mask each remaining candidate
        removes) from ``remaining``.  A probe whose resident bound ``v``
        gives ``z + v >= limit`` prunes, and the call returns that ``v``,
        an int.  Otherwise it returns the node's own entry, a list ``[key,
        bound]``, for the node to raise the bound in at exit: the resident
        entry of an equal key, a new one in an empty slot or in place of a
        resident with fewer remaining scenes, or else a detached one that
        no slot holds.
        """
        if bitset_lt(back, front):
            front, back = back, front
        slots = self._slots
        mask = self.capacity - 1
        key = (front, back, remaining)
        slot = hash(key) & mask
        own = slots.get(slot)
        stats = self.stats
        if own is not None and own[0] == key and z + own[1] >= limit:
            stats.probes += 1
            stats.hits += 1
            return own[1]
        probes = 1
        for removed in removable_masks:
            probes += 1
            sub = (front, back, remaining & ~removed)
            entry = slots.get(hash(sub) & mask)
            if entry is not None and entry[0] == sub and z + entry[1] >= limit:
                stats.probes += probes
                stats.hits += 1
                return entry[1]
        stats.probes += probes
        if own is None:
            stats.stores += 1
        elif own[0] == key:
            return own
        else:
            stats.collisions += 1
            if remaining.bit_count() <= own[0][2].bit_count():
                return [key, 0]
            stats.replacements += 1
        own = slots[slot] = [key, 0]
        return own
