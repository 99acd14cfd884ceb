"""Direct-mapped cache of search states, each with a proven lower bound on
its future cost (bounded dynamic programming: Garcia de la Banda, Stuckey
& Chu, *Solving talent scheduling with dynamic programming*, INFORMS JoC
2011).

A state is the triple (actors on location at the front, actors on location
at the back, remaining scene set over original scene ids).  Its future
cost is the least holding cost still to come once the two blocks are
fixed, on top of the "past cost" ``z`` the solver carries; it depends on
the state alone.  Front/back are interchangeable by the problem's reversal
symmetry, so keys are canonicalized with the smaller of the two masks, as
an int, first.

An entry is the list ``[key, bound]``.  It is created with bound 0 when a
node's probe finds nothing to prune, and the solver raises the bound in
place when that node's search completes (a node cut short by the time
limit writes nothing).  A node at past cost ``z`` is pruned when its own
state, or any resident state with the same blocks and a subset of its
remaining scenes, holds a bound with ``z + bound >= limit``, the
incumbent's cost: finishing a subset of the work never costs more, so a
subset state's bound holds for the node too.  Every stored bound is a
lower bound whatever the incumbent, and an entry whose node is still
being searched holds 0, which never prunes.  A prune is only ever
issued on an exact match of the blocks.  A cache of past costs, which
prunes a revisit at no lower past cost, is the special case ``bound =
limit - z`` of this rule.

The cache has ``capacity`` slots, a power of two, one entry each.  Slots
are held in a dict filled only on store, so memory grows with the states
stored and the capacity only bounds it.  On a collision the incoming state
takes the slot only from a resident with fewer remaining scenes (the
``greedy`` policy, the only one): the larger state heads the larger
subtree, so its bound prunes more, and a node still being searched is
never pushed out by its own descendants.  Otherwise the incoming state
gets a detached entry, and its bound is lost at exit.  An entry evicted
while its node is still searching loses its bound the same way.  Beside
the slots, an index maps each pair of blocks to the list of resident
entries with those blocks, sorted by key: the same list objects as the
slots, added on store and removed on eviction.  The index answers both
probes.  Within one pair of blocks the keys sort by remaining set as an
int, and a proper subset is a smaller int, so the node's own entry, when
resident, sits at its key's place in the list and its subsets below it.
One scan from that place down tries the own state first and then the
subsets, largest first; it reads about half the list.  Largest first
also took fewer nodes than store order: 38,126 against 38,410 on
``generate_instance(28, 8, seed=3, density=0.4, max_duration=3,
max_wage=20)`` at ``2**22`` slots, measured before every key took the
mixed slot below; that draw takes 38,144 nodes today.  The slots are read
only to place a state that is not resident.

The slot of a key at ``2**k`` slots is the top k bits of ``h *
0x9E3779B97F4A7C15 mod 2**64``, with ``h`` the key's 64-bit hash with its
high half xored onto its low half.  The multiply carries every bit of
``h`` into its top bits; without the fold, flipping one scene moved the
product by a near-constant amount, and at ``2**4`` slots flipping scene
49 kept the slot of 55% of random 64-scene states.  The hash's own low
bits would not do: under CPython 3.11 the low k bits of a 3-tuple's hash
never see scenes 33 + k through 60, and at ``2**4`` slots flipping scene
10 kept the slot of 32 of 40 random 20-scene states.  Both steps are
bijections of the 64-bit hash, so with ``capacity = 1 << 64`` distinct
states share a slot only when their hashes are equal, and nothing else is
ever evicted.  An int hashes modulo ``2**61 - 1``, so scenes 61-63 fold
onto scenes 0-2: from 62 scenes up, distinct states can share a full
hash, and so a slot at any capacity.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

# Fibonacci hashing's multiplier, 2**64 over the golden ratio, made odd,
# and the 64-bit word it works in
_MIX = 0x9E3779B97F4A7C15
_WORD = (1 << 64) - 1


@dataclass
class CacheStats:
    """Counters of one cache, summed over its ``check_and_update`` calls.

    * ``probes`` -- states compared: one per call for the node's own state,
      plus one per resident entry of the node's blocks that the subset scan
      compares, up to the one that prunes.  The scan compares only entries
      whose remaining set is below the node's as an int.
    * ``hits`` -- calls that pruned the node: its own state, or a resident
      state with the same blocks and a subset of its remaining scenes, held
      a bound that reaches the incumbent (``z + bound >= limit``).
    * ``subset_hits`` -- the hits made by a subset state; ``hits -
      subset_hits`` are own-state prunes.
    * ``collisions`` -- stores that found a different key in the slot.
    * ``replacements`` -- collisions in which the incoming state took the slot,
      because it had more remaining scenes than the resident.
    * ``stores`` -- fills of an empty slot; finding a resident equal key is not
      a store.

    The command line prints and writes every field, in this order, so a new
    counter is one new field.
    """

    probes: int = 0
    hits: int = 0
    subset_hits: int = 0
    collisions: int = 0
    replacements: int = 0
    stores: int = 0


class StateCache:
    """Direct-mapped store of a lower bound on each state's future cost, at
    most ``capacity`` entries, with an index of the resident entries by
    their blocks.

    A slot holds one entry, the list ``[key, bound]``; a key is the plain
    tuple ``(front, back, remaining)``, and tuples of ints hash through
    the interpreter's 64-bit mixer, which is deterministic across runs.
    At ``2**k`` slots the slot is the top k bits of the hash folded onto
    its low half times ``0x9E3779B97F4A7C15 mod 2**64``, so it sees every
    scene; from 62 scenes up distinct keys can share a full hash (see the
    module docstring).  A colliding state takes the slot only from a
    resident with fewer remaining scenes.  ``strategy`` accepts only
    ``"greedy"``, that policy's name; the benchmark runner still passes
    it.
    """

    def __init__(self, capacity: int, strategy: str = "greedy"):
        # a bool is an int, and True would give a one-slot cache; past
        # 2**64 slots the shift below would be negative
        if (
            isinstance(capacity, bool) or not isinstance(capacity, int)
            or not 1 <= capacity <= 1 << 64 or capacity & (capacity - 1)
        ):
            raise ValueError("capacity must be a power of two up to 2**64")
        if strategy != "greedy":
            raise ValueError(f"unknown strategy {strategy!r} (greedy is the only one)")
        self.capacity = capacity
        # the shift that keeps a 64-bit word's top log2(capacity) bits
        self._shift = 64 - (capacity.bit_length() - 1)
        self._slots: dict[int, list] = {}
        self._blocks: dict[tuple[int, int], list[list]] = {}
        self.stats = CacheStats()

    def check_and_update(self, front, back, remaining, z, limit):
        """Prune check for one search node at past cost ``z`` under the
        incumbent cost ``limit``.

        Scans the resident entries with the node's blocks from the node's
        own state, when it is resident, down through those whose remaining
        set is below ``remaining`` as an int, the largest first.  The
        first whose remaining set is a subset of ``remaining`` (the own
        state is one) and whose bound ``v`` gives ``z + v >= limit``
        prunes, and the call returns that ``v``, an int.  Otherwise it
        returns the node's own entry, a list ``[key, bound]``, for the node
        to raise the bound in at exit: the resident entry of an equal key,
        a new one in an empty slot or in place of a resident with fewer
        remaining scenes, or else a detached one that no slot holds.
        """
        if back < front:
            front, back = back, front
        key = (front, back, remaining)
        stats = self.stats
        blocks = self._blocks
        group = blocks.get((front, back), ())
        # the index holds every resident entry, so the own one, if resident,
        # sits at ``at``, above the proper subsets, which are smaller ints
        at = bisect_left(group, [key])
        own = at < len(group) and group[at][0] == key
        slack = limit - z
        outside = ~remaining
        for k in range(at - 1 + own, -1, -1):
            entry = group[k]
            if not entry[0][2] & outside and entry[1] >= slack:
                stats.probes += 1 + at - k
                stats.hits += 1
                if entry[0][2] != remaining:
                    stats.subset_hits += 1
                return entry[1]
        stats.probes += 1 + at
        if own:
            return group[at]
        slot = hash(key) & _WORD
        slot = ((slot ^ slot >> 32) * _MIX & _WORD) >> self._shift
        slots = self._slots
        resident = slots.get(slot)
        if resident is None:
            stats.stores += 1
        else:
            stats.collisions += 1
            if remaining.bit_count() <= resident[0][2].bit_count():
                return [key, 0]
            stats.replacements += 1
            old = resident[0][:2]
            evicted = blocks[old]
            del evicted[bisect_left(evicted, resident)]
            if evicted is group:
                at = bisect_left(group, [key])
            elif not evicted:
                del blocks[old]
        entry = slots[slot] = [key, 0]
        if group:
            group.insert(at, entry)
        else:
            blocks[front, back] = [entry]
        return entry
