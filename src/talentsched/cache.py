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

A resident state is one int, its key ``(front << 64 | back) << 64 |
remaining``: the canonical blocks in the high fields and the remaining
set in the low 64 bits.  Three dicts hold the resident states and nothing
else: the slots map a slot to its key, the bound table maps each key to
its bound, and the block index maps ``front << 64 | back`` to the sorted
list of its keys.  No state keeps a tuple or a list of its own: under
CPython 3.11 a resident state costs 215-312 bytes at ``2**22`` slots on
the README's three draws, and a list ``[key, bound]`` per state would add
20-24.  The key format stays inside this module: callers pass the three
masks.

A state is stored with bound 0 when a node's probe finds nothing to
prune, and the node raises its bound at exit through ``raise_bound``,
which writes only a larger bound and only into a resident key.  A state
that found its slot taken and stayed out (a detached state), or was
evicted while its node was searching, writes nothing, and its bound is
lost.  While a node searches only its descendants probe, each with fewer
remaining scenes, so no other node stores its key meanwhile; a node cut
short by the time limit writes nothing.  A node at past cost ``z`` is
pruned when its own state, or any resident state with the same blocks and
a subset of its remaining scenes, holds a bound with ``z + bound >=
limit``, the incumbent's cost: finishing a subset of the work never costs
more, so a subset state's bound holds for the node too.  Every stored
bound is a lower bound whatever the incumbent, and a state whose node is
still being searched holds 0, which never prunes.  A prune is only ever
issued on an exact match of the blocks.  A cache of past costs, which
prunes a revisit at no lower past cost, is the special case ``bound =
limit - z`` of this rule.

The cache has ``capacity`` slots, a power of two, one state each.  Slots
are held in a dict filled only on store, so memory grows with the states
stored and the capacity only bounds it.  On a collision the incoming state
takes the slot only from a resident with fewer remaining scenes (the
``greedy`` policy, the only one): the larger state heads the larger
subtree, so its bound prunes more, and a node still being searched is
never pushed out by its own descendants.  Otherwise the incoming state is
not stored.  The block index answers both probes.  Keys of one pair of
blocks share their high fields, so they sort by remaining set as an int,
and a proper subset is a smaller int: the node's own key, when resident,
sits at its place in the list and its subsets below it.  One scan from
that place down tries the own state first and then the subsets, largest
first; it reads about half the list.  Largest first also took fewer nodes
than store order: 38,126 against 38,410 on ``generate_instance(28, 8,
seed=3, density=0.4, max_duration=3, max_wage=20)`` at ``2**22`` slots,
measured before every key took the mixed slot below; that draw takes
38,144 nodes today.  The slots are read only to place a state that is not
resident.

The slot of a state at ``2**k`` slots is the top k bits of ``h *
0x9E3779B97F4A7C15 mod 2**64``, with ``h`` the 64-bit hash of the tuple
``(front, back, remaining)`` with its high half xored onto its low half;
the tuple is built only to place a state.  The packed key's own hash would
not do: an int hashes to itself modulo ``2**61 - 1``, which makes the
key's hash ``64 * front + 8 * back + remaining`` modulo that prime, so
structured states share hashes; slotting by it took
``generate_instance(20, 14, seed=1, density=0.3, max_duration=3,
max_wage=20)`` from 89,028 to 144,540 nodes at ``2**22`` slots (it takes
86,261 today).  The multiply carries every bit of ``h`` into its top
bits; without the fold, flipping one scene moved the product by a
near-constant amount, and at ``2**4`` slots flipping scene 49 kept the
slot of 55% of random 64-scene states.
The hash's own low bits would not do: under CPython 3.11 the low k bits
of a 3-tuple's hash never see scenes 33 + k through 60, and at ``2**4``
slots flipping scene 10 kept the slot of 32 of 40 random 20-scene states.
Both steps are bijections of the 64-bit hash, so with ``capacity = 1 <<
64`` distinct states share a slot only when their hashes are equal, and
nothing else is ever evicted.  The tuple's hash reads each mask's int
hash, modulo ``2**61 - 1``, so scenes 61-63 fold onto scenes 0-2: from 62
scenes up, distinct states can share a full hash, and so a slot at any
capacity.
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
      plus one per resident state of the node's blocks that the subset scan
      compares, up to the one that prunes.  The scan compares only states
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
    most ``capacity`` states, with an index of the resident states by
    their blocks.

    A resident state is its packed int key; the slots, the bound table and
    the block index hold it (see the module docstring).  A slot is placed
    by the hash of the tuple ``(front, back, remaining)``: tuples of ints
    hash through the interpreter's 64-bit mixer, which is deterministic
    across runs.  At ``2**k`` slots the slot is the top k bits of that
    hash folded onto its low half times ``0x9E3779B97F4A7C15 mod 2**64``,
    so it sees every scene; from 62 scenes up distinct states can share a
    full hash.  A colliding state takes the slot only from a resident with
    fewer remaining scenes.  ``strategy`` accepts only ``"greedy"``, that
    policy's name; the benchmark runner still passes it.
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
        # slot -> key, key -> bound, and ``front << 64 | back`` -> the
        # sorted keys of those blocks
        self._slots: dict[int, int] = {}
        self._bounds: dict[int, int] = {}
        self._blocks: dict[int, list[int]] = {}
        self.stats = CacheStats()

    def check_and_update(self, front, back, remaining, z, limit):
        """Prune check for one search node at past cost ``z`` under the
        incumbent cost ``limit``.

        Scans the resident states with the node's blocks from the node's
        own state, when it is resident, down through those whose remaining
        set is below ``remaining`` as an int, the largest first.  The
        first whose remaining set is a subset of ``remaining`` (the own
        state is one) and whose bound ``v`` gives ``z + v >= limit``
        prunes, and the call returns that ``v``, an int.  Otherwise it
        returns None, and the node's state is resident with its bound
        unchanged, or newly stored with bound 0 in an empty slot or in
        place of a resident with fewer remaining scenes, or else not
        stored; the node raises its bound at exit by ``raise_bound``.
        """
        if back < front:
            front, back = back, front
        pair = front << 64 | back
        key = pair << 64 | remaining
        stats = self.stats
        blocks = self._blocks
        bounds = self._bounds
        group = blocks.get(pair, ())
        # the index holds every resident key, so the own one, if resident,
        # sits at ``at``, above the proper subsets, which are smaller ints
        at = bisect_left(group, key)
        own = at < len(group) and group[at] == key
        slack = limit - z
        # a key's scenes outside ``remaining``; its block fields fall
        # outside the mask
        outside = _WORD ^ remaining
        for k in range(at - 1 + own, -1, -1):
            other = group[k]
            if not other & outside:
                bound = bounds[other]
                if bound >= slack:
                    stats.probes += 1 + at - k
                    stats.hits += 1
                    if other != key:
                        stats.subset_hits += 1
                    return bound
        stats.probes += 1 + at
        if own:
            return None
        slot = hash((front, back, remaining)) & _WORD
        slot = ((slot ^ slot >> 32) * _MIX & _WORD) >> self._shift
        slots = self._slots
        resident = slots.get(slot)
        if resident is None:
            stats.stores += 1
        else:
            stats.collisions += 1
            if remaining.bit_count() <= (resident & _WORD).bit_count():
                return None
            stats.replacements += 1
            del bounds[resident]
            old = resident >> 64
            evicted = blocks[old]
            del evicted[bisect_left(evicted, resident)]
            if evicted is group:
                at = bisect_left(group, key)
            elif not evicted:
                del blocks[old]
        slots[slot] = key
        bounds[key] = 0
        if group:
            group.insert(at, key)
        else:
            blocks[pair] = [key]
        return None

    def raise_bound(self, front, back, remaining, bound):
        """A node's exit write: its state's bound becomes ``bound`` when
        the state is resident and ``bound`` is larger, and nothing changes
        otherwise."""
        if back < front:
            front, back = back, front
        key = (front << 64 | back) << 64 | remaining
        bounds = self._bounds
        if bound > bounds.get(key, bound):
            bounds[key] = bound
