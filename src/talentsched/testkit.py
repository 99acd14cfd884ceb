"""Worked-example fixtures, reference oracles and kernel adapters shared
by the test suite.

Everything here is test support.  The oracles (``SearchNode``,
``past_cost``, ``enumerate_future_cost`` and the ``CacheModel`` of the
state cache) are small, slow, and written independently of the solver's
fast paths so they can serve as ground truth; the optimum of a whole
instance is ``solver.brute_force``, whose subset DP also gives
``enumerate_future_cost``.  The adapters turn a ``SearchNode`` into the
per-node arguments of the solver's own kernels -- ``_simplify``,
``_Search._increment``, ``_Search._dominated`` over its
``_dominance_table``, ``_Search._branch_lower`` (on a plain node or, by
``lower_at``, on a simplified one) and its two halves
``_pair_constants``/``_pair_bound``, over the ``_actor_tables`` in the
mask form a solve of the instance uses -- so that tests check the code
every solve runs.  ``pack_pairs``/``unpack_pairs`` translate between pair
constants keyed by actor pair and the packed keys of those two halves.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .cache import CacheStats
from .instance import Instance, actors_of_scenes, bits, mask_of
from .solver import (
    SolveConfig,
    _actor_tables,
    _dominance_table,
    _order_dp,
    _pair_constants,
    _Search,
    _simplify,
)


@dataclass(frozen=True)
class SearchNode:
    """A partial schedule: ordered front and back blocks plus the remaining
    scene set.  ``active_actors`` is the mask of actors still relevant to
    the middle (None means every actor)."""

    front: tuple[int, ...]
    back: tuple[int, ...]
    remaining: int
    past_cost: int = 0
    active_actors: int | None = None

# 12-scene, 6-actor worked example (matrix rows are actors, X = required)
_WORKED_ROWS = [
    "X.X..X.XXXXX",
    "XXXXX.X.X.X.",
    ".X....XX....",
    "XX..XX......",
    "...X...XX...",
    ".........X..",
]
_WORKED_DURATIONS = (1, 1, 2, 1, 3, 1, 1, 2, 1, 2, 1, 1)
_WORKED_WAGES = (20, 5, 4, 10, 4, 7)


def fixture_worked_example() -> Instance:
    """The canonical 12x6 worked example used throughout the tests."""
    return Instance.from_rows(
        _WORKED_ROWS, _WORKED_DURATIONS, _WORKED_WAGES, name="worked-example"
    )


# best known order for the worked example (0-based scene ids)
WORKED_BEST_ORDER = (4, 1, 6, 0, 5, 7, 3, 8, 2, 10, 9, 11)
WORKED_TOTAL_IDENTITY = 604
WORKED_HOLDING_IDENTITY = 223
WORKED_TOTAL_BEST = 434
WORKED_HOLDING_BEST = 53


def fixture_partial_example() -> tuple[Instance, SearchNode]:
    """Six-scene instance with a two-scene front block, a two-scene back
    block, and two middle scenes; exercises every past-cost category."""
    inst = Instance(
        num_scenes=6,
        num_actors=5,
        scene_actors=(0b00011, 0b01000, 0b11111, 0b00000, 0b00001, 0b00101),
        durations=(2, 3, 5, 7, 11, 13),
        wages=(17, 19, 23, 29, 31),
        name="partial-example",
    )
    node = SearchNode(front=(0, 1), back=(4, 5), remaining=0b001100)
    return inst, node


def enumerate_future_cost(inst: Instance, node: SearchNode) -> int:
    """Exact minimum holding cost the middle scenes can still incur.

    Counts the waiting days inside the middle block of every actor whose
    span is not yet fully decided: those anchored at the front are on
    location from its first day, those anchored at the back stay to its
    last.  ``brute_force``'s subset DP takes every order of the middle into
    account, independently of the solver's incremental bookkeeping.
    """
    q = bits(node.remaining)
    a_front = actors_of_scenes(inst, mask_of(node.front))
    a_back = actors_of_scenes(inst, mask_of(node.back))
    a_mid = actors_of_scenes(inst, node.remaining)
    active = node.active_actors if node.active_actors is not None else inst.all_actors
    relevant = (a_front | a_back | a_mid) & ~(a_front & a_back) & active
    return _order_dp(
        [inst.scene_actors[s] & relevant for s in q],
        [inst.durations[s] for s in q],
        inst.wages,
        a_front & relevant,
        a_back & relevant,
    )[0]


def random_node(
    inst: Instance, rng: random.Random, max_remaining: int = 7
) -> SearchNode:
    """Random valid partial schedule of the instance with a bounded middle."""
    scenes = list(range(inst.num_scenes))
    rng.shuffle(scenes)
    q_size = rng.randint(0, min(inst.num_scenes, max_remaining))
    q = scenes[:q_size]
    rest = scenes[q_size:]
    cut = rng.randint(0, len(rest))
    front = tuple(rest[:cut])
    back = tuple(rest[cut:])
    return SearchNode(front=front, back=back, remaining=mask_of(q))


# --- past-cost oracle ---------------------------------------------------------

def _block_stats(inst: Instance, seq: tuple[int, ...], actor: int):
    """(days before first required scene, days through last required scene,
    work days, block length) for one actor within an ordered block; the
    first two are None when the block never requires the actor."""
    first_off = None
    last_end = None
    work = 0
    day = 0
    for s in seq:
        d = inst.durations[s]
        if inst.requires(actor, s):
            if first_off is None:
                first_off = day
            last_end = day + d
            work += d
        day += d
    return first_off, last_end, work, day


def past_cost(inst: Instance, node: SearchNode) -> int:
    """Holding cost already forced by the node's front and back blocks.

    Covers: actors anchored on both sides (their whole span is decided,
    including the full middle block); actors anchored at the front (their
    waiting inside the front block is decided -- through the block's end if
    they still have middle scenes, else through their last front scene);
    and symmetrically actors anchored at the back.
    """
    front_set = mask_of(node.front)
    back_set = mask_of(node.back)
    a_front = actors_of_scenes(inst, front_set)
    a_back = actors_of_scenes(inst, back_set)
    a_mid = actors_of_scenes(inst, node.remaining)
    mid_days = sum(inst.durations[j] for j in bits(node.remaining))

    out = 0
    for i in bits(a_front | a_back):
        wage = inst.wages[i]
        if wage == 0:
            continue
        in_mid = bool(a_mid >> i & 1)
        if (a_front >> i & 1) and (a_back >> i & 1):
            f_first, _, f_work, f_len = _block_stats(inst, node.front, i)
            _, b_last_end, b_work, _ = _block_stats(inst, node.back, i)
            mid_work = sum(
                inst.durations[j]
                for j in bits(node.remaining)
                if inst.requires(i, j)
            )
            span = (f_len - f_first) + mid_days + b_last_end
            out += wage * (span - f_work - mid_work - b_work)
        elif a_front >> i & 1:
            f_first, f_last_end, f_work, f_len = _block_stats(inst, node.front, i)
            end = f_len if in_mid else f_last_end
            out += wage * ((end - f_first) - f_work)
        else:
            b_first, b_last_end, b_work, _ = _block_stats(inst, node.back, i)
            start = 0 if in_mid else b_first
            out += wage * ((b_last_end - start) - b_work)
    return out


# --- state-cache model --------------------------------------------------------

def _set_order(mask: int) -> list[int]:
    """Sort key of an actor set (at most 64 actors): the set holding the
    lowest differing actor sorts first."""
    return [-(mask >> i & 1) for i in range(64)]


class CacheModel:
    """The direct-mapped state cache, one probe and one store at a time:
    the same slots, entries ``[key, bound]``, prune test, replacement rule
    and ``CacheStats`` counters as ``StateCache``, with ``check_and_update``
    as a lookup of the node's own state, then of each subset state, then a
    store that hands back the entry the node raises its bound in."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.slots: dict[int, list] = {}
        self.stats = CacheStats()

    def lookup(self, key: tuple[int, int, int], z: int, limit) -> int | None:
        """The resident bound of ``key`` if it prunes at past cost ``z``."""
        self.stats.probes += 1
        entry = self.slots.get(hash(key) % self.capacity)
        if entry is not None and entry[0] == key and z + entry[1] >= limit:
            self.stats.hits += 1
            return entry[1]
        self.stats.misses += 1
        return None

    def store(self, key: tuple[int, int, int]) -> list:
        slot = hash(key) % self.capacity
        entry = self.slots.get(slot)
        if entry is None:
            self.stats.stores += 1
        elif entry[0] == key:
            return entry
        else:
            self.stats.collisions += 1
            # the state with more scenes left takes the slot
            if bin(key[2]).count("1") <= bin(entry[0][2]).count("1"):
                return [key, 0]
            self.stats.replacements += 1
        self.slots[slot] = [key, 0]
        return self.slots[slot]

    def check_and_update(self, front, back, remaining, z, limit, removable_masks):
        if _set_order(back) < _set_order(front):
            front, back = back, front
        key = (front, back, remaining)
        for probe in [key] + [(front, back, remaining & ~r) for r in removable_masks]:
            bound = self.lookup(probe, z, limit)
            if bound is not None:
                return bound
        return self.store(key)


# --- kernel adapters ----------------------------------------------------------

@dataclass(frozen=True)
class KernelNode:
    """The state ``_Search._search`` carries into a node: the actors of
    each block, the remaining representative scenes, the active actors, and
    per scene id its duration, original-id mask, actor set and members."""

    front_act: int
    back_act: int
    q_reps: int
    active: int
    dur_view: tuple[int, ...]
    member_mask: tuple[int, ...]
    member_actors: tuple[int, ...]
    members: tuple[tuple[int, ...], ...]

    def groups(self) -> dict[int, tuple[int, ...]]:
        """Members of every remaining representative that absorbed others."""
        return {
            s: self.members[s] for s in bits(self.q_reps) if len(self.members[s]) > 1
        }


def kernel_node(inst: Instance, node: SearchNode) -> KernelNode:
    """The node as the search enters it, before any merge."""
    n = inst.num_scenes
    return KernelNode(
        front_act=actors_of_scenes(inst, mask_of(node.front)),
        back_act=actors_of_scenes(inst, mask_of(node.back)),
        q_reps=node.remaining,
        active=inst.all_actors if node.active_actors is None else node.active_actors,
        dur_view=inst.durations,
        member_mask=tuple(1 << j for j in range(n)),
        member_actors=inst.scene_actors,
        members=tuple((j,) for j in range(n)),
    )


def simplify(kn: KernelNode) -> KernelNode:
    """The node after the solver's ``_simplify``."""
    _, q_reps, active, dur_view, member_mask, member_actors, members = _simplify(
        kn.front_act,
        kn.back_act,
        list(bits(kn.q_reps)),
        kn.q_reps,
        kn.active,
        kn.dur_view,
        kn.member_mask,
        kn.member_actors,
        kn.members,
    )
    return KernelNode(
        kn.front_act, kn.back_act, q_reps, active,
        dur_view, member_mask, member_actors, members,
    )


def _kernels(inst: Instance, **switches) -> _Search:
    return _Search(inst, SolveConfig(cache_capacity=0, **switches))


def _on_location(inst: Instance, node: SearchNode) -> tuple[int, int]:
    """Actors on location at the front and at the back, as ``_search``
    derives them from the blocks and the middle."""
    front_act = actors_of_scenes(inst, mask_of(node.front))
    back_act = actors_of_scenes(inst, mask_of(node.back))
    aq = actors_of_scenes(inst, node.remaining)
    return front_act & (aq | back_act), back_act & (aq | front_act)


def _node_tables(search: _Search, kn: KernelNode):
    """``_actor_tables`` at the kernel node ``kn``, in the mask form (day
    or scene) that ``search`` uses."""
    return _actor_tables(
        bits(kn.q_reps), kn.dur_view, kn.member_actors, search.inst.num_actors,
        search.by_day,
    )


def _require_remaining(node: SearchNode, scene: int) -> None:
    if not node.remaining >> scene & 1:
        raise ValueError(f"scene {scene} is not in the node's remaining set")


def increment(inst: Instance, node: SearchNode, scene: int) -> int:
    """``_Search._increment``: holding cost newly forced by pinning
    ``scene`` right after the node's front block."""
    _require_remaining(node, scene)
    front_onloc, back_onloc = _on_location(inst, node)
    search = _kernels(inst)
    _, actor_qd, dq_total, _ = _node_tables(search, kernel_node(inst, node))
    return search._increment(
        scene, inst.durations, inst.scene_actors, front_onloc, back_onloc,
        actor_qd, dq_total,
    )


def is_dominated(
    inst: Instance,
    node: SearchNode,
    scene: int,
    use_rule1: bool = True,
    use_rule2: bool = True,
) -> bool:
    """``_Search._dominated``: whether branching on ``scene`` is skipped in
    favour of another remaining scene."""
    _require_remaining(node, scene)
    search = _kernels(inst, enable_rule1=use_rule1, enable_rule2=use_rule2)
    active = inst.all_actors if node.active_actors is None else node.active_actors
    front_onloc, back_onloc = _on_location(inst, node)
    reps = list(bits(node.remaining))
    table = _dominance_table(
        reps, inst.scene_actors, active, front_onloc & active,
        back_onloc & active, search.wage_tables,
    )
    return search._dominated(reps.index(scene), table)


def rule_fires(
    inst: Instance, rule: int, s1_actors: int, s2_actors: int, front: int, back: int
) -> bool:
    """Whether dominance rule ``rule`` (1 or 2) of ``_Search._dominated``
    skips a scene with actors ``s1_actors`` for one with ``s2_actors``,
    given the active actors on location at each block.  The competitor gets
    the smaller id, so rule 1's tie-break never spares the first scene."""
    search = _kernels(inst, enable_rule1=rule == 1, enable_rule2=rule == 2)
    table = _dominance_table(
        [0, 1], (s2_actors, s1_actors), inst.all_actors, front, back,
        search.wage_tables,
    )
    return search._dominated(1, table)


def relevant_actors(inst: Instance, node: SearchNode) -> tuple[int, int]:
    """Oracle: the actors whose middle-block wait the pair bound covers --
    on location at the front only, and at the back only."""
    front_onloc, back_onloc = _on_location(inst, node)
    fixed = actors_of_scenes(inst, mask_of(node.front)) & actors_of_scenes(
        inst, mask_of(node.back)
    )
    return front_onloc & ~fixed, back_onloc & ~fixed


def pack_pairs(constants: dict[tuple[int, int], int]) -> tuple[list[int], int]:
    """Pair constants keyed by actor pair ``(i, j)``, i < j, as the packed
    keys ``c << 12 | (63 - i) << 6 | (63 - j)`` of the positive ones and
    their total: the pair ``_pair_constants`` returns and ``_pair_bound``
    combines."""
    keys = [
        c << 12 | (63 - i) << 6 | (63 - j) for (i, j), c in constants.items() if c > 0
    ]
    return keys, sum(c for c in constants.values() if c > 0)


def unpack_pairs(keys: list[int]) -> dict[tuple[int, int], int]:
    """The inverse of ``pack_pairs``: packed keys as constants keyed by
    actor pair."""
    return {(63 - (k >> 6 & 63), 63 - (k & 63)): k >> 12 for k in keys}


def pair_constants(inst: Instance, node: SearchNode) -> dict[tuple[int, int], int]:
    """``_pair_constants`` over the node's relevant actors, keyed by actor
    pair, on the masks a solve of ``inst`` uses: day masks, or scene masks
    past ``DAY_MASK_MAX_DAYS``.  Pairs whose constant is 0 are absent.
    Checks that the returned total is the constants' sum."""
    search = _kernels(inst)
    actor_q, actor_qd, dq, _ = _node_tables(search, kernel_node(inst, node))
    front, back = (
        [(i, actor_q[i], actor_qd[i], inst.wages[i]) for i in bits(rel)]
        for rel in relevant_actors(inst, node)
    )
    keys, total = _pair_constants(
        front, back, dq, None if search.by_day else inst.durations
    )
    constants = unpack_pairs(keys)
    if len(constants) != len(keys) or total != sum(constants.values()):
        raise AssertionError("pair keys repeat a pair or miss the total")
    return constants


def branch_lower(inst: Instance, node: SearchNode) -> int:
    """The pair bound the solver tests before entering the node:
    ``_Search._branch_lower`` at the node's parent, on the last front
    scene.  A node with an empty front block is taken reversed; with both
    blocks empty nothing is anchored, so no actor can be held and the bound
    is 0."""
    if not node.front:
        if not node.back:
            return 0
        node = SearchNode(tuple(reversed(node.back)), (), node.remaining)
    s = node.front[-1]
    parent = SearchNode(node.front[:-1], node.back, node.remaining | 1 << s)
    return lower_at(inst, kernel_node(inst, parent), s)


def lower_at(inst: Instance, kn: KernelNode, scene: int) -> int:
    """``_Search._branch_lower``, with an empty memo, at the kernel node
    ``kn`` for the child that pins the remaining representative ``scene``
    in front, given the ``_actor_tables`` that ``_search`` builds."""
    if not kn.q_reps >> scene & 1:
        raise ValueError(f"scene {scene} is not a remaining representative")
    search = _kernels(inst)
    aq2 = 0
    q_orig = 0
    for r in bits(kn.q_reps):
        q_orig |= kn.member_mask[r]
        if r != scene:
            aq2 |= kn.member_actors[r]
    return search._branch_lower(
        scene,
        kn.member_actors[scene],
        aq2,
        kn.front_act,
        kn.back_act,
        q_orig & ~kn.member_mask[scene],
        _node_tables(search, kn),
        kn.dur_view,
    )
