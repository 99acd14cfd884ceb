"""Double-ended branch-and-bound solver plus the exact oracle, a dynamic
program over scene sets.

The search fixes one scene per level, alternating between the two ends of
the schedule by swapping the roles of the front and back blocks on every
recursion.  Each node is checked against the state cache first, and only
a node the cache does not prune is simplified (actor dropping,
duplicate-scene merging): a merge unions its records' scene masks and
actor sets, so the cache key is the same either way.  Each candidate
branch must survive the dominance rules and the lower-bound test
``past + increment + future_bound < best`` before it is explored.

Dominance has rules 1 and 2 and, under rule 1's switch, one forced
branch: a remaining scene whose active actors are exactly the front's
active actors.  Shooting it next holds no one: the front's active actors
all work in it, and its other actors are fixed at both blocks or need no
other remaining scene.  Moving it to the front of any completion never
lengthens an actor's stay either, so it is the node's only child.

The branch order is best first: a node computes the pair bound of every
child still live when its loop starts (``past + increment < best``) and
takes them in ascending ``increment + bound``, ties to the smaller scene
id, stopping at the first whose key fails the test; with ``enable_lower``
off the key is the increment.  The first dives thus reach good schedules
early, and the pruning bites sooner: on the benchmark's base instances
this order expands 58-70% fewer nodes than scene-id order did.

``_search`` returns a lower bound on its state's future cost, the holding
cost still to come on top of ``past``: 0 at a leaf, and otherwise the
least ``increment + b`` over the children that survive dominance.  ``b``
is 0 for a child the increment test cut, its pair bound for one cut by
the branch order's stop, and the bound the child returned when it was
searched or cut by the cache.  Each of these terms is at least ``best -
past`` at exit, so the bound never falls below the incumbent's slack.  A
node writes its bound into its state's cache entry when it finishes, and
the cache prunes a later node whose ``past`` plus a stored bound reaches
the incumbent (bounded dynamic programming, Garcia de la Banda, Stuckey &
Chu 2011): the bound of the node's own state, or of any stored state with
the same blocks and a subset of its remaining scenes, since finishing a
subset of the work never costs more.  A time-limit unwind writes no bound,
as the node's children were not all seen.  On the benchmark's base
instances the subset states save 19% of nodes on ``sweep`` and 1.4% on
``wide-cast`` over trying only the states one remaining scene smaller.

A node is ``(front, back, z, scenes, dq, known)``: the actors at each
block, the past cost, one record ``(duration, mask, actors, members, fixed
mask)`` per remaining scene, in ascending order of its representative id,
the lowest member, and two values its parent hands down: the union ``dq``
of the records' fixed masks (below), and the parent's active actors
``known``, which spare ``_simplify`` its fixed-point check when the node's
are the same.  A merge replaces its group by one record: the summed
duration, the union of the members' original-id masks, actor sets and
fixed masks, and the concatenated member list.  A record's position stands
in for its id in both tie-breaks, the branch order's and dominance rule
1's.  Cache keys use the remaining set over *original* scene ids (the
union of the masks), which keeps a state's identity independent of the
merge history that produced it.

Simplification, the increment, dominance and the pair bound each have one
implementation, here: ``_simplify``, ``_Search._increment``,
``_Search._dominated`` and ``_Search._branch_lower`` with its halves
``_Search._pair_keys`` and ``_pair_bound``.  Each is called on the node's
own state: ``_dominated`` runs once per node and returns the mask of the
positions it skips, and ``_increment`` and ``_branch_lower`` read the
solve's fixed masks.  ``_pair_keys`` builds each relevant actor's mask,
days and wage and its pair keys in one pass; the keys' low 12 bits come
from ``_PAIR_TAGS``, and ``_pair_bound``'s matching reads each key's actor
pair from ``_PAIR_MARKS``, two read-only tables built at import.  Tests
reach the kernels on single nodes through the adapters in
``tests/support.py``.

The pair bound of a child is memoised per solve in
``_Search.lower_memo``, keyed by the child's state: its relevant actors at
each block and its remaining scenes over original ids.  The double-ended
search reaches one child state through many orders of the placed scenes,
so many bound calls repeat an earlier one.  The memo keeps two
generations of ``LOWER_MEMO_ENTRIES`` values: when the one being filled is
full it becomes the previous one, whose values are dropped, and a value
found in the previous one is copied forward, so the states still in use
survive.  Both generations full take about 0.8 MB.

The increment and the pair bound count days on masks that are fixed per
solve: each original scene j holds its ``d_j`` days as a run of bits at its
day offset, so the days two actors share are the popcount of their masks'
intersection.  An instance longer than ``DAY_MASK_MAX_DAYS`` days would
build ints that long, so its solve gives scene j bit j and sums the
durations of a mask's scenes by partial-sum tables.  ``_Search.__init__``
builds the scene masks (``scene_q``), each actor's mask over all scenes
(``actor_q``), the counter of a mask's days (``days``) and that of a
mask's wages (``wage``: one read of the byte table with at most 8 actors,
partial sums past that); only it knows which forms it built.  A record
carries the union of its scenes' masks, and a node's ``dq`` is the union
over its records: the root's is every scene's, and a child's is its
parent's less the pinned record's, as the scenes' masks are disjoint.  An
actor's remaining scenes are then ``actor_q[i] & dq``.  That is exact for
every actor the kernels read, as each is active, and no merge splits an
active actor's scenes: a merge joins scenes whose active actors coincide,
and an actor once inactive never comes back along a search path.
"""

from __future__ import annotations

import math
import time
from array import array
from dataclasses import dataclass, field
from types import MethodType

from .cache import CacheStats, StateCache
from .cost import Schedule, holding_cost, work_cost
from .instance import Instance, bits


@dataclass(frozen=True)
class SolveConfig:
    """Solver switches.  ``cache_capacity`` is 0 (off) or a power of two
    up to ``1 << 64``, which evicts a state only for one with an equal
    hash; distinct states can share one from 62 scenes up (see ``cache``,
    which also gives the slot rule).  The cache's collision policy is
    fixed, not a setting, and so is the branch order: a node takes its
    children in ascending ``increment + pair bound`` (the increment alone
    with ``enable_lower`` off), ties to the smaller scene id.
    ``time_limit`` is in seconds, positive; ``float("inf")`` means no
    limit.

    The defaults below and the checks in ``__post_init__`` are the only
    statement of each setting: the CLI's flags take their defaults from
    ``SolveConfig()`` and are checked here.  The ``enable_<name>`` fields
    are the on/off switches: the CLI makes each a ``--no-<name>`` flag,
    with the field's ``help`` metadata as its help text, a key of ``solve
    --json``'s ``config`` and a ``bench`` column, and ``bench --ablate``
    sweeps their product."""

    cache_capacity: int = 1 << 25
    enable_preprocess: bool = field(default=True, metadata={
        "help": "turn off actor dropping and the merging of scenes whose active actors are equal"
    })
    enable_rule1: bool = field(default=True, metadata={
        "help": "turn off dominance rule 1 and the forcing of the zero-cost scene"
    })
    enable_rule2: bool = field(default=True, metadata={"help": "turn off dominance rule 2"})
    enable_lower: bool = field(default=True, metadata={
        "help": "turn off the pair lower bound (branch by the increment alone)"
    })
    time_limit: float = 600.0

    # not a field, so not settable: the cache's one collision policy, which
    # the benchmark runner still reads
    cache_strategy = "greedy"

    def __post_init__(self):
        cap = self.cache_capacity
        # a bool is an int, and True would give a one-slot cache
        if (
            isinstance(cap, bool) or not isinstance(cap, int)
            or not 0 <= cap <= 1 << 64 or cap & (cap - 1)
        ):
            raise ValueError("cache_capacity must be 0 (off) or a power of two up to 2**64")
        # written so that NaN, which compares false both ways, is refused;
        # True would read as one second
        if isinstance(self.time_limit, bool) or not self.time_limit > 0:
            raise ValueError("time_limit must be positive")


@dataclass(frozen=True)
class TraceEntry:
    elapsed: float
    subproblems: int
    holding_cost: int
    order: tuple[int, ...]


@dataclass
class SolveResult:
    status: str  # "optimal" | "time_limit"
    schedule: Schedule
    total_cost: int
    holding_cost: int
    subproblems: int
    elapsed: float
    cache_stats: CacheStats = field(default_factory=CacheStats)
    ub_trace: tuple[TraceEntry, ...] = ()


# values per generation of the pair-bound memo, which keeps two.  A CPython
# 3.11 dict keeps its table at most two-thirds full, so 5,461 values fit the
# same 8,192-slot table as 4,096 and answer 3 more bound calls in 100 on the
# benchmark; one value more doubles the table.
LOWER_MEMO_ENTRIES = 5461

# the longest instance, in days, whose increment and pair bound work on day
# masks (one bit per day, so the days two actors share are a popcount); a
# longer one keeps one bit per scene and sums the shared scenes' durations
DAY_MASK_MAX_DAYS = 4096

# the most scenes ``brute_force`` takes.  Its 2^20 values take 3-4 s and
# 65 MB with 8 actors, and 11 s with 64; each scene more doubles both.
BRUTE_FORCE_MAX_SCENES = 20

# the low 12 bits of the packed pair key of actors i and j, ``(63 - i) << 6 |
# (63 - j)`` with i < j, at ``_PAIR_TAGS[i][j]`` and ``_PAIR_TAGS[j][i]``;
# actor i's low field is ``63 - i`` and its high field that shifted by 6
_LOWS = [63 - i for i in range(64)]
_HIGHS = [low << 6 for low in _LOWS]
_PAIR_TAGS = tuple(
    tuple([high | _LOWS[i] for high in _HIGHS[:i]] + [_HIGHS[i] | low for low in _LOWS[i:]])
    for i in range(64)
)

# the matching mark ``1 << i | 1 << j`` of a pair key's actors, by the key's
# low 12 bits ``a << 6 | b``: i = 63 - a and j = 63 - b
_MARKS = [1 << low for low in _LOWS]
_PAIR_MARKS = tuple([a | b for a in _MARKS for b in _MARKS])
del _LOWS, _HIGHS, _MARKS


class _TimeLimit(Exception):
    pass


def _sum_tables(values: tuple[int, ...]) -> list[list[int]]:
    """Byte-indexed partial-sum tables so a masked sum costs one lookup per
    8 indices."""
    tables = []
    for base in range(0, len(values), 8):
        chunk = values[base : base + 8]
        tab = [0] * 256
        for b in range(1, 1 << len(chunk)):
            low = b & -b
            tab[b] = tab[b ^ low] + chunk[low.bit_length() - 1]
        tables.append(tab)
    return tables


def _masked_sum(tables: list[list[int]], mask: int) -> int:
    total = 0
    idx = 0
    while mask:
        total += tables[idx][mask & 255]
        mask >>= 8
        idx += 1
    return total


def greedy_upper_bound(inst: Instance) -> tuple[int, Schedule]:
    """Feasible schedule built by always appending the scene whose placement
    forces the least new holding cost (ties to the smaller id).  ``solve``
    does not call it: the search finds its own first schedule."""
    remaining = inst.all_scenes
    placed_actors = 0
    order: list[int] = []
    for _ in range(inst.num_scenes):
        rest_actors = 0
        for s in bits(remaining):
            rest_actors |= inst.scene_actors[s]
        onloc = placed_actors & rest_actors
        best_inc = None
        best_s = -1
        for s in bits(remaining):
            waiting = onloc & ~inst.scene_actors[s]
            inc = inst.durations[s] * sum(inst.wages[i] for i in bits(waiting))
            if best_inc is None or inc < best_inc:
                best_inc, best_s = inc, s
        order.append(best_s)
        remaining &= ~(1 << best_s)
        placed_actors |= inst.scene_actors[best_s]
    sched = Schedule(tuple(order))
    return holding_cost(inst, sched), sched


def brute_force(inst: Instance) -> tuple[int, Schedule]:
    """Exact minimum holding cost and the lexicographically smallest optimal
    order, by an exhaustive dynamic program over scene sets (Garcia de la
    Banda, Stuckey & Chu, *Solving talent scheduling with dynamic
    programming*, INFORMS JoC 2011).  It shares no kernel with the search,
    so it can check it.  Raises ``ValueError`` past
    ``BRUTE_FORCE_MAX_SCENES`` scenes, before it allocates anything."""
    cost, order = _order_dp(inst.scene_actors, inst.durations, inst.wages)
    return cost, Schedule(tuple(order))


def _order_dp(
    scene_actors, durations, wages, before: int = 0, after: int = 0
) -> tuple[int, list[int]]:
    """Least holding cost of shooting scenes ``0..n-1`` with the given actor
    sets, durations and actor wages, and the lexicographically smallest
    order that attains it.  Actors in ``before`` are on location from the
    first day, and actors in ``after`` stay to the last.

    ``togo[done]`` is the least cost of shooting the scenes outside
    ``done``.  Shooting ``s`` right after ``done`` holds, for ``d_s`` days,
    every actor on location and needed later but not by ``s``:
    ``(a(done) | before) & (a(rest) | after) & ~a(s)``, with ``rest`` the
    scenes outside ``done``.  Supersets are larger ints, so a backward
    sweep finds every value it reads final.  It also keeps the smallest
    scene that attains each value, and following those from the empty set
    gives the order."""
    n = len(durations)
    if n > BRUTE_FORCE_MAX_SCENES:
        raise ValueError(f"brute_force is capped at {BRUTE_FORCE_MAX_SCENES} scenes")
    full = (1 << n) - 1
    needs = array("Q", bytes(8 << n))  # actors needed by a scene set
    for done in range(1, full + 1):
        low = done & -done
        needs[done] = needs[done ^ low] | scene_actors[low.bit_length() - 1]
    tables = _sum_tables(wages)
    togo = [0] * (full + 1)
    first = bytearray(full + 1)  # the smallest scene that attains togo
    for done in range(full - 1, -1, -1):
        rest = full ^ done
        waiting = (needs[done] | before) & (needs[rest] | after)
        best = None
        left = rest
        while left:
            low = left & -left
            left ^= low
            s = low.bit_length() - 1
            held = waiting & ~scene_actors[s]
            w = 0
            for t in tables:
                w += t[held & 255]
                held >>= 8
            cost = durations[s] * w + togo[done | low]
            if best is None or cost < best:
                best, first[done] = cost, s
        togo[done] = best
    order: list[int] = []
    done = 0
    while done != full:
        order.append(first[done])
        done |= 1 << first[done]
    return togo[0], order


def _simplify(front, back, scenes, seen_once, seen_twice, known):
    """Drop actors that can no longer wait and merge middle scenes that have
    become indistinguishable, iterated to a fixed point.

    ``front`` and ``back`` are the actors at each block, and ``scenes`` the
    node's records ``(duration, mask, actors, members, fixed mask)`` by
    ascending representative id; ``seen_once`` and ``seen_twice`` are the
    actors of one or more and of two or more of those records.  An actor
    is dropped when both blocks anchor them (their pay is decided) or when
    fewer than two things still do, counting each block and each remaining
    scene as one (they can never be held waiting again).  The survivors
    are the node's active actors; they are derived afresh at every node,
    as an actor that drops out never comes back along a search path.
    Records whose active-actor sets coincide merge into one at the place
    of the group's head, the one with the smallest id: the summed
    duration, the union of the masks, actor sets and fixed masks, and the
    members of the head followed by the others'.  A merge can drop more
    actors, so the derivation repeats until the signatures are distinct.

    ``known`` is the parent node's active set, or -1 at the root.  The
    records are a subset of the parent's, whose signatures under ``known``
    were distinct, so an active set equal to ``known`` is a fixed point
    without the check.  Returns ``(scenes, active, multi)``, with
    ``multi`` the actors of two or more of the returned records; a merge
    keeps ``seen_once``, and the node's optimal holding cost is unchanged.
    """
    anchored = front | back
    fixed = front & back
    while True:
        active = (seen_twice | (seen_once & anchored)) & ~fixed
        # the fixed point: no two signatures coincide
        if active == known or len({rec[2] & active for rec in scenes}) == len(scenes):
            return scenes, active, seen_twice
        # a dict keeps its groups in the order of their heads, so the
        # merged records stay in ascending order of representative id
        groups: dict[int, list[tuple]] = {}
        for rec in scenes:
            groups.setdefault(rec[2] & active, []).append(rec)
        merged = []
        seen = 0
        seen_twice = 0
        for group in groups.values():
            d, q, a, members, fq = group[0]
            for od, oq, oa, om, ofq in group[1:]:
                d += od
                q |= oq
                a |= oa
                fq |= ofq
                # concatenate, never re-sort: actors wholly inside an
                # earlier merge rely on its members staying adjacent in
                # the stored order
                members += om
            merged.append((d, q, a, members, fq))
            seen_twice |= seen & a
            seen |= a
        scenes = tuple(merged)


def _pair_bound(keys, total, count):
    """Lower bound on the total wait of ``count`` relevant actors from the
    packed keys of their pair constants and the constants' ``total``: the
    larger of the averaging bound (every actor is in count-1 pairs, so the
    total over count-1, rounded up) and the greedy matching (constants
    largest first, ties by actor pair, each kept when both its actors are
    still unmarked; a key's actors are the mark ``_PAIR_MARKS[key & 4095]``).
    ``count`` is at least the number of actors the keys name, so the
    matching is complete after ``count // 2`` pairs and stops there.  Sorts
    ``keys`` in place."""
    if not keys:
        return 0
    keys.sort(reverse=True)
    marks = _PAIR_MARKS
    marked = 0
    lb2 = 0
    left = count >> 1
    for key in keys:
        pair = marks[key & 4095]
        if not marked & pair:
            lb2 += key >> 12
            left -= 1
            if not left:
                break
            marked |= pair
    lb1 = -(-total // (count - 1))
    return lb1 if lb1 > lb2 else lb2


class _Search:
    def __init__(self, inst: Instance, cfg: SolveConfig):
        self.inst = inst
        self.cfg = cfg
        # a wage sum is one table read with at most 8 actors, as one byte
        # indexes the only table.  Past that, and for ``days`` below, the
        # tables are bound to ``_masked_sum`` as a method's self: CPython
        # 3.11 calls the bound method as fast as the function, and a
        # ``partial`` about 15% slower
        wage_tables = _sum_tables(inst.wages)
        if len(wage_tables) == 1:
            self.wage = wage_tables[0].__getitem__
        else:
            self.wage = MethodType(_masked_sum, wage_tables)
        self.cache = StateCache(cfg.cache_capacity) if cfg.cache_capacity else None
        # the pair-bound memo: the generation being filled, and the full one
        # before it, whose values are copied forward when they hit
        self.lower_memo: dict[int, int] = {}
        self.lower_prev: dict[int, int] = {}
        # the fixed masks: scene j's days as a run of bits at its day
        # offset, or bit j past the day cap
        if sum(inst.durations) <= DAY_MASK_MAX_DAYS:
            scene_q = []
            offset = 0
            for d in inst.durations:
                scene_q.append(((1 << d) - 1) << offset)
                offset += d
            self.days = int.bit_count
        else:
            scene_q = [1 << j for j in range(inst.num_scenes)]
            self.days = MethodType(_masked_sum, _sum_tables(inst.durations))
        self.scene_q = scene_q
        # each actor's scenes; the masks are disjoint, so a sum is a union
        self.actor_q = [sum(scene_q[j] for j in bits(a)) for a in inst.actor_scenes]
        self.nodes = 0
        # the incumbent, above every schedule's cost until the first leaf
        self.best_h = math.inf
        self.best_order: tuple[int, ...] = ()
        # the members of each pinned scene, in pinning order: even places
        # are the schedule's front block from its start, odd ones its back
        # block from its end
        self.pinned: list[tuple[int, ...]] = []
        self.trace: list[TraceEntry] = []
        self.t0 = 0.0
        self.deadline = 0.0

    def run(self) -> SolveResult:
        inst, cfg = self.inst, self.cfg
        self.t0 = time.perf_counter()
        self.deadline = self.t0 + cfg.time_limit

        scenes = tuple(
            (d, 1 << j, a, (j,), q)
            for j, (d, a, q) in enumerate(zip(inst.durations, inst.scene_actors, self.scene_q))
        )
        status = "optimal"
        try:
            # no active set is -1, so the root is simplified in full
            self._search(0, 0, 0, scenes, sum(self.scene_q), -1)
        except _TimeLimit:
            status = "time_limit"
        elapsed = time.perf_counter() - self.t0

        stats = self.cache.stats if self.cache is not None else CacheStats()
        return SolveResult(
            status=status,
            schedule=Schedule(self.best_order),
            total_cost=self.best_h + work_cost(inst),
            holding_cost=self.best_h,
            subproblems=self.nodes,
            elapsed=elapsed,
            cache_stats=stats,
            ub_trace=tuple(self.trace),
        )

    def _search(self, front, back, z, scenes, dq, known):
        """Search the node whose blocks hold the actors ``front`` and
        ``back`` (trimmed here to those on location), at past cost ``z``,
        with the records ``scenes`` left, by ascending representative id.
        ``dq`` is the union of the records' fixed masks and ``known`` the
        parent's active actors, both handed down by the parent.  The blocks'
        scenes are in ``self.pinned``.  Returns a lower bound on the node's
        future cost."""
        self.nodes += 1
        # every node: at n = 64 one node can take milliseconds, so a check
        # every few thousand nodes would overshoot the limit by seconds.
        # Only once a schedule exists: with no incumbent nothing prunes the
        # first dive (the increment test cannot; the cache holds only
        # ancestors, whose remaining sets are supersets; dominance leaves a
        # child, since the scene-id tie-break keeps rules 1 and 2 acyclic
        # and a forced zero-cost scene is itself the child left), so it
        # reaches a leaf within n + 1 nodes.
        if self.best_order and time.perf_counter() > self.deadline:
            raise _TimeLimit

        if not scenes:
            # no guard: the parent entered this leaf only if z < best_h
            self.best_h = z
            # read from this node's front block, which holds the places of
            # the depth's parity (the blocks swap roles at every level); at
            # an odd depth the schedule comes out reversed, at equal cost
            pinned = self.pinned
            first = len(pinned) & 1
            order: list[int] = []
            for group in pinned[first::2]:
                order.extend(group)
            for group in reversed(pinned[1 - first :: 2]):
                order.extend(group)
            self.best_order = tuple(order)
            self.trace.append(
                TraceEntry(time.perf_counter() - self.t0, self.nodes, z, self.best_order)
            )
            return 0

        cfg = self.cfg
        # one pass over the records: ``aq_full`` and ``multi`` are the actors
        # of one or more and of two or more remaining scenes, and ``q_orig``
        # the remaining scenes over original ids.  A merge unions its
        # records' masks and actor sets, so ``aq_full`` and ``q_orig`` are
        # those of the simplified node too
        aq_full = 0
        multi = 0
        q_orig = 0
        for _, q, a, _, _ in scenes:
            multi |= aq_full & a
            aq_full |= a
            q_orig |= q
        # exact: an actor held by neither the middle nor the other block can
        # never enter either again
        front, back = front & (aq_full | back), back & (aq_full | front)

        # -- cached-state prune, before simplifying, as the key reads only
        # the blocks and ``q_orig``: an int is the stored bound that pruned,
        # a list is the node's own entry, which takes its bound at exit --
        entry = None
        if self.cache is not None:
            entry = self.cache.check_and_update(front, back, q_orig, z, self.best_h)
            if isinstance(entry, int):
                return entry

        # ``multi`` after simplifying: its actors stay in the middle whichever
        # scene is pinned next.  The trimmed blocks simplify as the untrimmed
        # ones would: the anchored actors ``_simplify`` keeps are those of
        # some remaining scene, and the blocks' intersection is unchanged
        if cfg.enable_preprocess:
            scenes, active, multi = _simplify(front, back, scenes, aq_full, multi, known)
        else:
            active = self.inst.all_actors

        dominated = self._dominated(scenes, active, front, back)

        # The branch order: the children that survive dominance and are live
        # on entry, ``z + inc < best_h``, by ascending ``inc`` plus pair
        # bound, ties to the smaller scene id, as keys ``(inc + bound) << 6 |
        # c`` with ``c`` the child's place in ``children``, which follows
        # the records' order
        #
        # ``least`` is the least ``inc + b`` over the children that survive
        # dominance, with ``b`` a lower bound on the child's future cost: 0
        # for a child the increment test cuts, the pair bound for one cut at
        # the ``break``, and the returned bound for one searched (the cache
        # may cut it).  A dominated child is left out, as its dominator
        # does at least as well.  Dominance leaves at least one child, and
        # each one adds at least ``best_h - z`` at exit, the incumbent's
        # slack, to ``least``.
        slack = self.best_h - z
        least = math.inf
        children = []
        order = []
        for k, (d, q, a_s, _, fq) in enumerate(scenes):
            if dominated >> k & 1:
                continue
            inc = self._increment(d, a_s, front, back, dq)
            if inc >= slack:
                if inc < least:
                    least = inc
                continue
            key = inc
            if cfg.enable_lower:
                key += self._branch_lower(
                    a_s, aq_full & ~(a_s & ~multi), front, back, q_orig & ~q, dq & ~fq
                )
            order.append(key << 6 | len(children))
            children.append((k, inc))
        order.sort()
        pinned = self.pinned
        for key in order:
            # the incumbent only falls, so every later key fails too
            if z + (key >> 6) >= self.best_h:
                if key >> 6 < least:
                    least = key >> 6
                break
            k, inc = children[key & 63]
            _, _, a_s, members, fq = scenes[k]
            pinned.append(members)
            cost = inc + self._search(
                back, front | a_s, z + inc, scenes[:k] + scenes[k + 1 :], dq & ~fq, active
            )
            pinned.pop()
            if cost < least:
                least = cost
        if entry is not None and least > entry[1]:
            entry[1] = least
        return least

    def _increment(self, d, a_s, front, back, dq):
        """Holding cost newly forced by pinning the scene of ``d`` days and
        actors ``a_s`` after the front block: the front's idle on-location
        actors wait through it, and its arrivals anchored at the back wait
        through every later middle scene that does not use them.  ``dq`` is
        the node's remaining scenes as a fixed mask, as its parent handed
        it down; the waiting wages are one ``wage`` read."""
        waiting = front & ~back & ~a_s
        inc = d * self.wage(waiting) if waiting else 0
        arriving = a_s & ~front & back
        if arriving:
            actor_q = self.actor_q
            days = self.days
            wages = self.inst.wages
            while arriving:
                low = arriving & -arriving
                i = low.bit_length() - 1
                inc += wages[i] * days(dq & ~actor_q[i])
                arriving ^= low
        return inc

    def _dominated(self, scenes, active, front, back):
        """Mask of the positions in ``scenes`` whose record some other
        remaining one does at least as well as in the next front slot; 0
        with both rules off.  With rule 1 on, the first record whose
        active actors are exactly the front's is the zero-cost scene:
        every other position is returned, and the rules are not checked.
        Over the active actors, a scene's ``s1f``/``s1b`` are its actors
        joined with those on location at the front/back, and a
        competitor's are ``s2f``/``s2b``.  Both rules need s1f to cover
        s2f, and then
        rule 1 -- s1b inside s2b (swapping never costs more);
        rule 2 -- the wage of s1f & s2b strictly above the wage of s2f
                  (moving the other scene ahead saves more than it costs).
        Rule 1 can hold both ways (identical joins); the earlier position,
        the smaller id, then survives, and so some remaining scene always
        does, as the forced one does when it is found."""
        cfg = self.cfg
        rule1 = cfg.enable_rule1
        rule2 = cfg.enable_rule2
        if not (rule1 or rule2):
            return 0
        wage = self.wage
        front &= active
        back &= active
        rows = []
        for k, rec in enumerate(scenes):
            sig = rec[2] & active
            # the zero-cost scene: shooting it next holds no one, so it is
            # the only child
            if rule1 and sig == front:
                return (1 << len(scenes)) - 1 ^ 1 << k
            sf = sig | front
            rows.append((k, sf, sig | back, wage(sf)))
        dominated = 0
        for s, s1f, s1b, _ in rows:
            for other, s2f, s2b, loss in rows:
                if s2f & ~s1f or other == s:
                    continue
                # mutual domination under rule 1 resolves to the earlier
                # position, the smaller id
                if (
                    rule1
                    and not s1b & ~s2b
                    and (other < s or s1f != s2f or s1b != s2b)
                ) or (rule2 and wage(s1f & s2b) > loss):
                    dominated |= 1 << s
                    break
        return dominated

    def _branch_lower(self, a_s, aq2, front, back, q2, dq2):
        """Pair-constraint bound for the child that pins the scene with
        actors ``a_s`` in front, whose remaining scenes use the actors
        ``aq2`` and are ``q2`` over original scene ids and ``dq2`` as a
        fixed mask.  Each relevant actor's remaining scenes are its fixed
        mask within ``dq2``.

        The bound depends only on the child's relevant actors at each block
        and on ``q2``: relevant actors are active, so no merge splits their
        scene sets, and nothing in the bound depends on which side is the
        front.  Values are memoised under that state in two generations
        of ``LOWER_MEMO_ENTRIES``: when the current one is full it becomes
        the previous one, and the previous one's values are dropped.  A
        miss takes the keys of ``_pair_keys`` to ``_pair_bound``."""
        fa2 = front | a_s
        front_rel = fa2 & aq2 & ~back
        back_rel = back & aq2 & ~fa2
        count = (front_rel | back_rel).bit_count()
        if count < 2:
            return 0
        m = self.inst.num_actors
        if front_rel < back_rel:
            key = (q2 << m | front_rel) << m | back_rel
        else:
            key = (q2 << m | back_rel) << m | front_rel
        memo = self.lower_memo
        value = memo.get(key)
        if value is not None:
            return value
        value = self.lower_prev.get(key)
        if value is None:
            value = _pair_bound(*self._pair_keys(front_rel, back_rel, dq2), count)
        if len(memo) >= LOWER_MEMO_ENTRIES:
            prev = self.lower_prev
            prev.clear()
            self.lower_prev = memo
            self.lower_memo = memo = prev
        memo[key] = value
        return value

    def _pair_keys(self, front_rel, back_rel, dq2):
        """Positive pair-constraint constants as packed keys, with their
        total: ``c`` bounds the combined middle-block wait of actors i < j
        and is stored as ``c << 12 | (63 - i) << 6 | (63 - j)``, so sorting
        the keys in reverse orders them by ``c`` descending, then by actor
        pair.  The low 12 bits are read from ``_PAIR_TAGS``.

        ``front_rel`` and ``back_rel`` are the relevant actors anchored at
        each block (on location at exactly one), and ``dq2`` the middle
        block's scenes as a fixed mask.  One pass over each side takes an
        actor's remaining scenes ``actor_q[i] & dq2``, their days and its
        wage, and pairs it with the side's actors already taken: one of two
        actors on the same side sits through the other's private scenes.
        Then the cross pairs: only when some scene needs both must their
        spans meet, and then one of them covers every scene needing
        neither."""
        actor_q = self.actor_q
        days = self.days
        wages = self.inst.wages
        tags = _PAIR_TAGS
        keys = []
        total = 0
        sides = []
        for rel in (front_rel, back_rel):
            side = []
            while rel:
                low = rel & -rel
                i = low.bit_length() - 1
                rel ^= low
                qi = actor_q[i] & dq2
                di = days(qi)
                wi = wages[i]
                row = tags[i]
                for j, qj, dj, wj, _ in side:
                    d_int = days(qi & qj)
                    ci = wj * (di - d_int)
                    cj = wi * (dj - d_int)
                    c = ci if ci < cj else cj
                    if c > 0:
                        total += c
                        keys.append(c << 12 | row[j])
                side.append((i, qi, di, wi, row))
            sides.append(side)
        front, back = sides
        if back:
            dq = days(dq2)
            for _, qi, di, wi, row in front:
                rest = dq - di
                for j, qj, dj, wj, _ in back:
                    inter = qi & qj
                    if not inter:
                        continue
                    c = (wi if wi < wj else wj) * (rest - dj + days(inter))
                    if c > 0:
                        total += c
                        keys.append(c << 12 | row[j])
        return keys, total


def solve(inst: Instance, cfg: SolveConfig | None = None) -> SolveResult:
    """Minimize the holding cost over all shooting orders of the instance."""
    return _Search(inst, cfg or SolveConfig()).run()
