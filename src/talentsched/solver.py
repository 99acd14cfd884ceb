"""Double-ended branch-and-bound solver plus the exact oracle, a dynamic
program over scene sets.

The search fixes one scene per level, alternating between the two ends of
the schedule by swapping the roles of the front and back blocks on every
recursion.  Each node is simplified first (actor dropping, duplicate-scene
merging), then checked against the state cache, and each candidate branch
must survive the dominance rules and the lower-bound test
``past + increment + future_bound < best`` before it is explored.

The branch order is best first: a node computes the pair bound of every
child still live when its loop starts (``past + increment < best``) and
takes them in ascending ``increment + bound``, ties to the smaller scene
id, stopping at the first whose key fails the test; with ``enable_lower``
off the key is the increment.  The first dives thus reach good schedules
early, and the pruning bites sooner: on the benchmark's base instances
this order expands 58-70% fewer nodes than scene-id order did.

``_search`` returns a lower bound on its state's future cost, the holding
cost still to come on top of ``past``: 0 at a leaf, and otherwise the
larger of ``best - past`` at exit (no completion beats the incumbent) and
the least ``increment + b`` over the children that survive dominance.
``b`` is 0 for a child the increment test cut, its pair bound for one cut
by the branch order's stop, and the bound the child returned when it was
searched or cut by the cache.  A node writes its bound into its state's
cache entry when it finishes, and the cache prunes a later node whose
``past`` plus a stored bound reaches the incumbent (bounded dynamic
programming, Garcia de la Banda, Stuckey & Chu 2011).  A time-limit
unwind writes no bound, as the node's children were not all seen.  On the
benchmark's base instances this saves 20% of nodes on ``sweep`` and 12%
on ``wide-cast`` over storing the past cost.

Merged scenes are tracked per node: a representative scene id carries the
member list, the summed duration, and the union of the members' actor
sets.  Cache keys use the remaining set over *original* scene ids (the
union of all live members), which keeps a state's identity independent of
the merge history that produced it.

Simplification, the increment, dominance and the pair bound each have one
implementation, here: ``_simplify``, ``_Search._increment``,
``_Search._dominated`` and ``_Search._branch_lower`` with its halves
``_pair_constants`` and ``_pair_bound``.  Tests reach them on single nodes
through the adapters in ``testkit``.

Two tables keep those kernels cheap.  Each node builds a dominance table
(``_dominance_table``: per remaining scene its actors joined with each
block's, and the wage of the front join) once, and every candidate scans
it.  The pair bound of a child is memoised per solve in
``_Search.lower_memo``, keyed by the child's state: its relevant actors at
each block and its remaining scenes over original ids.  The double-ended
search reaches one child state through many orders of the placed scenes,
so many bound calls repeat an earlier one.  The memo keeps two
generations of ``LOWER_MEMO_ENTRIES`` values: when the one being filled is
full it becomes the previous one, whose values are dropped, and a value
found in the previous one is copied forward, so the states still in use
survive.  Both generations full take about 0.8 MB.

The pair bound works on day masks (``_actor_tables``): each remaining
scene takes as many consecutive bits as it has days, so the days two
actors share are the popcount of their masks' intersection.  An instance
longer than ``DAY_MASK_MAX_DAYS`` days would build ints that long, so its
solve keeps one bit per scene and sums the shared scenes' durations; the
choice is made once per solve and gives the same bounds either way.
"""

from __future__ import annotations

import math
import time
from array import array
from dataclasses import dataclass, field
from functools import partial

from .cache import CacheStats, StateCache
from .cost import Schedule, holding_cost, work_cost
from .instance import Instance, bits


@dataclass(frozen=True)
class SolveConfig:
    """Solver switches.  ``cache_capacity`` is 0 (off) or a power of two
    (``1 << 64`` evicts a state only for one with an equal hash); the
    cache's collision policy is fixed, not a setting, and so is the branch
    order: a node takes its children in ascending ``increment + pair
    bound`` (the increment alone with ``enable_lower`` off), ties to the
    smaller scene id.  ``time_limit`` is in seconds, positive;
    ``float("inf")`` means no limit.

    The defaults below and the checks in ``__post_init__`` are the only
    statement of each setting: the CLI's flags take their defaults from
    ``SolveConfig()`` and are checked here."""

    cache_capacity: int = 1 << 25
    enable_preprocess: bool = True
    enable_rule1: bool = True
    enable_rule2: bool = True
    enable_lower: bool = True
    time_limit: float = 600.0

    # not a field, so not settable: the cache's one collision policy, which
    # the benchmark runner still reads
    cache_strategy = "greedy"

    def __post_init__(self):
        cap = self.cache_capacity
        # a bool is an int, and True would give a one-slot cache
        if isinstance(cap, bool) or not isinstance(cap, int) or cap < 0 or cap & (cap - 1):
            raise ValueError("cache_capacity must be 0 or a power of two")
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

# the longest instance, in days, whose pair bound works on day masks (one
# bit per day, so the days two actors share are a popcount); a longer one
# keeps one bit per scene and sums the shared scenes' durations
DAY_MASK_MAX_DAYS = 4096

# the most scenes ``brute_force`` takes.  Its 2^20 values take 3-4 s and
# 65 MB with 8 actors, and 11 s with 64; each scene more doubles both.
BRUTE_FORCE_MAX_SCENES = 20


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
    scenes outside ``done``.  Supersets are larger ints, so a backward sweep finds every
    value it reads final.  It also keeps the smallest scene that attains
    each value, and following those from the empty set gives the order."""
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
        for s in bits(rest):
            held = waiting & ~scene_actors[s]
            w = 0
            for t in tables:
                w += t[held & 255]
                held >>= 8
            cost = durations[s] * w + togo[done | 1 << s]
            if best is None or cost < best:
                best, first[done] = cost, s
        togo[done] = best
    order: list[int] = []
    done = 0
    while done != full:
        order.append(first[done])
        done |= 1 << first[done]
    return togo[0], order


def _simplify(
    front_act,
    back_act,
    reps,
    q_reps,
    active,
    dur_view,
    member_mask,
    member_actors,
    members,
):
    """Drop actors that can no longer wait and merge middle scenes that have
    become indistinguishable, iterated to a fixed point.

    An actor is dropped when both blocks anchor them (their pay is decided)
    or when fewer than two things still do, counting each block and each
    remaining scene as one (they can never be held waiting again).
    Remaining scenes whose active-actor sets coincide merge into their
    smallest id, which carries the summed duration, the union of the
    members' original-id masks and actor sets, and the concatenated member
    list.  ``reps`` lists the representatives of ``q_reps`` ascending.
    Returns the updated ``(reps, q_reps, active, dur_view, member_mask,
    member_actors, members)``; the node's optimal holding cost is unchanged.
    """
    anchored = front_act | back_act
    fixed = front_act & back_act
    while True:
        seen_once = 0
        seen_twice = 0
        for s in reps:
            a = member_actors[s]
            seen_twice |= seen_once & a
            seen_once |= a
        new_active = (seen_twice | (seen_once & anchored)) & ~fixed & active
        # the fixed point: no actor drops and no two signatures coincide
        if new_active == active:
            if len({member_actors[s] & active for s in reps}) == len(reps):
                return reps, q_reps, active, dur_view, member_mask, member_actors, members
        groups: dict[int, list[int]] = {}
        for s in reps:
            groups.setdefault(member_actors[s] & new_active, []).append(s)
        active = new_active
        if len(groups) < len(reps):
            dur_view = list(dur_view)
            member_mask = list(member_mask)
            member_actors = list(member_actors)
            members = list(members)
            for group in groups.values():
                keep = group[0]
                for other in group[1:]:
                    dur_view[keep] += dur_view[other]
                    member_mask[keep] |= member_mask[other]
                    member_actors[keep] |= member_actors[other]
                    # concatenate, never re-sort: actors wholly inside an
                    # earlier merge rely on its members staying adjacent in
                    # the stored order
                    members[keep] = members[keep] + members[other]
                    q_reps &= ~(1 << other)
            dur_view = tuple(dur_view)
            member_mask = tuple(member_mask)
            member_actors = tuple(member_actors)
            members = tuple(members)
            reps = bits(q_reps)


def _pair_constants(front, back, dq, dur_view):
    """Positive pair-constraint constants as packed keys, with their total:
    ``c`` bounds the combined middle-block wait of actors i < j and is
    stored as ``c << 12 | (63 - i) << 6 | (63 - j)``, so sorting the keys
    in reverse orders them by ``c`` descending, then by actor pair.

    ``front`` and ``back`` list the relevant actors anchored at each block
    (on location at exactly one), ascending, as ``(i, q, d, w)``: the
    actor, its remaining scenes, their total duration and its wage.  ``dq``
    is the whole middle block's length.  The masks ``q`` are day masks
    (``_actor_tables``) when ``dur_view`` is None, so the days two actors
    share are a popcount; otherwise they hold one bit per scene, and those
    scenes' durations are summed.  Two actors on the same side: one of them sits
    through the other's private scenes.  Opposite sides: only when some
    scene needs both must their spans meet, and then one of them covers
    every scene needing neither.
    """
    days = int.bit_count if dur_view is None else partial(_scene_days, dur_view)
    keys = []
    total = 0
    for side in (front, back):
        for a, (i, qi, di, wi) in enumerate(side, 1):
            hi = (63 - i) << 6
            for j, qj, dj, wj in side[a:]:
                d_int = days(qi & qj)
                ci = wj * (di - d_int)
                cj = wi * (dj - d_int)
                c = ci if ci < cj else cj
                if c > 0:
                    total += c
                    keys.append(c << 12 | hi | 63 - j)
    for i, qi, di, wi in front:
        for j, qj, dj, wj in back:
            inter = qi & qj
            if not inter:
                continue
            c = (wi if wi < wj else wj) * (dq - di - dj + days(inter))
            if c > 0:
                total += c
                if i < j:
                    keys.append(c << 12 | (63 - i) << 6 | 63 - j)
                else:
                    keys.append(c << 12 | (63 - j) << 6 | 63 - i)
    return keys, total


def _scene_days(dur_view, scenes):
    """Total duration of the scenes in the mask ``scenes``."""
    days = 0
    while scenes:
        low = scenes & -scenes
        days += dur_view[low.bit_length() - 1]
        scenes ^= low
    return days


def _pair_bound(keys, total, count):
    """Lower bound on the total wait of ``count`` relevant actors from the
    packed keys of their pair constants and the constants' ``total``: the
    larger of the averaging bound (every actor is in count-1 pairs, so the
    total over count-1, rounded up) and the greedy matching (constants
    largest first, ties by actor pair, each kept when both its actors are
    still unmarked).  Sorts ``keys`` in place."""
    if not keys:
        return 0
    keys.sort(reverse=True)
    marked = 0
    lb2 = 0
    for key in keys:
        # actor i is marked at bit 63 - i, the form the key stores it in
        pair = 1 << (key >> 6 & 63) | 1 << (key & 63)
        if not marked & pair:
            lb2 += key >> 12
            marked |= pair
    lb1 = -(-total // (count - 1))
    return lb1 if lb1 > lb2 else lb2


def _dominance_table(reps, member_actors, active, front_dom, back_dom, wage_tables):
    """Per remaining scene, in ``reps`` order, what the dominance rules
    compare: ``(s, sig | front_dom, sig | back_dom, wage(sig | front_dom))``
    with ``sig`` the scene's active actors and ``front_dom``/``back_dom``
    the active actors on location at each block."""
    table = []
    for s in reps:
        sig = member_actors[s] & active
        sf = sig | front_dom
        table.append((s, sf, sig | back_dom, _masked_sum(wage_tables, sf)))
    return table


def _actor_tables(reps, dur_view, member_actors, num_actors, by_day):
    """Per actor a mask of the remaining scenes that need them and those
    scenes' total duration, the whole middle block's length, and per
    remaining scene id its own mask; the type-2 increment term reduces to
    wage * (middle total - actor's own total).  With ``by_day`` the masks
    are day masks: the scenes of ``reps`` take consecutive runs of
    ``dur_view[s]`` bits, so a mask's popcount is its days.  Otherwise
    scene s is bit s."""
    actor_q = [0] * num_actors
    actor_qd = [0] * num_actors
    scene_q = [0] * len(dur_view)
    dq_total = 0
    for s in reps:
        d = dur_view[s]
        sq = ((1 << d) - 1) << dq_total if by_day else 1 << s
        scene_q[s] = sq
        dq_total += d
        for i in bits(member_actors[s]):
            actor_q[i] |= sq
            actor_qd[i] += d
    return actor_q, actor_qd, dq_total, scene_q


class _Search:
    def __init__(self, inst: Instance, cfg: SolveConfig):
        self.inst = inst
        self.cfg = cfg
        self.wage_tables = _sum_tables(inst.wages)
        self.cache = StateCache(cfg.cache_capacity) if cfg.cache_capacity else None
        # the pair-bound memo: the generation being filled, and the full one
        # before it, whose values are copied forward when they hit
        self.lower_memo: dict[int, int] = {}
        self.lower_prev: dict[int, int] = {}
        # the pair bound's masks: one bit per day, or per scene past the cap
        self.by_day = sum(inst.durations) <= DAY_MASK_MAX_DAYS
        self.nodes = 0
        # the incumbent, above every schedule's cost until the first leaf
        self.best_h = math.inf
        self.best_order: tuple[int, ...] = ()
        self.trace: list[TraceEntry] = []
        self.t0 = 0.0
        self.deadline = 0.0

    def run(self) -> SolveResult:
        inst, cfg = self.inst, self.cfg
        self.t0 = time.perf_counter()
        self.deadline = self.t0 + cfg.time_limit

        n = inst.num_scenes
        status = "optimal"
        try:
            self._search(
                (),
                (),
                0,
                0,
                inst.all_scenes,
                inst.all_scenes,
                0,
                inst.all_actors,
                inst.durations,
                tuple(1 << j for j in range(n)),
                inst.scene_actors,
                tuple((j,) for j in range(n)),
            )
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

    def _search(
        self,
        front_vec,
        back_vec,
        front_act,
        back_act,
        q_reps,
        q_orig,
        z,
        active,
        dur_view,
        member_mask,
        member_actors,
        members,
    ):
        self.nodes += 1
        # every node: at n = 64 one node can take milliseconds, so a check
        # every few thousand nodes would overshoot the limit by seconds.
        # Only once a schedule exists: with no incumbent nothing prunes the
        # first dive (the increment test cannot; the cache holds only
        # ancestors, whose remaining sets are supersets; dominance leaves a
        # child, since the scene-id tie-break keeps rules 1 and 2 acyclic),
        # so it reaches a leaf within n + 1 nodes.
        if self.best_order and time.perf_counter() > self.deadline:
            raise _TimeLimit

        if not q_reps:
            # no guard: the parent entered this leaf only if z < best_h
            self.best_h = z
            order: list[int] = []
            for s in front_vec:
                order.extend(members[s])
            for s in reversed(back_vec):
                order.extend(members[s])
            self.best_order = tuple(order)
            self.trace.append(
                TraceEntry(time.perf_counter() - self.t0, self.nodes, z, self.best_order)
            )
            return 0

        cfg = self.cfg
        reps = bits(q_reps)
        if cfg.enable_preprocess:
            reps, q_reps, active, dur_view, member_mask, member_actors, members = (
                _simplify(
                    front_act, back_act, reps, q_reps, active,
                    dur_view, member_mask, member_actors, members,
                )
            )

        # ``multi``: actors of two or more remaining scenes, who stay in the
        # middle whichever scene is pinned next
        aq_full = 0
        multi = 0
        for s in reps:
            a = member_actors[s]
            multi |= aq_full & a
            aq_full |= a
        front_onloc = front_act & (aq_full | back_act)
        back_onloc = back_act & (aq_full | front_act)

        # -- cached-state prune: an int is the stored bound that pruned, a
        # list is the node's own entry, which takes its bound at exit --
        entry = None
        if self.cache is not None:
            entry = self.cache.check_and_update(
                front_onloc,
                back_onloc,
                q_orig,
                z,
                self.best_h,
                [member_mask[s] for s in reps],
            )
            if isinstance(entry, int):
                return entry

        tables = _actor_tables(
            reps, dur_view, member_actors, self.inst.num_actors, self.by_day
        )
        _, actor_qd, dq_total, _ = tables
        if cfg.enable_rule1 or cfg.enable_rule2:
            dom_table = _dominance_table(
                reps, member_actors, active, front_onloc & active,
                back_onloc & active, self.wage_tables,
            )
        else:
            dom_table = None

        # The branch order: the children that survive dominance and are live
        # on entry, ``z + inc < best_h``, by ascending ``inc`` plus pair
        # bound, ties to the smaller scene id, as keys ``(inc + bound) << 6 |
        # k`` with ``k`` the child's place in ``children``, in scene id order
        #
        # ``least`` is the least ``inc + b`` over the children that survive
        # dominance, with ``b`` a lower bound on the child's future cost: 0
        # for a child the increment test cuts, the pair bound for one cut at
        # the ``break``, and the returned bound for one searched (the cache
        # may cut it).  A dominated child is left out, as its dominator
        # does at least as well.
        slack = self.best_h - z
        least = math.inf
        children = []
        order = []
        for pos, s in enumerate(reps):
            if dom_table is not None and self._dominated(pos, dom_table):
                continue
            inc = self._increment(
                s, dur_view, member_actors, front_onloc, back_onloc,
                actor_qd, dq_total,
            )
            if inc >= slack:
                if inc < least:
                    least = inc
                continue
            key = inc
            if cfg.enable_lower:
                key += self._branch_lower(
                    s,
                    member_actors[s],
                    aq_full & ~(member_actors[s] & ~multi),
                    front_act,
                    back_act,
                    q_orig & ~member_mask[s],
                    tables,
                    dur_view,
                )
            order.append(key << 6 | len(children))
            children.append((s, inc))
        order.sort()
        for key in order:
            # the incumbent only falls, so every later key fails too
            if z + (key >> 6) >= self.best_h:
                if key >> 6 < least:
                    least = key >> 6
                break
            s, inc = children[key & 63]
            cost = inc + self._search(
                back_vec,
                front_vec + (s,),
                back_act,
                front_act | member_actors[s],
                q_reps & ~(1 << s),
                q_orig & ~member_mask[s],
                z + inc,
                active,
                dur_view,
                member_mask,
                member_actors,
                members,
            )
            if cost < least:
                least = cost
        # no completion beats the incumbent now, and none beats ``least``
        bound = self.best_h - z
        if least > bound:
            bound = least
        if entry is not None and bound > entry[1]:
            entry[1] = bound
        return bound

    def _increment(
        self, s, dur_view, member_actors, front_onloc, back_onloc, actor_qd, dq_total
    ):
        """Holding cost newly forced by pinning scene s after the front block:
        the front's idle on-location actors wait through s, and s's arrivals
        anchored at the back wait through every later middle scene that does
        not use them."""
        a_s = member_actors[s]
        waiting = front_onloc & ~back_onloc & ~a_s
        inc = dur_view[s] * _masked_sum(self.wage_tables, waiting) if waiting else 0
        arriving = a_s & ~front_onloc & back_onloc
        if arriving:
            wages = self.inst.wages
            while arriving:
                low = arriving & -arriving
                i = low.bit_length() - 1
                inc += wages[i] * (dq_total - actor_qd[i])
                arriving ^= low
        return inc

    def _dominated(self, pos, table):
        """Whether some other remaining scene does at least as well in the
        next front slot as the scene of row ``pos`` of the node's
        ``_dominance_table``.  With rows ``(s, s1f, s1b, _)`` for that scene
        and ``(other, s2f, s2b, loss)`` for a competitor, both rules need
        s1f to cover s2f, and then
        rule 1 -- s1b inside s2b (swapping never costs more);
        rule 2 -- the wage of s1f & s2b strictly above ``loss``, the wage
                  of s2f (moving the other scene ahead saves more than it
                  costs).
        Rule 1 can hold both ways (identical rows); the smaller id then
        survives.  Competitors are scanned in table order."""
        cfg = self.cfg
        rule1 = cfg.enable_rule1
        rule2 = cfg.enable_rule2
        wage_tables = self.wage_tables
        s, s1f, s1b, _ = table[pos]
        for other, s2f, s2b, loss in table:
            if s2f & ~s1f or other == s:
                continue
            if rule1 and not s1b & ~s2b:
                # mutual domination resolves to the smaller scene id
                if other < s or s1f != s2f or s1b != s2b:
                    return True
            if rule2 and _masked_sum(wage_tables, s1f & s2b) > loss:
                return True
        return False

    def _branch_lower(self, s, a_s, aq2, front_act, back_act, q2, tables, dur_view):
        """Pair-constraint bound for the child that pins scene s in front,
        whose remaining scenes use the actors ``aq2`` and are ``q2`` over
        original scene ids; ``tables`` are the node's ``_actor_tables``.

        The bound depends only on the child's relevant actors at each block
        and on ``q2``: relevant actors are active, so no merge splits their
        scene sets, and nothing in the bound depends on which side is the
        front.  Values are memoised under that state in two generations
        of ``LOWER_MEMO_ENTRIES``: when the current one is full it becomes
        the previous one, and the previous one's values are dropped."""
        fa2 = front_act | a_s
        front_rel = fa2 & aq2 & ~back_act
        back_rel = back_act & aq2 & ~fa2
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
            # only the actors of s lose a remaining scene, and none of them
            # is relevant at the back
            actor_q, actor_qd, dq_total, scene_q = tables
            not_s = ~scene_q[s]
            ds = dur_view[s]
            wages = self.inst.wages
            front = []
            rel = front_rel
            while rel:
                low = rel & -rel
                i = low.bit_length() - 1
                if a_s & low:
                    front.append((i, actor_q[i] & not_s, actor_qd[i] - ds, wages[i]))
                else:
                    front.append((i, actor_q[i], actor_qd[i], wages[i]))
                rel ^= low
            back = []
            rel = back_rel
            while rel:
                low = rel & -rel
                i = low.bit_length() - 1
                back.append((i, actor_q[i], actor_qd[i], wages[i]))
                rel ^= low
            keys, total = _pair_constants(
                front, back, dq_total - ds, None if self.by_day else dur_view
            )
            value = _pair_bound(keys, total, count)
        if len(memo) >= LOWER_MEMO_ENTRIES:
            prev = self.lower_prev
            prev.clear()
            self.lower_prev = memo
            self.lower_memo = memo = prev
        memo[key] = value
        return value


def solve(inst: Instance, cfg: SolveConfig | None = None) -> SolveResult:
    """Minimize the holding cost over all shooting orders of the instance."""
    return _Search(inst, cfg or SolveConfig()).run()
