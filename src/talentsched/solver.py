"""Double-ended branch-and-bound solver plus the exhaustive oracle.

The search fixes one scene per level, alternating between the two ends of
the schedule by swapping the roles of the front and back blocks on every
recursion.  Each node is simplified first (actor dropping, duplicate-scene
merging), then checked against the state cache, and each candidate branch
must survive the dominance rules and the lower-bound test
``past + increment + future_bound < best`` before it is explored.

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
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import permutations

from .cache import CacheStats, StateCache
from .cost import Schedule, holding_cost, work_cost
from .instance import Instance, bits


@dataclass(frozen=True)
class SolveConfig:
    """Solver switches.  ``cache_capacity`` is 0 (off) or a power of two
    (``1 << 64`` evicts a state only for one with an equal hash).
    ``initial_ub`` is a holding cost some schedule is known to reach: it
    tightens pruning without hiding value-equal optima, and a search that
    finishes without reaching it raises ``ValueError``."""

    cache_capacity: int = 1 << 25
    cache_strategy: str = "greedy"
    enable_preprocess: bool = True
    enable_rule1: bool = True
    enable_rule2: bool = True
    enable_lower: bool = True
    time_limit: float = 600.0
    initial_ub: int | None = None
    branch_order: str = "id"

    def __post_init__(self):
        cap = self.cache_capacity
        if not isinstance(cap, int) or cap < 0 or cap & (cap - 1):
            raise ValueError("cache_capacity must be 0 or a power of two")
        if self.cache_strategy not in ("latest", "greedy"):
            raise ValueError(f"unknown cache strategy {self.cache_strategy!r}")
        if self.time_limit <= 0:
            raise ValueError("time_limit must be positive")
        if self.branch_order not in ("id", "cheapest"):
            raise ValueError(f"unknown branch order {self.branch_order!r}")
        if self.initial_ub is not None and self.initial_ub < 0:
            raise ValueError("initial_ub must be >= 0")


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
    forces the least new holding cost (ties to the smaller id)."""
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
    """Exact minimum holding cost by full permutation enumeration (n <= 10);
    returns the lexicographically smallest optimal order."""
    n, m = inst.num_scenes, inst.num_actors
    if n > 10:
        raise ValueError("brute force enumeration is capped at 10 scenes")
    durs = inst.durations
    wages = inst.wages
    scene_lists = [list(bits(a)) for a in inst.scene_actors]
    base = work_cost(inst)

    first = [0] * m
    last = [0] * m
    stamp = [0] * m
    gen = 0
    best_h = None
    best_order = None
    for perm in permutations(range(n)):
        gen += 1
        day = 0
        for s in perm:
            d = durs[s]
            for i in scene_lists[s]:
                if stamp[i] != gen:
                    stamp[i] = gen
                    first[i] = day
                last[i] = day + d
            day += d
        total = 0
        for i in range(m):
            if stamp[i] == gen:
                total += wages[i] * (last[i] - first[i])
        h = total - base
        if best_h is None or h < best_h:
            best_h = h
            best_order = perm
    return best_h, Schedule(best_order)


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
        groups: dict[int, list[int]] = {}
        for s in reps:
            groups.setdefault(member_actors[s] & new_active, []).append(s)
        if new_active == active and len(groups) == len(reps):
            return reps, q_reps, active, dur_view, member_mask, member_actors, members
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
            reps = list(bits(q_reps))


def _pair_constants(actors, front_rel, qmasks, qdur, dq, dur_view, wages):
    """Positive pair-constraint constants ``(c, i, j)`` with i < j: ``c``
    bounds the combined middle-block wait of actors i and j.

    ``actors`` lists the node's relevant actors ascending (on location at
    exactly one block), ``front_rel`` masks those anchored at the front,
    ``qmasks[a]``/``qdur[a]`` are the remaining scenes of ``actors[a]`` and
    their total duration, and ``dq`` is the whole middle block's length.
    Two actors on the same side: one of them sits through the other's
    private scenes.  Opposite sides: only when some scene needs both must
    their spans meet, and then one of them covers every scene needing
    neither.
    """
    pairs = []
    count = len(actors)
    for a in range(count):
        i = actors[a]
        qi = qmasks[a]
        di = qdur[a]
        wi = wages[i]
        i_front = front_rel >> i & 1
        for b in range(a + 1, count):
            j = actors[b]
            qj = qmasks[b]
            inter = qi & qj
            d_int = 0
            mm = inter
            while mm:
                low = mm & -mm
                d_int += dur_view[low.bit_length() - 1]
                mm ^= low
            wj = wages[j]
            if i_front == (front_rel >> j & 1):
                c = min(wj * (di - d_int), wi * (qdur[b] - d_int))
            elif inter:
                c = min(wi, wj) * (dq - di - qdur[b] + d_int)
            else:
                c = 0
            if c > 0:
                pairs.append((c, i, j))
    return pairs


def _pair_bound(pairs, count):
    """Lower bound on the total wait of ``count`` relevant actors from their
    pair constants: the larger of the averaging bound (every actor is in
    count-1 pairs, so the constants' total over count-1, rounded up) and the
    greedy matching (constants largest first, ties by actor pair, each kept
    when both its actors are still unmarked).  Sorts ``pairs`` in place."""
    if not pairs:
        return 0
    pairs.sort(key=lambda p: (-p[0], p[1], p[2]))
    total = 0
    marked = 0
    lb2 = 0
    for c, i, j in pairs:
        total += c
        if marked >> i & 1 or marked >> j & 1:
            continue
        lb2 += c
        marked |= (1 << i) | (1 << j)
    lb1 = -(-total // (count - 1))
    return lb1 if lb1 > lb2 else lb2


class _Search:
    def __init__(self, inst: Instance, cfg: SolveConfig):
        self.inst = inst
        self.cfg = cfg
        self.wage_tables = _sum_tables(inst.wages)
        self.cache = (
            StateCache(cfg.cache_capacity, cfg.cache_strategy) if cfg.cache_capacity else None
        )
        self.nodes = 0
        self.best_h = 0
        self.best_order: tuple[int, ...] = ()
        self.limit = 0
        self.trace: list[TraceEntry] = []
        self.t0 = 0.0
        self.deadline = 0.0

    def run(self) -> SolveResult:
        inst, cfg = self.inst, self.cfg
        self.t0 = time.perf_counter()
        self.deadline = self.t0 + cfg.time_limit

        greedy_h, greedy_sched = greedy_upper_bound(inst)
        self.best_h = greedy_h
        self.best_order = greedy_sched.order
        self.limit = greedy_h
        if cfg.initial_ub is not None:
            # a valid externally-known bound keeps value-equal optima reachable
            self.limit = min(self.limit, cfg.initial_ub + 1)
        self.trace = [TraceEntry(0.0, 0, greedy_h, greedy_sched.order)]

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
        hint = cfg.initial_ub
        if status == "optimal" and hint is not None and self.best_h > hint:
            raise ValueError(
                f"initial_ub={hint} is below the optimum: "
                "no schedule has a holding cost within it"
            )

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
        # every few thousand nodes would overshoot the limit by seconds
        if time.perf_counter() > self.deadline:
            raise _TimeLimit

        if not q_reps:
            if z < self.best_h:
                self.best_h = z
                order: list[int] = []
                for s in front_vec:
                    order.extend(members[s])
                for s in reversed(back_vec):
                    order.extend(members[s])
                self.best_order = tuple(order)
                self.limit = min(self.limit, z)
                self.trace.append(
                    TraceEntry(
                        time.perf_counter() - self.t0, self.nodes, z, self.best_order
                    )
                )
            return

        cfg = self.cfg
        reps = list(bits(q_reps))
        if cfg.enable_preprocess:
            reps, q_reps, active, dur_view, member_mask, member_actors, members = (
                _simplify(
                    front_act, back_act, reps, q_reps, active,
                    dur_view, member_mask, member_actors, members,
                )
            )

        aq_full = 0
        for s in reps:
            aq_full |= member_actors[s]
        front_onloc = front_act & (aq_full | back_act)
        back_onloc = back_act & (aq_full | front_act)

        # -- cached-state prune --
        if self.cache is not None and self.cache.check_and_update(
            front_onloc,
            back_onloc,
            q_orig,
            z,
            [member_mask[s] for s in reps],
        ):
            return

        k = len(reps)
        prefix = [0] * (k + 1)
        for idx in range(k):
            prefix[idx + 1] = prefix[idx] | member_actors[reps[idx]]
        suffix = [0] * (k + 1)
        for idx in range(k - 1, 0, -1):
            suffix[idx] = suffix[idx + 1] | member_actors[reps[idx]]

        # per-actor remaining-scene masks and duration totals; the type-2
        # increment term reduces to wage * (middle total - actor's own total)
        actor_q = [0] * self.inst.num_actors
        actor_qd = [0] * self.inst.num_actors
        dq_total = 0
        for s in reps:
            d = dur_view[s]
            dq_total += d
            a = member_actors[s]
            while a:
                low = a & -a
                i = low.bit_length() - 1
                actor_q[i] |= 1 << s
                actor_qd[i] += d
                a ^= low

        use_rules = cfg.enable_rule1 or cfg.enable_rule2
        if use_rules:
            front_dom = front_onloc & active
            back_dom = back_onloc & active
            sigs = {s: member_actors[s] & active for s in reps}

        # ``order`` lists positions in ``reps``; "cheapest" needs every
        # increment up front to sort by, and ties keep ascending scene ids
        if cfg.branch_order == "cheapest":
            incs = [
                self._increment(
                    s, dur_view, member_actors, front_onloc, back_onloc,
                    actor_qd, dq_total,
                )
                for s in reps
            ]
            order = sorted(range(k), key=incs.__getitem__)
        else:
            incs = None
            order = range(k)

        for pos in order:
            s = reps[pos]
            if use_rules and self._dominated(s, reps, sigs, front_dom, back_dom):
                continue
            if incs is None:
                inc = self._increment(
                    s, dur_view, member_actors, front_onloc, back_onloc,
                    actor_qd, dq_total,
                )
            else:
                inc = incs[pos]
            z2 = z + inc
            if z2 >= self.limit:
                continue
            if cfg.enable_lower:
                aq2 = prefix[pos] | suffix[pos + 1]
                future = self._branch_lower(
                    s,
                    member_actors[s],
                    aq2,
                    front_act,
                    back_act,
                    actor_q,
                    actor_qd,
                    dur_view,
                    dq_total,
                )
                if z2 + future >= self.limit:
                    continue
            self._search(
                back_vec,
                front_vec + (s,),
                back_act,
                front_act | member_actors[s],
                q_reps & ~(1 << s),
                q_orig & ~member_mask[s],
                z2,
                active,
                dur_view,
                member_mask,
                member_actors,
                members,
            )

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

    def _dominated(self, s, reps, sigs, front_dom, back_dom):
        """Whether some other remaining scene s2 does at least as well as s
        in the next front slot.  ``sigs`` maps each scene to its active
        actors; ``front_dom``/``back_dom`` are the active actors on location
        at each block.  With s1 = sigs[s], both rules need
        s1 | front  to cover  s2 | front, and then
        rule 1 -- s1 | back  inside  s2 | back (swapping never costs more);
        rule 2 -- the wage of (s1 | front) & (s2 | back) strictly above the
                  wage of s2 | front (moving s2 ahead saves more than it
                  costs).
        Rule 1 can hold both ways (identical scenes); the smaller id then
        survives.  Competitors are scanned in ``reps`` order."""
        cfg = self.cfg
        s1 = sigs[s]
        s1_front = s1 | front_dom
        s1_back = s1 | back_dom
        for other in reps:
            if other == s:
                continue
            s2 = sigs[other]
            if cfg.enable_rule1 and not (s2 | front_dom) & ~s1_front:
                if not s1_back & ~(s2 | back_dom):
                    # mutual domination resolves to the smaller scene id
                    if other < s or not (
                        not s1_front & ~(s2 | front_dom)
                        and not (s2 | back_dom) & ~s1_back
                    ):
                        return True
            if cfg.enable_rule2 and not (s2 | front_dom) & ~s1_front:
                gain = _masked_sum(self.wage_tables, s1_front & (s2 | back_dom))
                loss = _masked_sum(self.wage_tables, s2 | front_dom)
                if gain > loss:
                    return True
        return False

    def _branch_lower(
        self,
        s,
        a_s,
        aq2,
        front_act,
        back_act,
        actor_q,
        actor_qd,
        dur_view,
        dq_total,
    ):
        """Pair-constraint bound for the child that pins scene s in front."""
        fa2 = front_act | a_s
        fixed2 = fa2 & back_act
        front_rel = fa2 & (aq2 | back_act) & ~fixed2
        back_rel = back_act & (aq2 | fa2) & ~fixed2
        rel = front_rel | back_rel
        count = rel.bit_count()
        if count < 2:
            return 0

        sbit = 1 << s
        wages = self.inst.wages
        actors = list(bits(rel))
        qmasks = []
        qdur = []
        for i in actors:
            qi = actor_q[i] & ~sbit
            qmasks.append(qi)
            qdur.append(actor_qd[i] - (dur_view[s] if actor_q[i] >> s & 1 else 0))
        dq2 = dq_total - dur_view[s]

        pairs = _pair_constants(actors, front_rel, qmasks, qdur, dq2, dur_view, wages)
        return _pair_bound(pairs, count)


def solve(inst: Instance, cfg: SolveConfig | None = None) -> SolveResult:
    """Minimize the holding cost over all shooting orders of the instance."""
    return _Search(inst, cfg or SolveConfig()).run()
