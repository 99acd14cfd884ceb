"""Reference oracles, kernel adapters and the LP model's reference check,
shared by the test suite.

``mask_of`` and ``actors_of_scenes`` build the bit masks the tests state
nodes in; the package itself needs neither.

The oracles (``SearchNode``, ``past_cost``, ``enumerate_future_cost``,
``q_span_holdings`` and the ``CacheModel`` of the state cache) are small,
slow, and written independently of the solver's fast paths so they can
serve as ground truth; the optimum of a whole instance is
``solver.brute_force``, whose subset DP also gives
``enumerate_future_cost``.  The adapters turn a ``SearchNode`` (or the
``KernelNode`` the search carries, whose remaining scenes are the search's
records) into the per-node arguments of the solver's own kernels --
``_simplify``, ``_Search._increment``, ``_Search._dominated``,
``_Search._branch_lower`` (on a plain node or, by ``lower_at``, on a
simplified one) and its two halves ``_Search._pair_keys``/``_pair_bound``
-- so that tests check the code every solve runs.  The kernels read the
fixed masks of a ``_Search`` of the instance, in the mask form its solve
uses; an adapter passes at most the node's remaining mask, and never the
dominance rows.  ``dominated`` and ``groups`` name scenes by their
representative ids; ``lower_at`` takes a record's position, as the search
does.
``pack_pairs``/``unpack_pairs`` translate between pair constants keyed by
actor pair and the packed keys of the pair bound's two halves.

``validate_assignment`` checks a schedule against the LP model that
``talentsched.build_model`` returns: ``build_assignment`` sets the
variables the schedule implies and ``check_assignment`` evaluates every
row, non-negativity and the objective.  They read the model only through the
fields the export writes: ``model_variables`` collects every variable
from the objective and the rows, and ``z_pairs`` and ``used_actors`` read
the indices that the names ``z_i_j`` and ``e_i`` carry.

The worked example is ``talentsched.testkit``'s, since the benchmark
runner reads it too.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable

from talentsched.cache import CacheStats
from talentsched.cost import Schedule, _check_schedule
from talentsched.ilp import MilpModel
from talentsched.instance import Instance, bits
from talentsched.solver import (
    SolveConfig,
    _order_dp,
    _Search,
    _simplify,
)


# --- bit-set helpers ----------------------------------------------------------

def mask_of(indices: Iterable[int]) -> int:
    """Bit mask with the given indices set."""
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def actors_of_scenes(inst: Instance, scenes: int) -> int:
    """Union of the actor sets of the scenes in ``scenes``."""
    out = 0
    sa = inst.scene_actors
    for j in bits(scenes):
        out |= sa[j]
    return out


@dataclass(frozen=True)
class SearchNode:
    """A partial schedule: ordered front and back blocks plus the remaining
    scene set."""

    front: tuple[int, ...]
    back: tuple[int, ...]
    remaining: int


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
    relevant = (a_front | a_back | a_mid) & ~(a_front & a_back)
    return _order_dp(
        [inst.scene_actors[s] & relevant for s in q],
        [inst.durations[s] for s in q],
        inst.wages,
        a_front & relevant,
        a_back & relevant,
    )[0]


def q_span_holdings(inst: Instance, node: SearchNode, order) -> dict[int, int]:
    """Per-actor waiting cost inside the middle block when its scenes run
    in ``order``, keyed by actor: actors anchored at the front wait from the
    block's first day, those anchored at the back until its last."""
    a_front = 0
    for s in node.front:
        a_front |= inst.scene_actors[s]
    a_back = 0
    for s in node.back:
        a_back |= inst.scene_actors[s]
    mid_days = sum(inst.durations[s] for s in order)
    first, last, work = {}, {}, {}
    day = 0
    for s in order:
        d = inst.durations[s]
        for i in bits(inst.scene_actors[s]):
            first.setdefault(i, day)
            last[i] = day + d
            work[i] = work.get(i, 0) + d
        day += d
    out = {}
    for i in set(first) | set(bits(a_front & a_back)):
        start = 0 if a_front >> i & 1 else first.get(i, 0)
        end = mid_days if a_back >> i & 1 else last.get(i, 0)
        if i not in first and not (a_front >> i & 1 and a_back >> i & 1):
            continue
        out[i] = inst.wages[i] * max(0, end - start - work.get(i, 0))
    return out


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

class CacheModel:
    """The direct-mapped state cache, one probe and one store at a time:
    the same slots, entries ``[key, bound]``, prune test, replacement rule
    and ``CacheStats`` counters as ``StateCache``, with ``check_and_update``
    as a lookup of the node's own state, then a pass over the resident
    states with the node's blocks and a remaining set below its own as an
    int, from the largest down, for the first that is a subset whose bound
    prunes, then a store that hands back the entry the node raises its
    bound in."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.slots: dict[int, list] = {}
        self.stats = CacheStats()

    def slot(self, key: tuple[int, int, int]) -> int:
        """At 2^k slots, the top k bits of the 64-bit hash with its high
        half folded onto its low half, times 0x9E3779B97F4A7C15 modulo
        2^64."""
        k = self.capacity.bit_length() - 1
        h = hash(key) % 2**64
        h ^= h // 2**32
        return h * 0x9E3779B97F4A7C15 % 2**64 // 2 ** (64 - k)

    def lookup(self, key: tuple[int, int, int], z: int, limit) -> int | None:
        """The resident bound of ``key`` if it prunes at past cost ``z``."""
        self.stats.probes += 1
        entry = self.slots.get(self.slot(key))
        if entry is not None and entry[0] == key and z + entry[1] >= limit:
            self.stats.hits += 1
            return entry[1]
        return None

    def subset_lookup(self, front, back, remaining, z, limit) -> int | None:
        """The bound of the first resident state with blocks ``front`` and
        ``back`` and a subset of ``remaining`` that prunes at past cost
        ``z``, trying the states of those blocks with a smaller remaining
        set as an int, the largest first; each one tried is a probe."""
        below = [
            entry[0] + (entry[1],)
            for entry in self.slots.values()
            if entry[0][:2] == (front, back) and entry[0][2] < remaining
        ]
        for _, _, r, bound in sorted(below, key=lambda state: -state[2]):
            self.stats.probes += 1
            if r | remaining == remaining and z + bound >= limit:
                self.stats.hits += 1
                self.stats.subset_hits += 1
                return bound
        return None

    def store(self, key: tuple[int, int, int]) -> list:
        slot = self.slot(key)
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

    def check_and_update(self, front, back, remaining, z, limit):
        if back < front:
            front, back = back, front
        key = (front, back, remaining)
        bound = self.lookup(key, z, limit)
        if bound is None:
            bound = self.subset_lookup(front, back, remaining, z, limit)
        if bound is not None:
            return bound
        return self.store(key)


# --- kernel adapters ----------------------------------------------------------

@dataclass(frozen=True)
class KernelNode:
    """The state ``_Search._search`` carries into a node: the actors on
    location at each block and the remaining scenes, one record
    ``(duration, mask, actors, members, fixed mask)`` each by ascending
    representative id; with the node's active actors, which ``simplify``
    derives (every actor before)."""

    front: int
    back: int
    active: int
    scenes: tuple[tuple[int, int, int, tuple[int, ...]], ...]

    def groups(self) -> dict[int, tuple[int, ...]]:
        """Members of every remaining representative that absorbed others,
        keyed by its id."""
        return {rec[3][0]: rec[3] for rec in self.scenes if len(rec[3]) > 1}


def kernel_node(inst: Instance, node: SearchNode) -> KernelNode:
    """The node as the search enters it, before any merge, with each
    block's actors trimmed to those on location as ``_search`` trims
    them, and each record's fixed mask in the form a solve of ``inst``
    uses."""
    front = actors_of_scenes(inst, mask_of(node.front))
    back = actors_of_scenes(inst, mask_of(node.back))
    aq = actors_of_scenes(inst, node.remaining)
    scene_q = _kernels(inst).scene_q
    return KernelNode(
        front=front & (aq | back),
        back=back & (aq | front),
        active=inst.all_actors,
        scenes=tuple(
            (inst.durations[j], 1 << j, inst.scene_actors[j], (j,), scene_q[j])
            for j in bits(node.remaining)
        ),
    )


def simplify(kn: KernelNode) -> KernelNode:
    """The node after the solver's ``_simplify``, given the actors of one
    or more and of two or more records as ``_search``'s pass finds them,
    and no parent's active set (-1, as at the root): ``kn.active`` need not
    be one whose signatures were distinct."""
    seen_once = 0
    seen_twice = 0
    for rec in kn.scenes:
        seen_twice |= seen_once & rec[2]
        seen_once |= rec[2]
    scenes, active, _ = _simplify(kn.front, kn.back, kn.scenes, seen_once, seen_twice, -1)
    return KernelNode(kn.front, kn.back, active, scenes)


def _kernels(inst: Instance, **switches) -> _Search:
    return _Search(inst, SolveConfig(cache_capacity=0, **switches))


def _node_mask(kn: KernelNode) -> int:
    """The remaining scenes of the kernel node ``kn`` as one mask in the
    fixed form (day or scene) of its records, the union of their fixed
    masks: ``_search``'s ``dq``."""
    dq = 0
    for rec in kn.scenes:
        dq |= rec[4]
    return dq


def _require_remaining(node: SearchNode, scene: int) -> None:
    if not node.remaining >> scene & 1:
        raise ValueError(f"scene {scene} is not in the node's remaining set")


def increment(inst: Instance, node: SearchNode, scene: int) -> int:
    """``_Search._increment``: holding cost newly forced by pinning
    ``scene`` right after the node's front block."""
    _require_remaining(node, scene)
    kn = kernel_node(inst, node)
    search = _kernels(inst)
    return search._increment(
        inst.durations[scene], inst.scene_actors[scene], kn.front, kn.back,
        _node_mask(kn),
    )


def dominated(
    inst: Instance, kn: KernelNode, use_rule1: bool = True, use_rule2: bool = True
) -> int:
    """``_Search._dominated`` at the kernel node ``kn``: the mask of the
    representative ids whose branch is skipped in favour of another's (the
    kernel's mask is over positions in ``kn.scenes``)."""
    search = _kernels(inst, enable_rule1=use_rule1, enable_rule2=use_rule2)
    mask = search._dominated(kn.scenes, kn.active, kn.front, kn.back)
    return sum(1 << rec[3][0] for k, rec in enumerate(kn.scenes) if mask >> k & 1)


def rule_fires(
    inst: Instance, rule: int, s1_actors: int, s2_actors: int, front: int, back: int
) -> bool:
    """Whether dominance rule ``rule`` (1 or 2) of ``_Search._dominated``
    skips a scene with actors ``s1_actors`` for one with ``s2_actors``,
    given the active actors on location at each block.  The competitor gets
    the earlier position, so rule 1's tie-break never spares the first
    scene.  Under rule 1 a zero-cost scene, one that needs exactly the
    front's actors, is forced: the answer is True when the competitor is
    one, and False when the scene is one and the competitor is not."""
    search = _kernels(inst, enable_rule1=rule == 1, enable_rule2=rule == 2)
    scenes = ((1, 1, s2_actors, (0,), 1), (1, 2, s1_actors, (1,), 2))
    return bool(search._dominated(scenes, inst.all_actors, front, back) & 0b10)


def relevant_actors(inst: Instance, node: SearchNode) -> tuple[int, int]:
    """Oracle: the actors whose middle-block wait the pair bound covers --
    on location at the front only, and at the back only."""
    kn = kernel_node(inst, node)
    return kn.front & ~kn.back, kn.back & ~kn.front


def pack_pairs(constants: dict[tuple[int, int], int]) -> tuple[list[int], int]:
    """Pair constants keyed by actor pair ``(i, j)``, i < j, as the packed
    keys ``c << 12 | (63 - i) << 6 | (63 - j)`` of the positive ones and
    their total: the pair ``_Search._pair_keys`` returns and
    ``_pair_bound`` combines."""
    keys = [
        c << 12 | (63 - i) << 6 | (63 - j) for (i, j), c in constants.items() if c > 0
    ]
    return keys, sum(c for c in constants.values() if c > 0)


def unpack_pairs(keys: list[int]) -> dict[tuple[int, int], int]:
    """The inverse of ``pack_pairs``: packed keys as constants keyed by
    actor pair."""
    return {(63 - (k >> 6 & 63), 63 - (k & 63)): k >> 12 for k in keys}


def pair_constants(inst: Instance, node: SearchNode) -> dict[tuple[int, int], int]:
    """``_Search._pair_keys`` over the node's relevant actors and its
    remaining scenes, keyed by actor pair, on the masks a solve of ``inst``
    uses: day masks, or scene masks past ``DAY_MASK_MAX_DAYS``.  Pairs whose
    constant is 0 are absent.  Checks that the returned total is the
    constants' sum."""
    search = _kernels(inst)
    dq = _node_mask(kernel_node(inst, node))
    keys, total = search._pair_keys(*relevant_actors(inst, node), dq)
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
    remaining = node.remaining | 1 << s
    parent = SearchNode(node.front[:-1], node.back, remaining)
    return lower_at(inst, kernel_node(inst, parent), bits(remaining).index(s))


def lower_at(inst: Instance, kn: KernelNode, k: int) -> int:
    """``_Search._branch_lower``, with an empty memo, at the kernel node
    ``kn`` for the child that pins its record at position ``k`` in front,
    on the fixed masks of a solve of ``inst``."""
    search = _kernels(inst)
    _, q, a_s, _, _ = kn.scenes[k]
    aq2 = 0
    q_orig = 0
    for other, rec in enumerate(kn.scenes):
        q_orig |= rec[1]
        if other != k:
            aq2 |= rec[2]
    # the child's fixed mask from ``search``'s scene masks, not the
    # records', so ``kn`` may come from a solve in the other mask form
    q2 = q_orig & ~q
    dq2 = sum(search.scene_q[j] for j in bits(q2))
    return search._branch_lower(a_s, aq2, kn.front, kn.back, q2, dq2)


# --- LP model reference check -------------------------------------------------

def model_variables(model: MilpModel) -> list[str]:
    """Every variable of the model, in order of first appearance in the
    objective and then the rows; each one appears in at least one of them."""
    names = dict.fromkeys(model.objective)
    for c in model.constraints:
        names.update(dict.fromkeys(c.coeffs))
    return list(names)


def _indices(names: Iterable[str], family: str) -> tuple[tuple[int, ...], ...]:
    """The indices that the names of one variable family carry, ``x_i_j`` ->
    ``(i, j)``, in the order of ``names``."""
    out = []
    for name in names:
        head, *rest = name.split("_")
        if head == family:
            out.append(tuple(map(int, rest)))
    return tuple(out)


def z_pairs(model: MilpModel) -> tuple[tuple[int, int], ...]:
    """The ``(i, j)`` of every linearization variable ``z_i_j``."""
    return _indices(model_variables(model), "z")


def used_actors(model: MilpModel) -> tuple[int, ...]:
    """The actors with a window ``e_i``/``l_i``: those some scene requires."""
    return tuple(i for (i,) in _indices(model.generals, "e"))


def build_assignment(model: MilpModel, sched: Schedule) -> dict[str, int]:
    """Variable values implied by a schedule: the successor cycle through the
    dummy, cumulative start days, actor windows, and the z products."""
    inst = model.inst
    _check_schedule(inst, sched)
    n = inst.num_scenes

    values = {name: 0 for name in model_variables(model)}
    start = {}
    day = 0
    for s in sched.order:
        start[s + 1] = day
        day += inst.durations[s]
    start[0] = day  # dummy scene begins after the whole shoot

    chain = [0] + [s + 1 for s in sched.order] + [0]
    for prev, nxt in zip(chain, chain[1:]):
        values[f"x_{prev}_{nxt}"] = 1
    for j in range(n + 1):
        values[f"t_{j}"] = start[j]
    for i, j in z_pairs(model):
        if values[f"x_{i}_{j}"]:
            values[f"z_{i}_{j}"] = start[j]
    for i in used_actors(model):
        days = [
            (start[j + 1], start[j + 1] + inst.durations[j] - 1)
            for j in bits(inst.actor_scenes[i])
        ]
        values[f"e_{i}"] = min(d[0] for d in days)
        values[f"l_{i}"] = max(d[1] for d in days)
    return values


def check_assignment(
    model: MilpModel, values: dict[str, int]
) -> tuple[bool, int, str | None]:
    """Evaluate every constraint; returns (feasible, objective, first
    violated constraint name)."""
    for c in model.constraints:
        lhs = sum(coef * values[var] for var, coef in c.coeffs.items())
        ok = (
            lhs <= c.rhs
            if c.sense == "<="
            else lhs >= c.rhs if c.sense == ">=" else lhs == c.rhs
        )
        if not ok:
            return False, 0, c.name
    for name in model_variables(model):
        if values[name] < 0:
            return False, 0, f"nonneg_{name}"
    objective = model.objective_constant + sum(
        coef * values[var] for var, coef in model.objective.items()
    )
    return True, objective, None


def validate_assignment(model: MilpModel, sched: Schedule) -> tuple[bool, int]:
    """Whether the schedule's implied assignment satisfies the model, and its
    objective value (equals the schedule's total cost when feasible)."""
    feasible, objective, _ = check_assignment(model, build_assignment(model, sched))
    return feasible, objective
