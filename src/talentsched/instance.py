"""Problem data model: instances, bit-set helpers, file format, generator.

An instance is a set of scenes shot back to back on one location and a set
of actors.  Every scene needs a subset of the actors and takes a whole
number of days; every actor has a daily wage and is paid continuously from
the first day they are needed on location to the last.  Actor sets and
scene sets are plain ints used as bit masks (bit i = actor/scene index i),
which caps instances at 64 scenes and 64 actors.

Instance file format (UTF-8 text, ``#`` lines are comments)::

    n m
    <n cells 'X' or '.'> <wage>     one line per actor (m lines)
    d_1 d_2 ... d_n                 scene durations, whitespace separated
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Sequence

MAX_SCENES = 64
MAX_ACTORS = 64


class InstanceFormatError(ValueError):
    """Raised for malformed instance files; carries the offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


# --- bit-set helpers -------------------------------------------------------

def mask_of(indices: Iterable[int]) -> int:
    """Bit mask with the given indices set."""
    m = 0
    for i in indices:
        m |= 1 << i
    return m


# ``_BYTE_BITS[k][b]``: the set bit indices of byte value b at byte k of a
# mask, ascending.  The tables are built on first use, as far as the widest
# mask seen needs, so importing the module builds none; a wider mask adds
# the missing ones in a new tuple, so a reader never sees a partial one.
_BYTE_BITS: tuple[tuple[tuple[int, ...], ...], ...] = ()


def _byte_table(k: int) -> tuple[tuple[int, ...], ...]:
    table: list[tuple[int, ...]] = [()] * 256
    for b in range(1, 256):
        low = b & -b
        table[b] = (8 * k + low.bit_length() - 1,) + table[b ^ low]
    return tuple(table)


def bits(mask: int) -> list[int]:
    """The set bit indices of the non-negative ``mask`` in ascending order,
    one table lookup per byte."""
    global _BYTE_BITS
    out: list[int] = []
    rest = mask
    for table in _BYTE_BITS:
        if not rest:
            return out
        out += table[rest & 255]
        rest >>= 8
    if not rest:
        return out
    if mask < 0:
        raise ValueError(f"bits needs a non-negative mask, got {mask}")
    need = range(len(_BYTE_BITS), (mask.bit_length() + 7) >> 3)
    _BYTE_BITS += tuple(_byte_table(k) for k in need)
    return bits(mask)


# --- instance --------------------------------------------------------------

@dataclass(frozen=True)
class Instance:
    """Immutable problem instance.

    ``scene_actors[j]`` is the actor mask of scene j; ``actor_scenes[i]``
    (derived) is the scene mask of actor i.
    """

    num_scenes: int
    num_actors: int
    scene_actors: tuple[int, ...]
    durations: tuple[int, ...]
    wages: tuple[int, ...]
    name: str | None = field(default=None, compare=False)
    actor_scenes: tuple[int, ...] = field(
        init=False, repr=False, compare=False, default=()
    )

    def __post_init__(self):
        n, m = self.num_scenes, self.num_actors
        if not 1 <= n <= MAX_SCENES:
            raise ValueError(f"num_scenes must be in 1..{MAX_SCENES}, got {n}")
        if not 1 <= m <= MAX_ACTORS:
            raise ValueError(f"num_actors must be in 1..{MAX_ACTORS}, got {m}")
        if len(self.scene_actors) != n:
            raise ValueError("scene_actors length must equal num_scenes")
        if len(self.durations) != n:
            raise ValueError("durations length must equal num_scenes")
        if len(self.wages) != m:
            raise ValueError("wages length must equal num_actors")
        if any(d < 1 for d in self.durations):
            raise ValueError("every duration must be >= 1")
        if any(w < 0 for w in self.wages):
            raise ValueError("every wage must be >= 0")
        if any(a >> m for a in self.scene_actors):
            raise ValueError("scene actor mask references an actor >= num_actors")
        per_actor = [0] * m
        for j, a in enumerate(self.scene_actors):
            for i in bits(a):
                per_actor[i] |= 1 << j
        object.__setattr__(self, "actor_scenes", tuple(per_actor))

    @classmethod
    def from_rows(
        cls,
        rows: Sequence[Sequence[object]],
        durations: Sequence[int],
        wages: Sequence[int],
        name: str | None = None,
    ) -> "Instance":
        """Build from an m x n requirement matrix (rows are actors; truthy
        cells or 'X' mark required scenes)."""
        m = len(rows)
        n = len(rows[0]) if m else 0
        scene_actors = [0] * n
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ValueError(f"row {i} has length {len(row)}, expected {n}")
            for j, cell in enumerate(row):
                if cell in ("X", "x", 1, True):
                    scene_actors[j] |= 1 << i
        return cls(n, m, tuple(scene_actors), tuple(durations), tuple(wages), name)

    @property
    def all_scenes(self) -> int:
        return (1 << self.num_scenes) - 1

    @property
    def all_actors(self) -> int:
        return (1 << self.num_actors) - 1

    def requires(self, actor: int, scene: int) -> bool:
        return bool(self.scene_actors[scene] >> actor & 1)


# --- operations ------------------------------------------------------------

def actors_of_scenes(inst: Instance, scenes: int) -> int:
    """Union of the actor sets of the scenes in ``scenes``."""
    out = 0
    sa = inst.scene_actors
    for j in bits(scenes):
        out |= sa[j]
    return out


# --- file format ------------------------------------------------------------

def parse_instance(text: str, name: str | None = None) -> Instance:
    """Parse the instance file format; raises InstanceFormatError with the
    offending line number on malformed input."""
    numbered = [
        (no, line.strip())
        for no, line in enumerate(text.splitlines(), start=1)
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if not numbered:
        raise InstanceFormatError(1, "empty instance file")

    head_no, head = numbered[0]
    parts = head.split()
    if len(parts) != 2:
        raise InstanceFormatError(head_no, f"header must be 'n m', got {head!r}")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise InstanceFormatError(head_no, f"header must be two integers, got {head!r}")
    if not 1 <= n <= MAX_SCENES or not 1 <= m <= MAX_ACTORS:
        raise InstanceFormatError(
            head_no, f"n and m must be in 1..{MAX_SCENES}, got n={n} m={m}"
        )
    if len(numbered) != m + 2:
        raise InstanceFormatError(
            numbered[-1][0], f"expected {m + 2} content lines, found {len(numbered)}"
        )

    scene_actors = [0] * n
    wages = []
    for i in range(m):
        line_no, line = numbered[1 + i]
        fields = line.split()
        if len(fields) != 2:
            raise InstanceFormatError(
                line_no, f"actor row must be '<cells> <wage>', got {line!r}"
            )
        cells, wage_text = fields
        if len(cells) != n:
            raise InstanceFormatError(
                line_no, f"row has {len(cells)} cells, expected {n}"
            )
        for j, ch in enumerate(cells):
            if ch == "X":
                scene_actors[j] |= 1 << i
            elif ch != ".":
                raise InstanceFormatError(line_no, f"unknown cell character {ch!r}")
        try:
            wage = int(wage_text)
        except ValueError:
            raise InstanceFormatError(line_no, f"wage must be an integer, got {wage_text!r}")
        if wage < 0:
            raise InstanceFormatError(line_no, f"wage must be >= 0, got {wage}")
        wages.append(wage)

    line_no, line = numbered[m + 1]
    fields = line.split()
    if len(fields) != n:
        raise InstanceFormatError(
            line_no, f"expected {n} durations, got {len(fields)}"
        )
    durations = []
    for f in fields:
        try:
            d = int(f)
        except ValueError:
            raise InstanceFormatError(line_no, f"duration must be an integer, got {f!r}")
        if d < 1:
            raise InstanceFormatError(line_no, f"duration must be >= 1, got {d}")
        durations.append(d)

    return Instance(n, m, tuple(scene_actors), tuple(durations), tuple(wages), name)


def write_instance(inst: Instance) -> str:
    """Serialize to the canonical file format (re-parses to an equal Instance)."""
    lines = [f"{inst.num_scenes} {inst.num_actors}"]
    for i in range(inst.num_actors):
        cells = "".join(
            "X" if inst.requires(i, j) else "." for j in range(inst.num_scenes)
        )
        lines.append(f"{cells} {inst.wages[i]}")
    lines.append(" ".join(str(d) for d in inst.durations))
    return "\n".join(lines) + "\n"


# --- random generation -------------------------------------------------------

def generate_instance(
    num_scenes: int,
    num_actors: int,
    seed: int,
    density: float = 0.3,
    max_duration: int = 5,
    max_wage: int = 50,
    name: str | None = None,
) -> Instance:
    """Deterministic random instance.

    Each cell is required independently with probability ``density``; empty
    scene columns are redrawn so every scene needs at least one actor.
    Durations are uniform in [1, max_duration], wages uniform in [1, max_wage].
    """
    if not 1 <= num_scenes <= MAX_SCENES:
        raise ValueError(f"num_scenes must be in 1..{MAX_SCENES}")
    if not 1 <= num_actors <= MAX_ACTORS:
        raise ValueError(f"num_actors must be in 1..{MAX_ACTORS}")
    if not 0 < density <= 1:
        raise ValueError("density must be in (0, 1]")
    if max_duration < 1 or max_wage < 1:
        raise ValueError("max_duration and max_wage must be >= 1")

    rng = random.Random(seed)
    scene_actors = []
    for _ in range(num_scenes):
        col = 0
        while col == 0:
            col = 0
            for i in range(num_actors):
                if rng.random() < density:
                    col |= 1 << i
        scene_actors.append(col)
    durations = tuple(rng.randint(1, max_duration) for _ in range(num_scenes))
    wages = tuple(rng.randint(1, max_wage) for _ in range(num_actors))
    return Instance(
        num_scenes, num_actors, tuple(scene_actors), durations, wages, name
    )
