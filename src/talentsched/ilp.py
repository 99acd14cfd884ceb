"""Mixed-integer linear model of the problem, exported as LP-format text.

Variables (model scene indices run 0..n where 0 is a dummy scene closing
the tour; file scene k, 0-based, is model index k+1; actors keep 0-based
indices):

* ``x_i_j``  binary, scene j shot immediately after scene i
* ``t_j``    integer start day of scene j (first real scene starts at 0)
* ``e_i`` / ``l_i``  integer first/last shooting day needing actor i
* ``z_i_j``  linearization product t_j * x_i_j  (continuous)

Constraint families: one successor and one predecessor per scene; the
linearized chaining sum(z_i_*) = t_i + d_i; the four z envelope rows per
(i, j); and e_i <= t_j, t_j + d_j - 1 <= l_i for every required pair.
Actors required by no scene are left out of the objective entirely.

The objective sum c_i (l_i - e_i + 1) carries its constant term in the
LP file, matching the combinatorial total cost exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .instance import Instance, bits


@dataclass(frozen=True)
class Constraint:
    name: str
    coeffs: dict[str, int]
    sense: str  # "<=", ">=", "="
    rhs: int


@dataclass(frozen=True)
class MilpModel:
    inst: Instance
    objective: dict[str, int]
    objective_constant: int
    constraints: tuple[Constraint, ...]
    binaries: tuple[str, ...]
    generals: tuple[str, ...]


def build_model(inst: Instance) -> MilpModel:
    n = inst.num_scenes
    dur = {j + 1: inst.durations[j] for j in range(n)}
    big_l = sum(inst.durations)
    used = tuple(i for i in range(inst.num_actors) if inst.actor_scenes[i])

    x_pairs = tuple(
        (i, j) for i in range(n + 1) for j in range(n + 1) if i != j
    )
    z_pairs = tuple(
        (i, j) for i in range(1, n + 1) for j in range(n + 1) if i != j
    )

    objective = {}
    constant = 0
    for i in used:
        objective[f"l_{i}"] = inst.wages[i]
        objective[f"e_{i}"] = -inst.wages[i]
        constant += inst.wages[i]

    cons: list[Constraint] = []
    for i in range(n + 1):
        cons.append(
            Constraint(
                f"succ_{i}",
                {f"x_{i}_{j}": 1 for j in range(n + 1) if j != i},
                "=",
                1,
            )
        )
    for j in range(n + 1):
        cons.append(
            Constraint(
                f"pred_{j}",
                {f"x_{i}_{j}": 1 for i in range(n + 1) if i != j},
                "=",
                1,
            )
        )
    for i in range(1, n + 1):
        coeffs = {f"z_{i}_{j}": 1 for j in range(n + 1) if j != i}
        coeffs[f"t_{i}"] = -1
        cons.append(Constraint(f"chain_{i}", coeffs, "=", dur[i]))
    for i, j in z_pairs:
        zv, tv, xv = f"z_{i}_{j}", f"t_{j}", f"x_{i}_{j}"
        cons.append(Constraint(f"zcapt_{i}_{j}", {zv: 1, tv: -1}, "<=", 0))
        cons.append(
            Constraint(f"zlink_{i}_{j}", {zv: 1, tv: -1, xv: -big_l}, ">=", -big_l)
        )
        cons.append(Constraint(f"zcapx_{i}_{j}", {zv: 1, xv: -big_l}, "<=", 0))
    for i in used:
        for j0 in bits(inst.actor_scenes[i]):
            j = j0 + 1
            cons.append(
                Constraint(f"estart_{i}_{j}", {f"e_{i}": 1, f"t_{j}": -1}, "<=", 0)
            )
            cons.append(
                Constraint(
                    f"lend_{i}_{j}", {f"t_{j}": 1, f"l_{i}": -1}, "<=", 1 - dur[j]
                )
            )

    binaries = tuple(f"x_{i}_{j}" for i, j in x_pairs)
    generals = (
        tuple(f"t_{j}" for j in range(n + 1))
        + tuple(f"e_{i}" for i in used)
        + tuple(f"l_{i}" for i in used)
    )
    return MilpModel(
        inst=inst,
        objective=objective,
        objective_constant=constant,
        constraints=tuple(cons),
        binaries=binaries,
        generals=generals,
    )


def _render_terms(coeffs: dict[str, int]) -> str:
    parts = []
    for var, coef in coeffs.items():
        if coef == 0:
            continue
        sign = "-" if coef < 0 else "+"
        mag = abs(coef)
        term = var if mag == 1 else f"{mag} {var}"
        if not parts:
            parts.append(term if coef > 0 else f"- {term}")
        else:
            parts.append(f"{sign} {term}")
    return " ".join(parts) if parts else "0"


def _render_model(model: MilpModel) -> str:
    inst = model.inst
    lines = [
        f"\\ talent scheduling MILP: {inst.num_scenes} scenes, {inst.num_actors} actors",
        "\\ scene index 0 is the tour-closing dummy; file scene k is index k+1",
        "Minimize",
    ]
    obj = _render_terms(model.objective)
    if model.objective_constant:
        obj += f" + {model.objective_constant}"
    lines.append(f" obj: {obj}")
    lines.append("Subject To")
    for c in model.constraints:
        lines.append(f" {c.name}: {_render_terms(c.coeffs)} {c.sense} {c.rhs}")
    lines.append("Generals")
    lines.append(" " + " ".join(model.generals))
    lines.append("Binaries")
    lines.append(" " + " ".join(model.binaries))
    lines.append("End")
    return "\n".join(lines) + "\n"


def export_milp(inst: Instance) -> str:
    """LP-format text of the instance's sequencing model."""
    return _render_model(build_model(inst))

