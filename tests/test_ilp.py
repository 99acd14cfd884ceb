import random

import pytest

from talentsched import (
    Instance,
    Schedule,
    brute_force,
    build_model,
    export_milp,
    generate_instance,
    total_cost,
    work_cost,
)
from talentsched.testkit import WORKED_BEST_ORDER, fixture_worked_example

from support import (
    build_assignment,
    check_assignment,
    model_variables,
    used_actors,
    validate_assignment,
    z_pairs,
)


def test_variable_counts_follow_index_ranges():
    for n, m in ((2, 1), (5, 3), (12, 6)):
        inst = generate_instance(n, m, seed=n * 10 + m, density=0.5)
        model = build_model(inst)
        assert len(model.binaries) == (n + 1) * n  # one x_i_j per ordered pair
        assert len(z_pairs(model)) == n * n
        required_pairs = sum(a.bit_count() for a in inst.scene_actors)
        by_family = {}
        for c in model.constraints:
            by_family.setdefault(c.name.split("_")[0], []).append(c)
        assert len(by_family["succ"]) == n + 1
        assert len(by_family["pred"]) == n + 1
        assert len(by_family["chain"]) == n
        assert len(by_family["zcapt"]) == n * n
        assert len(by_family["zlink"]) == n * n
        assert len(by_family["zcapx"]) == n * n
        assert len(by_family["estart"]) == required_pairs
        assert len(by_family["lend"]) == required_pairs


def test_two_scene_one_actor_model_shape():
    inst = Instance(2, 1, (1, 1), (5, 1), (30,))
    model = build_model(inst)
    assert len(model.binaries) == 6
    window = [c for c in model.constraints if c.name.startswith(("estart", "lend"))]
    assert len(window) == 4  # two required pairs, two rows each
    text = export_milp(inst)
    assert "Minimize" in text and "Binaries" in text and text.endswith("End\n")


def test_single_scene_cycles_through_dummy():
    inst = Instance(1, 1, (1,), (4,), (7,))
    model = build_model(inst)
    sched = Schedule((0,))
    values = build_assignment(model, sched)
    assert values["x_0_1"] == 1 and values["x_1_0"] == 1
    feasible, objective = validate_assignment(model, sched)
    assert feasible and objective == 28


def test_worked_example_objectives():
    inst = fixture_worked_example()
    model = build_model(inst)
    feasible, objective = validate_assignment(model, Schedule(tuple(range(12))))
    assert feasible and objective == 604
    feasible, objective = validate_assignment(model, Schedule(WORKED_BEST_ORDER))
    assert feasible and objective == 434


def test_dummy_scene_starts_after_the_whole_shoot():
    inst = fixture_worked_example()
    model = build_model(inst)
    values = build_assignment(model, Schedule(tuple(range(12))))
    assert values["t_0"] == sum(inst.durations)


def test_objective_matches_schedule_cost():
    rng = random.Random(79)
    for seed in range(20):
        inst = generate_instance(3 + seed % 8, 2 + seed % 6, seed=1500 + seed, density=0.4)
        model = build_model(inst)
        for _ in range(5):
            order = list(range(inst.num_scenes))
            rng.shuffle(order)
            sched = Schedule(tuple(order))
            feasible, objective = validate_assignment(model, sched)
            assert feasible
            assert objective == total_cost(inst, sched)


def test_actor_without_scenes_is_ignored():
    inst = Instance(2, 2, (1, 1), (2, 3), (5, 9))  # actor 1 appears nowhere
    model = build_model(inst)
    assert used_actors(model) == (0,)
    assert "e_1" not in model_variables(model)
    sched = Schedule((1, 0))
    feasible, objective = validate_assignment(model, sched)
    assert feasible and objective == total_cost(inst, sched)


@pytest.mark.parametrize(
    "tamper, family",
    [
        (lambda v: v.__setitem__("x_0_1", 0), "succ_0"),
        (lambda v: v.__setitem__("t_1", 99), None),
        (lambda v: v.update(z_1_0=999), None),
        (lambda v: v.update(e_0=99), "estart"),
        (lambda v: v.update(l_0=0), "lend"),
    ],
)
def test_tampered_assignments_are_rejected(tamper, family):
    inst = Instance(2, 1, (1, 1), (5, 1), (30,))
    model = build_model(inst)
    values = build_assignment(model, Schedule((0, 1)))
    tamper(values)
    feasible, _, violated = check_assignment(model, values)
    assert not feasible
    if family:
        assert violated.startswith(family)


def test_negative_value_rejected():
    inst = Instance(2, 1, (1, 1), (5, 1), (30,))
    model = build_model(inst)
    values = build_assignment(model, Schedule((0, 1)))
    feasible, _, _ = check_assignment(model, values)
    assert feasible
    values["e_0"] = -1
    feasible, _, violated = check_assignment(model, values)
    assert not feasible


def test_export_runs_on_worked_example():
    text = export_milp(fixture_worked_example())
    assert text.count("succ_") == 13
    assert "obj:" in text
    # every variable family appears
    for fragment in ("x_0_1", "t_0", "e_0", "l_0", "z_1_0"):
        assert fragment in text


def _milp_optimum(model) -> int:
    """The model's optimum by scipy's MILP solver (HiGHS): ``x`` binary,
    ``t``/``e``/``l`` integer, ``z`` continuous, all non-negative."""
    np = pytest.importorskip("numpy")
    optimize = pytest.importorskip("scipy.optimize")
    index = {name: k for k, name in enumerate(model_variables(model))}
    cost = np.zeros(len(index))
    for name, coef in model.objective.items():
        cost[index[name]] = coef
    rows = np.zeros((len(model.constraints), len(index)))
    lower = np.full(len(model.constraints), -np.inf)
    upper = np.full(len(model.constraints), np.inf)
    for r, con in enumerate(model.constraints):
        for name, coef in con.coeffs.items():
            rows[r, index[name]] = coef
        if con.sense != "<=":
            lower[r] = con.rhs
        if con.sense != ">=":
            upper[r] = con.rhs
    integrality = np.zeros(len(index))
    var_upper = np.full(len(index), np.inf)
    for name in model.binaries + model.generals:
        integrality[index[name]] = 1
    for name in model.binaries:
        var_upper[index[name]] = 1
    res = optimize.milp(
        cost,
        constraints=optimize.LinearConstraint(rows, lower, upper),
        integrality=integrality,
        bounds=optimize.Bounds(0, var_upper),
    )
    assert res.success, res.message
    return round(res.fun) + model.objective_constant


def test_milp_optimum_matches_the_oracle():
    # no assignment of the model undercuts the best schedule: a broken
    # chain, a subtour or a late start would.  n = 5 takes about 0.4 s
    # and n = 7 can take minutes, so the draws stay small
    for n, m, seed in ((2, 2, 1), (3, 2, 2), (4, 3, 3), (4, 4, 7), (5, 3, 4), (5, 4, 5)):
        inst = generate_instance(n, m, seed=seed, density=0.45, max_duration=3, max_wage=20)
        expect = brute_force(inst)[0] + work_cost(inst)
        assert _milp_optimum(build_model(inst)) == expect
