"""Smoke test of the benchmark's own code: one small instance per workload,
built and solved the way the workload does it, then put through the answer
check.

    python3 -m pytest perfbench -q
"""

import dataclasses
import shutil
import subprocess
import sys

import pytest

import run
from talentsched import Schedule, brute_force, solve


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_small_instance_passes_answer_check(name):
    workload = run.WORKLOADS[name]
    last = workload.bases[-1]
    base = run.Base(8, last.m, last.density, 1)
    optimum = brute_force(base.make())[0]
    (inst,) = run.build_instances(dataclasses.replace(workload, bases=(base,)), seed=7)
    result = solve(inst, workload.config)
    assert run.check_answer(inst, result, optimum, result.subproblems) == []

    wrong = [
        dataclasses.replace(result, status="time_limit"),
        dataclasses.replace(result, schedule=Schedule(result.schedule.order[1:])),
        dataclasses.replace(result, holding_cost=result.holding_cost + 1),
        dataclasses.replace(result, total_cost=result.total_cost + 1),
    ]
    for bad in wrong:
        assert run.check_answer(inst, bad, optimum, None)
    assert run.check_answer(inst, result, optimum + 1, None)
    assert run.check_answer(inst, result, optimum, result.subproblems + 1)


def test_relabelling_is_seeded_and_keeps_the_instance():
    workload = run.WORKLOADS["many-small"]
    first = run.build_instances(workload, seed=3)
    assert first == run.build_instances(workload, seed=3)
    other = run.build_instances(workload, seed=4)
    assert first != other
    for a, b in zip(first, other):
        assert sorted(a.wages) == sorted(b.wages)
        assert a.durations == b.durations


def test_every_base_instance_is_pinned_for_every_pinned_seed():
    for workload in run.WORKLOADS.values():
        names = {b.name for b in workload.bases}
        for seed in run.PINNED_SEEDS:
            optima, nodes = run.load_pins(workload, seed)
            assert names == set(optima) == set(nodes)


def test_fails_without_the_package(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
