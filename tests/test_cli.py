import csv
import inspect
import json
import re

import pytest


from talentsched import (
    Schedule,
    SolveConfig,
    brute_force,
    cli,
    generate_instance,
    holding_cost,
    parse_instance,
    solver,
    write_instance,
)
from talentsched.cli import BENCH_FIELDS, build_parser, main
from talentsched.solver import BRUTE_FORCE_MAX_SCENES
from talentsched.testkit import fixture_worked_example

FAST_FLAGS = ["--cache-bits", "10", "--time-limit", "60"]


def _read_csv(path):
    with path.open() as fh:
        return list(csv.DictReader(fh))


def _write_instances(tmp_path, count=4, scenes=6, actors=4):
    paths = []
    for seed in range(count):
        inst = generate_instance(scenes, actors, seed=seed, density=0.5)
        p = tmp_path / f"inst{seed}.txt"
        p.write_text(write_instance(inst), encoding="utf-8")
        paths.append(p)
    return paths


def test_solve_json_worked_example(tmp_path, capsys):
    path = tmp_path / "t1.txt"
    path.write_text(write_instance(fixture_worked_example()), encoding="utf-8")
    code = main(["solve", str(path), "--json", *FAST_FLAGS])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["status"] == "optimal"
    assert out["holding_cost"] == 53
    assert out["total_cost"] == 434
    assert out["n"] == 12 and out["m"] == 6
    assert sorted(out["schedule"]) == list(range(12))
    assert set(out["cache"]) == {
        "bits", "probes", "hits", "subset_hits", "misses", "collisions", "replacements",
    }
    assert 0 < out["cache"]["subset_hits"] <= out["cache"]["hits"]


def test_solve_human_output(tmp_path, capsys):
    path = tmp_path / "t1.txt"
    path.write_text(write_instance(fixture_worked_example()), encoding="utf-8")
    code = main(["solve", str(path), *FAST_FLAGS])
    text = capsys.readouterr().out
    assert code == 0
    assert "holding cost  53" in text
    assert "total cost    434" in text
    assert re.search(r"^cache +hits=\d+ subset_hits=\d+ misses=\d+ ", text, re.M)


def _exit_code(argv) -> int:
    """The code ``main(argv)`` exits with when it fails before any work."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code


def test_solve_bad_file_exits_1(tmp_path, capsys):
    path = tmp_path / "broken.txt"
    path.write_text("not an instance\n", encoding="utf-8")
    assert _exit_code(["solve", str(path)]) == 1
    assert capsys.readouterr().err == (
        "error: line 1: header must be 'n m', got 'not an instance'\n"
    )


def test_solve_missing_file_exits_1(tmp_path, capsys):
    assert _exit_code(["solve", str(tmp_path / "nope.txt")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_solve_json_trace_lists_each_incumbent(tmp_path, capsys):
    path = tmp_path / "t1.txt"
    path.write_text(write_instance(fixture_worked_example()), encoding="utf-8")
    assert main(["solve", str(path), "--json", "--trace", *FAST_FLAGS]) == 0
    out = json.loads(capsys.readouterr().out)
    costs = [cost for _, cost in out["trace"]]
    assert costs and costs[-1] == out["holding_cost"] == 53
    assert costs == sorted(set(costs), reverse=True)  # each incumbent is cheaper


def test_solve_trace_without_json_exits_1_before_reading(tmp_path, capsys):
    # the trace goes only into the JSON payload, so the flag alone is refused
    # before the (missing) instance file is opened
    assert _exit_code(["solve", str(tmp_path / "nope.txt"), "--trace"]) == 1
    assert capsys.readouterr().err == "error: --trace needs --json\n"


def test_solve_time_limit_exits_2(tmp_path, capsys):
    inst = generate_instance(30, 8, seed=4, density=0.3, max_duration=3)
    path = tmp_path / "big.txt"
    path.write_text(write_instance(inst), encoding="utf-8")
    code = main(
        ["solve", str(path), "--json", "--cache-bits", "10", "--time-limit", "0.05"]
    )
    out = json.loads(capsys.readouterr().out)
    assert code == 2
    assert out["status"] == "time_limit"
    assert sorted(out["schedule"]) == list(range(30))  # incumbent still printed


def test_solve_ablation_flags_agree(tmp_path, capsys):
    inst = generate_instance(7, 5, seed=11, density=0.45)
    path = tmp_path / "small.txt"
    path.write_text(write_instance(inst), encoding="utf-8")
    expect = brute_force(inst)[0]
    for flags in (
        [],
        ["--no-rule1", "--no-rule2", "--cache-bits", "0"],
        ["--no-preprocess", "--no-lower"],
    ):
        code = main(["solve", str(path), "--json", "--time-limit", "30", *flags])
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["holding_cost"] == expect


def test_solver_flag_defaults_are_solve_configs():
    args = build_parser().parse_args(["solve", "x.txt"])
    assert cli._config_from_args(args) == SolveConfig()
    args = build_parser().parse_args(["bench", "x.txt"])
    assert cli._bench_configs(args) == [SolveConfig()]


def test_switch_flags_say_what_they_turn_off(capsys, monkeypatch):
    # wide enough that no help line wraps
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit):
        build_parser().parse_args(["solve", "--help"])
    lines = capsys.readouterr().out.splitlines()
    for flag, names in (
        ("--no-preprocess", "merging"),
        ("--no-rule1", "zero-cost scene"),
        ("--no-rule2", "rule 2"),
        ("--no-lower", "lower bound"),
    ):
        (line,) = [line for line in lines if line.split()[:1] == [flag]]
        assert names in line, flag


def test_gen_flag_defaults_are_generate_instances(capsys):
    args = build_parser().parse_args(["gen", "-n", "9", "-m", "5"])
    params = inspect.signature(generate_instance).parameters
    for flag in ("density", "max_duration", "max_wage"):
        assert getattr(args, flag) == params[flag].default, flag
    assert main(["gen", "-n", "9", "-m", "5"]) == 0
    assert capsys.readouterr().out == write_instance(generate_instance(9, 5, seed=0))


def test_cache_bits_environment_variable_is_ignored(tmp_path, capsys, monkeypatch):
    (path,) = _write_instances(tmp_path, count=1)
    monkeypatch.setenv("TALENTSCHED_CACHE_BITS", "x")
    assert main(["solve", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["cache"]["bits"] == 25


def test_json_writes_no_time_limit_as_null(tmp_path, capsys):
    (path,) = _write_instances(tmp_path, count=1)

    def refuse(name):
        raise ValueError(f"not JSON: {name}")

    assert main(["solve", str(path), "--json", "--time-limit", "inf"]) == 0
    out = json.loads(capsys.readouterr().out, parse_constant=refuse)
    assert out["config"]["time_limit"] is None
    assert main(["solve", str(path), "--json", "--time-limit", "2.5"]) == 0
    out = json.loads(capsys.readouterr().out, parse_constant=refuse)
    assert out["config"]["time_limit"] == 2.5


def test_json_deterministic_excluding_elapsed(tmp_path, capsys):
    inst = generate_instance(10, 6, seed=3, density=0.4)
    path = tmp_path / "d.txt"
    path.write_text(write_instance(inst), encoding="utf-8")
    payloads = []
    for _ in range(2):
        main(["solve", str(path), "--json", *FAST_FLAGS])
        data = json.loads(capsys.readouterr().out)
        data.pop("elapsed")
        payloads.append(json.dumps(data, sort_keys=True))
    assert payloads[0] == payloads[1]


def test_gen_deterministic_and_parsable(tmp_path, capsys):
    args = ["gen", "-n", "9", "-m", "5", "--seed", "42", "--density", "0.4"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    inst = parse_instance(first)
    assert inst.num_scenes == 9 and inst.num_actors == 5
    out = tmp_path / "g.txt"
    assert main([*args, "-o", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == first


def test_gen_rejects_bad_arguments(capsys):
    assert _exit_code(["gen", "-n", "0", "-m", "3"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_usage_errors_exit_1(capsys):
    for argv in (["solve"], ["gen", "-n", "banana", "-m", "3"], ["nope"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["solve", "x.txt", "--cache-bits", "60"])
    assert exc.value.code == 1


def test_export_ilp(tmp_path, capsys):
    inst = generate_instance(1, 1, seed=1, density=1.0)
    path = tmp_path / "one.txt"
    path.write_text(write_instance(inst), encoding="utf-8")
    out = tmp_path / "model.lp"
    assert main(["export-ilp", str(path), "-o", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert text.startswith("\\") and text.endswith("End\n")


def test_oracle_agrees_with_api(tmp_path, capsys):
    inst = generate_instance(6, 4, seed=5, density=0.5)
    path = tmp_path / "o.txt"
    path.write_text(write_instance(inst), encoding="utf-8")
    assert main(["oracle", str(path), "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    holding, sched = brute_force(inst)
    assert out["holding_cost"] == holding
    assert tuple(out["schedule"]) == sched.order


@pytest.mark.parametrize("n", [11, BRUTE_FORCE_MAX_SCENES])
def test_oracle_answers_up_to_its_cap(tmp_path, capsys, n):
    inst = generate_instance(n, 6, seed=n, density=0.4, max_duration=3, max_wage=20)
    path = tmp_path / "o.txt"
    path.write_text(write_instance(inst), encoding="utf-8")
    assert main(["oracle", str(path), "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert holding_cost(inst, Schedule(tuple(out["schedule"]))) == out["holding_cost"]


def test_oracle_refuses_large_instances(tmp_path, capsys, monkeypatch):
    def unreachable(*args):
        raise AssertionError("the oracle ran past its cap")

    monkeypatch.setattr(solver, "_order_dp", unreachable)
    inst = generate_instance(BRUTE_FORCE_MAX_SCENES + 1, 4, seed=5, density=0.5)
    path = tmp_path / "big.txt"
    path.write_text(write_instance(inst), encoding="utf-8")
    assert _exit_code(["oracle", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error: oracle refuses instances with more than {BRUTE_FORCE_MAX_SCENES} scenes\n"
    )


def test_bench_row_grid(tmp_path):
    _write_instances(tmp_path, count=3)
    out = tmp_path / "rows.csv"
    code = main(
        [
            "bench", str(tmp_path),
            "--cache-bits", "0,10",
            "--time-limit", "30",
            "-o", str(out),
        ]
    )
    assert code == 0
    rows = _read_csv(out)
    assert len(rows) == 3 * 2
    assert list(rows[0].keys()) == BENCH_FIELDS
    by_inst = {}
    for row in rows:
        by_inst.setdefault(row["instance"], set()).add(row["holding_cost"])
    assert all(len(vals) == 1 for vals in by_inst.values())


def test_bench_skips_unreadable_and_fails_when_empty(tmp_path, capsys):
    good = _write_instances(tmp_path, count=1)[0]
    bad = tmp_path / "bad.txt"
    bad.write_text("garbage\n", encoding="utf-8")
    out = tmp_path / "rows.csv"
    code = main(["bench", str(good), str(bad), "--cache-bits", "8", "-o", str(out)])
    assert code == 0
    assert "skipping" in capsys.readouterr().err
    assert len(_read_csv(out)) == 1

    only_bad = tmp_path / "solo"
    only_bad.mkdir()
    (only_bad / "nope.txt").write_text("garbage\n", encoding="utf-8")
    assert _exit_code(["bench", str(only_bad), "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == "error: no solvable instances"


def test_bench_parallel_matches_serial(tmp_path):
    _write_instances(tmp_path, count=4, scenes=5)
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    flags = ["--cache-bits", "8", "--time-limit", "30"]
    assert main(["bench", str(tmp_path), *flags, "-o", str(serial)]) == 0
    assert main(["bench", str(tmp_path), *flags, "--jobs", "3", "-o", str(parallel)]) == 0
    a = serial.read_text(encoding="utf-8").splitlines()
    b = parallel.read_text(encoding="utf-8").splitlines()
    # identical apart from wall-clock columns
    strip = lambda lines: [
        ",".join(v for k, v in zip(BENCH_FIELDS, line.split(",")) if k != "seconds")
        for line in lines[1:]
    ]
    assert strip(a) == strip(b)


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--time-limit", "0"],
        ["solve", "--time-limit", "nan"],
        ["bench", "--time-limit", "-1"],
        ["bench", "--cache-bits", "4,x"],
        ["bench", "--jobs", "0"],
        ["bench", "--jobs", "-3"],
    ],
    ids=[
        "solve-time-limit",
        "solve-time-limit-nan",
        "bench-time-limit",
        "bench-cache-bits",
        "bench-jobs-zero",
        "bench-jobs-negative",
    ],
)
def test_bad_solver_flags_exit_1_before_solving(tmp_path, capsys, monkeypatch, argv):
    (path,) = _write_instances(tmp_path, count=1)

    def no_solve(*args):
        raise AssertionError("solved despite a bad flag")

    monkeypatch.setattr(cli, "solve", no_solve)
    with pytest.raises(SystemExit) as exc:
        main([argv[0], str(path), *argv[1:]])
    assert exc.value.code == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [["solve", "--cache-strategy", "greedy"], ["bench", "--strategies", "greedy"]],
    ids=["solve-cache-strategy", "bench-strategies"],
)
def test_cache_policy_flags_are_unknown(tmp_path, capsys, argv):
    # the cache has one collision policy, so no flag names one
    (path,) = _write_instances(tmp_path, count=1)
    assert _exit_code([argv[0], str(path), *argv[1:]]) == 1
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err


def test_branch_order_flag_is_unknown(tmp_path, capsys):
    # the search has one branch order, so no flag names one
    (path,) = _write_instances(tmp_path, count=1)
    assert _exit_code(["solve", str(path), "--branch-order", "id"]) == 1
    assert "unrecognized arguments: --branch-order id" in capsys.readouterr().err


def test_bench_starts_no_more_workers_than_tasks(tmp_path, monkeypatch):
    _write_instances(tmp_path, count=2, scenes=5)
    asked = []

    class RecordingPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    out = tmp_path / "rows.csv"
    assert main(["bench", str(tmp_path), "--cache-bits", "8", "--jobs", "8", "-o", str(out)]) == 0
    assert asked == [2]
    assert len(_read_csv(out)) == 2


def test_bench_summary(tmp_path):
    _write_instances(tmp_path, count=3)
    rows = tmp_path / "rows.csv"
    summary = tmp_path / "summary.csv"
    code = main(
        [
            "bench", str(tmp_path),
            "--cache-bits", "8",
            "-o", str(rows),
            "--summary", str(summary),
        ]
    )
    assert code == 0
    table = _read_csv(summary)
    assert len(table) == 1  # one (n, m, parameter) group
    assert table[0]["instances"] == "3"
    assert table[0]["solved"] == "3"
    assert float(table[0]["avg_subproblems"]) > 0


def test_bench_summary_groups_sort_by_value(tmp_path):
    for n in (16, 8):
        inst = generate_instance(n, 4, seed=n, density=0.5)
        (tmp_path / f"n{n}.txt").write_text(write_instance(inst), encoding="utf-8")
    rows = tmp_path / "rows.csv"
    summary = tmp_path / "summary.csv"
    assert main(
        ["bench", str(tmp_path), "--cache-bits", "10", "-o", str(rows), "--summary", str(summary)]
    ) == 0
    assert [r["n"] for r in _read_csv(summary)] == ["8", "16"]


@pytest.mark.parametrize(
    "flags",
    [["-o", "{bad}"], ["-o", "{good}", "--summary", "{bad}"], ["--summary", "{bad}"]],
    ids=["output", "summary", "summary-to-stdout"],
)
def test_bench_unwritable_output_exits_1_before_solving(tmp_path, capsys, monkeypatch, flags):
    _write_instances(tmp_path, count=1)

    def no_solve(*args):
        raise AssertionError("solved although an output cannot be written")

    monkeypatch.setattr(cli, "solve", no_solve)
    paths = {"bad": str(tmp_path / "missing" / "out.csv"), "good": str(tmp_path / "rows.csv")}
    argv = ["bench", str(tmp_path), "--ablate", *(f.format(**paths) for f in flags)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "missing" in err


@pytest.mark.parametrize("command", ["gen", "export-ilp"])
def test_unwritable_output_exits_1(tmp_path, capsys, command):
    (path,) = _write_instances(tmp_path, count=1)
    args = ["-n", "4", "-m", "3"] if command == "gen" else [str(path)]
    with pytest.raises(SystemExit) as exc:
        main([command, *args, "-o", str(tmp_path / "missing" / "out.txt")])
    assert exc.value.code == 1
    assert capsys.readouterr().err.startswith("error: ")
