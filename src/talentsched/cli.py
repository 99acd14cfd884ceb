"""Command-line front end.

Subcommands: ``solve`` one instance, ``bench`` a sweep over many instances,
``gen`` a random instance, ``export-ilp`` the MILP text, ``oracle`` the
exact minimum by a dynamic program over scene sets, for at most
``BRUTE_FORCE_MAX_SCENES`` scenes.  Exit codes: 0 success/optimal, 1 usage
or input error, 2 time limit hit (incumbent still printed).  An error found
before any work prints one ``error:`` line and raises ``SystemExit(1)``.

Every solver flag takes its default from ``SolveConfig()`` and is checked
by ``SolveConfig``, before any instance is read; ``gen``'s flags take
theirs from ``generate_instance``'s signature.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import inspect
import itertools
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import NoReturn

from .ilp import export_milp
from .instance import Instance, InstanceFormatError, generate_instance, parse_instance, write_instance
from .solver import BRUTE_FORCE_MAX_SCENES, SolveConfig, SolveResult, brute_force, solve


def _cache_bits(cfg: SolveConfig) -> int:
    return cfg.cache_capacity.bit_length() - 1 if cfg.cache_capacity else 0


def _param_columns(cfg: SolveConfig) -> dict:
    """The bench columns that name a solve's settings: one per CSV row,
    and the grouping of ``--summary``."""
    return {
        "cache_bits": _cache_bits(cfg),
        "preprocess": int(cfg.enable_preprocess),
        "rule1": int(cfg.enable_rule1),
        "rule2": int(cfg.enable_rule2),
        "lower": int(cfg.enable_lower),
    }


_DEFAULTS = SolveConfig()
_GROUP_FIELDS = ["n", "m", *_param_columns(_DEFAULTS)]

BENCH_FIELDS = [
    "instance",
    *_GROUP_FIELDS,
    "status",
    "holding_cost",
    "total_cost",
    "subproblems",
    "seconds",
    "cache_hits",
    "cache_collisions",
    "cache_replacements",
]

SUMMARY_FIELDS = [*_GROUP_FIELDS, "instances", "solved", "avg_seconds", "avg_subproblems"]


def _fail(message: str) -> NoReturn:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(1)


def _read_instance(path: str) -> Instance:
    """The instance in file ``path``, or on stdin for ``-``; an unreadable
    or malformed one prints an ``error:`` line and exits with code 1."""
    try:
        if path == "-":
            return parse_instance(sys.stdin.read(), name="stdin")
        return parse_instance(Path(path).read_text(encoding="utf-8"), name=Path(path).stem)
    except (OSError, InstanceFormatError) as exc:
        _fail(str(exc))


def _open_output(stack: contextlib.ExitStack, path: str | None):
    """``path`` opened for writing inside ``stack``, or stdout when there
    is none; an unwritable path prints an ``error:`` line and exits with
    code 1."""
    if not path:
        return sys.stdout
    try:
        return stack.enter_context(open(path, "w", newline="", encoding="utf-8"))
    except OSError as exc:
        _fail(str(exc))


def _write_output(path: str | None, text: str) -> None:
    with contextlib.ExitStack() as stack:
        _open_output(stack, path).write(text)


def _solver_config(cache_bits: int, **settings) -> SolveConfig:
    """The solver config for one set of flag values; a bad value prints an
    ``error:`` line and exits with code 1."""
    if not 0 <= cache_bits <= 30:
        _fail(f"cache bits must be in 0..30, got {cache_bits}")
    try:
        return SolveConfig(cache_capacity=(1 << cache_bits) if cache_bits else 0, **settings)
    except ValueError as exc:
        _fail(str(exc))


def _config_from_args(args) -> SolveConfig:
    return _solver_config(
        args.cache_bits,
        time_limit=args.time_limit,
        enable_preprocess=not args.no_preprocess,
        enable_rule1=not args.no_rule1,
        enable_rule2=not args.no_rule2,
        enable_lower=not args.no_lower,
    )


def result_to_json(
    inst: Instance,
    cfg: SolveConfig,
    result: SolveResult,
    include_trace: bool = False,
) -> dict:
    """Schema-stable JSON payload for one solve; ``time_limit`` is ``None``
    for no limit, since JSON has no infinity."""
    out = {
        "instance": inst.name,
        "n": inst.num_scenes,
        "m": inst.num_actors,
        "status": result.status,
        "holding_cost": result.holding_cost,
        "total_cost": result.total_cost,
        "schedule": list(result.schedule.order),
        "subproblems": result.subproblems,
        "cache": {
            "bits": _cache_bits(cfg),
            "probes": result.cache_stats.probes,
            "hits": result.cache_stats.hits,
            "subset_hits": result.cache_stats.subset_hits,
            "misses": result.cache_stats.misses,
            "collisions": result.cache_stats.collisions,
            "replacements": result.cache_stats.replacements,
        },
        "config": {
            "preprocess": cfg.enable_preprocess,
            "rule1": cfg.enable_rule1,
            "rule2": cfg.enable_rule2,
            "lower": cfg.enable_lower,
            "time_limit": None if cfg.time_limit == math.inf else cfg.time_limit,
        },
        "elapsed": result.elapsed,
    }
    if include_trace:
        out["trace"] = [[t.subproblems, t.holding_cost] for t in result.ub_trace]
    return out


def cmd_solve(args) -> int:
    if args.trace and not args.json:
        _fail("--trace needs --json")
    cfg = _config_from_args(args)
    inst = _read_instance(args.instance)
    result = solve(inst, cfg)
    if args.json:
        payload = result_to_json(inst, cfg, result, include_trace=args.trace)
        print(json.dumps(payload, indent=2))
    else:
        print(f"instance      {inst.name or '-'} ({inst.num_scenes} scenes, {inst.num_actors} actors)")
        print(f"status        {result.status}")
        print(f"holding cost  {result.holding_cost}")
        print(f"total cost    {result.total_cost}")
        print(f"schedule      {' '.join(str(s) for s in result.schedule.order)}")
        print(f"subproblems   {result.subproblems}")
        print(f"elapsed       {result.elapsed:.3f}s")
        st = result.cache_stats
        print(
            f"cache         hits={st.hits} subset_hits={st.subset_hits} misses={st.misses} "
            f"collisions={st.collisions} replacements={st.replacements}"
        )
    return 0 if result.status == "optimal" else 2


def _bench_configs(args) -> list[SolveConfig]:
    """Every solver config of the sweep, all validated before any instance
    is read."""
    try:
        bit_values = [int(b) for b in args.cache_bits.split(",")]
    except ValueError:
        _fail(f"--cache-bits must be comma-separated integers, got {args.cache_bits!r}")
    switches = (True, False) if args.ablate else (True,)
    return [
        _solver_config(
            bits,
            time_limit=args.time_limit,
            enable_preprocess=pre,
            enable_rule1=r1,
            enable_rule2=r2,
            enable_lower=lo,
        )
        for bits in bit_values
        for pre, r1, r2, lo in itertools.product(switches, repeat=4)
    ]


def _bench_one(task):
    inst, cfg = task
    result = solve(inst, cfg)
    return {
        "instance": inst.name,
        "n": inst.num_scenes,
        "m": inst.num_actors,
        **_param_columns(cfg),
        "status": result.status,
        "holding_cost": result.holding_cost,
        "total_cost": result.total_cost,
        "subproblems": result.subproblems,
        "seconds": f"{result.elapsed:.6f}",
        "cache_hits": result.cache_stats.hits,
        "cache_collisions": result.cache_stats.collisions,
        "cache_replacements": result.cache_stats.replacements,
    }


def _collect_instance_files(paths: list[str]) -> list[Path]:
    files: list[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            files.extend(sorted(p.glob("*.txt")))
        else:
            files.append(p)
    return files


def cmd_bench(args) -> int:
    if args.jobs < 1:
        _fail(f"--jobs must be at least 1, got {args.jobs}")
    configs = _bench_configs(args)
    files = _collect_instance_files(args.paths)
    tasks = []
    for path in files:
        try:
            inst = parse_instance(path.read_text(encoding="utf-8"), name=path.stem)
        except (OSError, InstanceFormatError) as exc:
            print(f"warning: skipping {path}: {exc}", file=sys.stderr)
            continue
        for cfg in configs:
            tasks.append((inst, cfg))
    if not tasks:
        _fail("no solvable instances")

    with contextlib.ExitStack() as stack:
        # both outputs are opened before any solve, so a bad path loses no work
        out = _open_output(stack, args.output)
        summary = _open_output(stack, args.summary) if args.summary else None
        workers = min(args.jobs, len(tasks))
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                rows = list(pool.map(_bench_one, tasks, chunksize=1))
        else:
            rows = [_bench_one(t) for t in tasks]
        writer = csv.DictWriter(out, fieldnames=BENCH_FIELDS)
        writer.writeheader()
        writer.writerows(rows)
        if summary is not None:
            _write_summary(rows, summary)
    return 0


def _write_summary(rows: list[dict], fh) -> None:
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        key = tuple(row[f] for f in _GROUP_FIELDS)
        groups.setdefault(key, []).append(row)
    writer = csv.DictWriter(fh, fieldnames=SUMMARY_FIELDS)
    writer.writeheader()
    for key in sorted(groups):
        members = groups[key]
        solved = [r for r in members if r["status"] == "optimal"]
        writer.writerow(
            {
                **dict(zip(_GROUP_FIELDS, key)),
                "instances": len(members),
                "solved": len(solved),
                "avg_seconds": (
                    f"{sum(float(r['seconds']) for r in solved) / len(solved):.6f}"
                    if solved
                    else ""
                ),
                "avg_subproblems": (
                    f"{sum(r['subproblems'] for r in solved) / len(solved):.1f}"
                    if solved
                    else ""
                ),
            }
        )


def cmd_gen(args) -> int:
    try:
        inst = generate_instance(
            args.scenes,
            args.actors,
            args.seed,
            density=args.density,
            max_duration=args.max_duration,
            max_wage=args.max_wage,
        )
    except ValueError as exc:
        _fail(str(exc))
    _write_output(args.output, write_instance(inst))
    return 0


def cmd_export_ilp(args) -> int:
    inst = _read_instance(args.instance)
    _write_output(args.output, export_milp(inst))
    return 0


def cmd_oracle(args) -> int:
    inst = _read_instance(args.instance)
    if inst.num_scenes > BRUTE_FORCE_MAX_SCENES:
        _fail(f"oracle refuses instances with more than {BRUTE_FORCE_MAX_SCENES} scenes")
    holding, sched = brute_force(inst)
    if args.json:
        print(json.dumps({"holding_cost": holding, "schedule": list(sched.order)}))
    else:
        print(f"holding cost  {holding}")
        print(f"schedule      {' '.join(str(s) for s in sched.order)}")
    return 0


def _add_time_limit(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--time-limit",
        type=float,
        default=_DEFAULTS.time_limit,
        metavar="SECONDS",
        help="positive; inf means no limit (default %(default)s)",
    )


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--cache-bits",
        type=int,
        default=_cache_bits(_DEFAULTS),
        help="state cache capacity exponent: at most 2^K states are kept, "
        "memory grows only with those stored (0 disables; default %(default)s)",
    )
    p.add_argument(
        "--no-preprocess",
        action="store_true",
        help="turn off actor dropping and the merging of scenes whose active "
        "actors are equal",
    )
    p.add_argument(
        "--no-rule1",
        action="store_true",
        help="turn off dominance rule 1 and the forcing of the zero-cost scene",
    )
    p.add_argument(
        "--no-rule2", action="store_true", help="turn off dominance rule 2"
    )
    p.add_argument(
        "--no-lower",
        action="store_true",
        help="turn off the pair lower bound (branch by the increment alone)",
    )
    _add_time_limit(p)


class _Parser(argparse.ArgumentParser):
    # exit code 2 is reserved for the time limit; usage problems are code 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="talentsched",
        description="Exact talent scheduling: minimize actor wages over scene orders.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one instance to optimality")
    p.add_argument("instance", help="instance file path, or - for stdin")
    _add_solver_flags(p)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument(
        "--trace", action="store_true", help="include incumbent trace in JSON (needs --json)"
    )
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bench", help="CSV sweep over instances and parameters")
    p.add_argument("paths", nargs="+", help="instance files or directories of *.txt")
    p.add_argument("--cache-bits", default=str(_cache_bits(_DEFAULTS)),
                   help="comma-separated capacity exponents, each capping the cache "
                   "at 2^K states, 0 disables (e.g. 0,10,25; default %(default)s)")
    p.add_argument("--ablate", action="store_true",
                   help="sweep all 16 on/off combinations of the search features")
    p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    _add_time_limit(p)
    p.add_argument("--output", "-o", default=None, help="CSV output path (default stdout)")
    p.add_argument("--summary", default=None,
                   help="also write per-(n,m,parameters) averages to this CSV")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("--scenes", "-n", type=int, required=True)
    p.add_argument("--actors", "-m", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    gen_defaults = inspect.signature(generate_instance).parameters
    p.add_argument("--density", type=float, default=gen_defaults["density"].default,
                   help="chance that a scene needs an actor (default %(default)s)")
    p.add_argument("--max-duration", type=int, default=gen_defaults["max_duration"].default,
                   help="longest scene in days (default %(default)s)")
    p.add_argument("--max-wage", type=int, default=gen_defaults["max_wage"].default,
                   help="highest daily wage (default %(default)s)")
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("export-ilp", help="write the LP-format sequencing model")
    p.add_argument("instance")
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=cmd_export_ilp)

    p = sub.add_parser(
        "oracle",
        help=f"exact minimum by a subset DP, for at most {BRUTE_FORCE_MAX_SCENES} scenes",
    )
    p.add_argument("instance")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
