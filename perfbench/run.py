#!/usr/bin/env python3
"""Benchmark of the exact talent-scheduling solver.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Builds the workload's instances from the seed, solves each once per pass
with ``talentsched.solve()`` in passes until ``--seconds`` have gone (at
least one pass), checks every answer, prints a table and then, as the last line,
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` gives the end-to-end metrics.  ``--trace 1``
gives the per-layer metrics: spans timed here around the package's public
calls, plus one cProfile pass over the solves for self time inside
``solve``.  Every run also writes a per-instance record to
``perfbench/results/``.  README.md beside this file lists the workloads and
metrics.
"""

import argparse
import cProfile
import gc
import json
import os
import pstats
import random
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PINS = BENCH_DIR / "pins.json"
RESULTS = BENCH_DIR / "results"

if not (ROOT / "src" / "talentsched" / "__init__.py").is_file():
    sys.exit(f"perfbench: no talentsched sources under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

SETUP_START = time.perf_counter()  # set-up: importing the package and building the instances
from talentsched import (  # noqa: E402
    SolveConfig,
    StateCache,
    generate_instance,
    greedy_upper_bound,
    holding_cost,
    parse_instance,
    solve,
    work_cost,
    write_instance,
)
from talentsched.testkit import fixture_worked_example  # noqa: E402

SETUP_RUNS = 9  # set-up, cache allocation and span timings: median of this many
GREEDY_RUNS = 3
# node counts in pins.json are pinned for these seeds; pin.py re-pins them all
PINNED_SEEDS = range(32)
# Shared hosts drift in speed by up to 2x for minutes at a time, so every
# end-to-end time is also scaled to a reference host speed: multiplied by
# CAL_REF_S over the time of a fixed pure-Python loop timed around it.
# Between two sets of ten runs this kept the set medians of solve_s within
# 5%, where the wall-clock medians moved by up to 21% (README.md).
# CAL_REF_S is that loop's time on an idle 4th-generation Xeon (KVM guest,
# 2 vCPUs) under CPython 3.11.
CAL_REF_S = 0.004
# generator class of the acceptance sweep (criterion 7)
GEN_CLASS = {"max_duration": 3, "max_wage": 20}


@dataclass(frozen=True)
class Base:
    """A base instance: a generator draw, or the worked example when
    ``gen_seed`` is None."""

    n: int
    m: int
    density: float = 0.35
    gen_seed: int | None = None

    @property
    def name(self) -> str:
        if self.gen_seed is None:
            return "worked-example"
        return f"n{self.n}-m{self.m}-d{self.density}-g{self.gen_seed}"

    def make(self):
        if self.gen_seed is None:
            return fixture_worked_example()
        return generate_instance(
            self.n, self.m, seed=self.gen_seed, density=self.density, **GEN_CLASS
        )


@dataclass(frozen=True)
class Workload:
    name: str
    config: SolveConfig
    bases: tuple[Base, ...]


# One pass over a workload's instances must fit several times into a run,
# so the sweep and wide-cast sets hold three size classes each (the full
# 25-instance criterion-7 sweep takes about 180 s), each with the cheapest
# generator seed tried: 1-5 for sweep; 1-6 at n=16, m=14 and 1-2 otherwise
# for wide-cast.  An odd count keeps the median solve inside one instance's
# samples.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep",
            SolveConfig(cache_capacity=1 << 22),
            (Base(22, 8, 0.35, 1), Base(28, 8, 0.40, 5), Base(40, 8, 0.55, 1)),
        ),
        Workload(
            "wide-cast",
            SolveConfig(cache_capacity=1 << 22),
            (Base(16, 14, 0.30, 3), Base(16, 16, 0.30, 1), Base(17, 15, 0.30, 1)),
        ),
        Workload(
            "many-small",
            SolveConfig(),
            (Base(12, 6),)
            + tuple(
                Base(n, 8, 0.35, g)
                for g, n in enumerate((10, 10, 11, 11, 12, 12, 13, 13, 14), start=1)
            ),
        ),
    )
}


def build_instances(workload: Workload, seed: int, spans=None) -> list:
    """The workload's instances for this seed.

    Each base instance is written out, its actor rows are shuffled by the
    seed, and the text is parsed back.  Relabelling actors leaves every
    optimum unchanged, so one pinned optimum per base instance serves every
    seed, and it moves node counts by well under 1%, so the workload's
    difficulty does not depend on the seed.
    """
    rng = random.Random(f"{workload.name}/{seed}")
    instances = []
    for base in workload.bases:
        t0 = time.perf_counter()
        inst = base.make()
        t1 = time.perf_counter()
        header, *rows, durations = write_instance(inst).splitlines()
        t2 = time.perf_counter()
        rng.shuffle(rows)
        text = "\n".join([header, *rows, durations]) + "\n"
        t3 = time.perf_counter()
        instances.append(parse_instance(text, name=base.name))
        t4 = time.perf_counter()
        if spans is not None:
            spans["generate"] += t1 - t0
            spans["write"] += t2 - t1
            spans["parse"] += t4 - t3
    return instances


def load_pins(workload: Workload, seed: int) -> tuple[dict, dict | None]:
    """Pinned optimum per base instance, and pinned node counts per base
    instance for this seed (None when the seed is not pinned)."""
    pins = json.loads(PINS.read_text(encoding="utf-8"))[workload.name]
    return pins["optimum"], pins["nodes"].get(str(seed))


def check_answer(inst, result, optimum: int, nodes: int | None) -> list[str]:
    """What is wrong with one solve's answer; empty when it checks out."""
    problems = []
    if result.status != "optimal":
        problems.append(f"status {result.status}")
    if sorted(result.schedule.order) != list(range(inst.num_scenes)):
        problems.append("schedule is not a permutation of the scenes")
    elif holding_cost(inst, result.schedule) != result.holding_cost:
        problems.append("schedule does not have the reported holding cost")
    if result.total_cost != result.holding_cost + work_cost(inst):
        problems.append("total cost is not holding cost plus work cost")
    if result.holding_cost != optimum:
        problems.append(f"optimum {result.holding_cost}, pinned {optimum}")
    if nodes is not None and result.subproblems != nodes:
        problems.append(f"{result.subproblems} nodes, pinned {nodes}")
    return problems


def calibrate() -> float:
    """Best of three timings of a fixed loop of integer, bit and dict work,
    the kind of work the solver does."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        x = 0
        table = {}
        for i in range(20000):
            x ^= (i * 2654435761) & 0xFFFF
            table[i & 1023] = x
            x += x.bit_count()
        best = min(best, time.perf_counter() - t0)
    return best


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


@dataclass(frozen=True)
class Timing:
    """One timed solve."""

    wall: float  # seconds around solve()
    search: float  # SolveResult.elapsed: greedy start and search, cache already built
    speed: float  # CAL_REF_S over the calibration time around the solve


@dataclass
class Solves:
    """Outcome of solving a workload's instances in passes."""

    timings: list[list[Timing]]  # per instance, one per solve
    results: list = field(default_factory=list)  # first result per instance
    problems: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    verify_s: float = 0.0

    @property
    def passes(self) -> int:
        return self.attempted // len(self.timings)

    def total(self, what: str = "wall", scaled: bool = True) -> float:
        """Sum over instances of the median seconds per solve of ``what``
        (``wall`` or ``search``), scaled to the reference host speed."""
        return sum(
            statistics.median(getattr(t, what) * (t.speed if scaled else 1.0) for t in ts)
            for ts in self.timings
        )


def run_solves(instances, cfg, pins, seconds: float, profiler=None) -> Solves:
    """Solve every instance once per pass, in passes until ``seconds`` have
    passed (at least one pass), and check every answer outside the timed span.
    Each solve starts from a collected heap, as in a fresh process, and is
    scaled by the mean of the calibrations just before and just after it."""
    optima, pinned_nodes = pins
    out = Solves(timings=[[] for _ in instances])
    stop = time.perf_counter() + seconds
    cal_before = calibrate()
    while True:
        for k, inst in enumerate(instances):
            gc.collect()
            if profiler is not None:
                profiler.enable()
            t0 = time.perf_counter()
            result = solve(inst, cfg)
            t1 = time.perf_counter()
            if profiler is not None:
                profiler.disable()
            cal_after = calibrate()
            out.attempted += 1
            speed = 2 * CAL_REF_S / (cal_before + cal_after)
            out.timings[k].append(Timing(t1 - t0, result.elapsed, speed))
            cal_before = cal_after

            t0 = time.perf_counter()
            pinned = pinned_nodes.get(inst.name) if pinned_nodes else None
            problems = check_answer(inst, result, optima[inst.name], pinned)
            if k == len(out.results):
                out.results.append(result)
            elif result.subproblems != out.results[k].subproblems:
                problems.append("node count changed between repeats")
            out.verify_s += time.perf_counter() - t0
            if problems:
                out.failed += 1
                out.problems.append(f"{inst.name}: {'; '.join(problems)}")
        if time.perf_counter() >= stop:
            return out


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """Highest of p75/p90/p99 with at least ten samples above it."""
    ordered = sorted(samples)
    for p in (99, 90, 75):
        if len(ordered) * (100 - p) / 100 >= 10:
            return p, ordered[min(len(ordered) - 1, len(ordered) * p // 100)]
    return None


def probe(workload: Workload, seed: int, *flags: str) -> list[str]:
    """Words printed by a fresh interpreter running this file with ``flags``."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", workload.name, "--seed", str(seed), *flags],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return proc.stdout.split()


def setup_probe(workload: Workload, seed: int) -> tuple[float, float]:
    """Set-up seconds, wall and scaled, of a fresh interpreter running this
    file's set-up."""
    wall, scaled = probe(workload, seed, "--setup-only")[-2:]
    return float(wall), float(scaled)


def instance_peak_rss(workload: Workload, seed: int, count: int) -> list[float]:
    """Per instance, the peak RSS in MB of a fresh interpreter that builds the
    instances and solves that one once.  A process's peak cannot be reset,
    so each instance needs a process of its own."""
    return [float(probe(workload, seed, "--peak-rss-of", str(k))[-1]) for k in range(count)]


def end_to_end(solves: Solves, setup: list[float]) -> dict:
    """End-to-end metrics from scaled times (``setup`` is scaled too)."""
    nodes = sum(r.subproblems for r in solves.results)
    return {
        "solve_s": (solves.total(), "s"),
        "nodes": (nodes, "count"),
        "nodes_per_s": (nodes / solves.total("search"), "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }


def _profile_times(profiler) -> dict[str, float]:
    """Inclusive seconds per solver function name in the profile (for a
    recursive function, counted once at its outermost call)."""
    out: dict[str, float] = defaultdict(float)
    for (filename, _, func), (_, _, _, cumtime, _) in pstats.Stats(profiler).stats.items():
        if Path(filename).parent.name == "talentsched":
            out[func] += cumtime
    return out


def per_layer(workload: Workload, seed: int, seconds: float, instances, pins):
    """Per-layer metrics, the untraced and traced solves they came from, and
    each instance's own peak RSS."""
    cfg = workload.config
    optima = pins[0]

    builds = []
    for _ in range(SETUP_RUNS):
        spans = defaultdict(float)
        build_instances(workload, seed, spans)
        builds.append(spans)

    alloc = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        cache = StateCache(cfg.cache_capacity, cfg.cache_strategy)
        alloc.append(time.perf_counter() - t0)
        del cache
    tracemalloc.start()
    cache = StateCache(cfg.cache_capacity, cfg.cache_strategy)
    alloc_bytes = tracemalloc.get_traced_memory()[1]
    del cache
    tracemalloc.stop()

    greedy_s = 0.0
    greedy_over = 0
    for inst in instances:
        runs = []
        for _ in range(GREEDY_RUNS):
            t0 = time.perf_counter()
            greedy_h, _ = greedy_upper_bound(inst)
            runs.append(time.perf_counter() - t0)
        greedy_s += statistics.median(runs)
        greedy_over += greedy_h - optima[inst.name]

    t0 = time.perf_counter()
    rss = instance_peak_rss(workload, seed, len(instances))
    # the children's time counts toward the run's measuring time
    plain = run_solves(instances, cfg, pins, seconds - (time.perf_counter() - t0))
    profiler = cProfile.Profile(builtins=False)
    traced = run_solves(instances, cfg, pins, 0, profiler)
    cum = _profile_times(profiler)
    traced_s = traced.total(scaled=False)  # the profile's times are wall times
    kernels = {
        "lower": cum["_branch_lower"],
        "dominance": cum["_dominated"],
        "increment": cum["_increment"],
    }
    cache_s = cum["check_and_update"]
    kernels["search"] = cum["_search"] - sum(kernels.values()) - cache_s

    stats = [r.cache_stats for r in traced.results]
    probes = sum(s.probes for s in stats)
    hits = sum(s.hits for s in stats)
    nodes = sum(r.subproblems for r in traced.results)

    def median_span(name):
        return statistics.median(b[name] for b in builds)

    metrics = {
        "instance.generate_s": (median_span("generate"), "s"),
        "instance.write_s": (median_span("write"), "s"),
        "instance.parse_s": (median_span("parse"), "s"),
        "cache.alloc_s": (statistics.median(alloc), "s"),
        "cache.alloc_mb": (alloc_bytes / 1e6, "MB"),
        "cache.probes": (probes, "count"),
        "cache.hits": (hits, "count"),
        "cache.stores": (sum(s.stores for s in stats), "count"),
        "cache.collisions": (sum(s.collisions for s in stats), "count"),
        "cache.replacements": (sum(s.replacements for s in stats), "count"),
        "cache.hit_ratio": (hits / probes if probes else 0.0, "ratio"),
        "cache.hits_per_node": (hits / nodes, "ratio"),
        "cache.self_s": (cache_s, "s"),
        "cache.self_share": (100 * cache_s / traced_s, "%"),
    }
    for name, seconds_in in kernels.items():
        metrics[f"solver.{name}_self_s"] = (seconds_in, "s")
        metrics[f"solver.{name}_share"] = (100 * seconds_in / traced_s, "%")
    metrics.update({
        "solver.greedy_ub_s": (greedy_s, "s"),
        "solver.greedy_gap": (greedy_over / sum(optima[i.name] for i in instances), "ratio"),
        "solver.incumbents": (sum(len(r.ub_trace) for r in traced.results), "count"),
        "cost.verify_s": (plain.verify_s / plain.passes, "s"),
        "trace.overhead": (traced.total() / plain.total(), "ratio"),
    })
    return metrics, plain, traced, rss


def git_rev() -> str:
    """HEAD of the checkout, or "unknown" when it is not a git repository
    (git is kept from searching the directories above it)."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def write_record(args, workload, instances, solves: Solves, rss, metrics, extra) -> Path:
    """Per-instance detail record of the run, as JSON under results/.
    ``rss`` holds each instance's own peak RSS, or None in untraced runs."""
    cfg = workload.config
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_rev": git_rev(),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "cache_capacity": cfg.cache_capacity,
        "cache_strategy": cfg.cache_strategy,
        "instances": [
            {
                "name": inst.name,
                "n": inst.num_scenes,
                "m": inst.num_actors,
                "optimum": result.holding_cost,
                "nodes": result.subproblems,
                "samples": len(ts),
                "median_s": statistics.median(t.wall for t in ts),
                "min_s": min(t.wall for t in ts),
                "peak_rss_mb": rss[k] if rss else None,
            }
            for k, (inst, result, ts) in enumerate(
                zip(instances, solves.results, solves.timings)
            )
        ],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **extra,
    }
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--peak-rss-of", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    instances = build_instances(workload, args.seed)
    setup_wall = time.perf_counter() - SETUP_START
    setup_scaled = setup_wall * CAL_REF_S / calibrate()
    if args.setup_only:
        print(repr(setup_wall), repr(setup_scaled))
        return 0
    if args.peak_rss_of is not None:
        solve(instances[args.peak_rss_of], workload.config)
        print(repr(peak_rss_mb()))
        return 0
    pins = load_pins(workload, args.seed)

    if args.trace:
        metrics, solves, traced, rss = per_layer(
            workload, args.seed, args.seconds, instances, pins
        )
        attempted = solves.attempted + traced.attempted
        failed = solves.failed + traced.failed
        problems = solves.problems + traced.problems
        extra = {}
    else:
        rss = None
        probes = [setup_probe(workload, args.seed) for _ in range(SETUP_RUNS - 1)]
        solves = run_solves(instances, workload.config, pins, args.seconds)
        metrics = end_to_end(solves, [setup_scaled] + [p[1] for p in probes])
        attempted, failed, problems = solves.attempted, solves.failed, solves.problems
        samples = [t.wall * t.speed for ts in solves.timings for t in ts]
        tail = tail_percentile(samples)
        extra = {
            "failed_frac": failed / attempted,
            "solve_p50_s": statistics.median(samples),
            "solves": len(samples),
            "solve_tail_s": {"percentile": tail[0], "value": tail[1]} if tail else None,
            "host_slowdown": solves.total(scaled=False) / solves.total(),
            "wall": {
                "solve_s": solves.total(scaled=False),
                "search_s": solves.total("search", scaled=False),
                "solve_p50_s": statistics.median(t.wall for ts in solves.timings for t in ts),
                "setup_s": statistics.median([setup_wall] + [p[0] for p in probes]),
            },
        }

    record = write_record(args, workload, instances, solves, rss, metrics, {
        **extra, "nodes_pinned": pins[1] is not None, "problems": problems,
    })
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"cache {workload.config.cache_capacity} slots  {len(instances)} instances  "
          f"{solves.passes} passes")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<24} {value:>14.6g} {unit}")
    if not args.trace:
        print(f"  {'solve_p50_s':<24} {extra['solve_p50_s']:>14.6g} s  "
              f"(over {extra['solves']} solves)")
        if tail:
            print(f"  solve_p{tail[0]}_s{'':<17} {tail[1]:>14.6g} s")
        print(f"  {'failed_frac':<24} {extra['failed_frac']:>14.6g} ratio")
        print("  times above are scaled to the reference host speed; wall-clock: "
              + ", ".join(f"{k} {v:.6g} s" for k, v in extra["wall"].items())
              + f" (host {extra['host_slowdown']:.3f}x slower than reference)")
    if pins[1] is None:
        print(f"  seed {args.seed} is outside the pinned seeds {PINNED_SEEDS.start}-"
              f"{PINNED_SEEDS.stop - 1}: node counts are checked only between repeats")
    for line in problems[:20]:
        print(f"  FAILED {line}")
    print(f"  record: {record.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
