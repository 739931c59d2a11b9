"""Benchmark harness for planetrees (standard library only).

    python3 benchmarks/run.py --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the package is imported from ``src/`` beside this
directory.  Set-up imports the package afresh, generates the
workload's seeded instances and writes them under ``.bench_work/``; it
is repeated SETUP_REPEATS times and ``setup_s`` is the median.  The
timed loop is one caller in a closed loop, the next operation sent when
the previous returns, making passes over the instances until
``--seconds`` have elapsed and MIN_PASSES whole passes are done; each
instance's latency is its mean time over the run after the first
pass.  Every answer is then checked by ``check.py``.  The last line of
standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics untraced, the per-layer metrics with ``--trace 1``).  See
README.md in this directory.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

SETUP_REPEATS = 3  # each re-import keeps about 0.5 MB, so the count is fixed
MIN_PASSES = 3
DEFAULT_SEED = 1
DEFAULT_SECONDS = 45
MODULES = (
    "cli", "core", "formats", "generators", "cylindrical", "book", "straightline", "monotone", "search",
)
LAYERS = ("cylindrical", "book", "straightline")


def import_package() -> SimpleNamespace:
    """Import planetrees afresh from src/, so each set-up pays the import."""
    for name in [m for m in sys.modules if m == "planetrees" or m.startswith("planetrees.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"planetrees.{m}") for m in MODULES})


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: host speed, shown beside the results."""
    start = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def set_up(wl, seed: int, workdir: Path, tr: Tracer, counts: Counter):
    start = time.perf_counter()
    pt = import_package()
    instances = wl.build(pt, seed, str(workdir), tr, counts)
    for inst in instances:
        with open(inst.path, "w", encoding="ascii") as fh:
            fh.write(inst.text)
    return time.perf_counter() - start, pt, instances


def timed_loop(wl, pt, instances, seconds: float, tr: Tracer, trace: bool):
    """Passes over the instances until ``seconds`` elapse, with at least
    MIN_PASSES whole passes; the last pass stops at the deadline.
    ``samples[i]`` holds instance i's (traced, seconds) pairs.  With
    tracing, the first pass is untraced and warms caches; later passes
    alternate traced and untraced, so the tracing overhead is measured
    within one run."""
    samples = [[] for _ in instances]
    results = []
    deadline = time.perf_counter() + seconds
    passes = 0
    while True:
        traced = trace and passes % 2 == 1
        tr.enabled = traced
        for i, inst in enumerate(instances):
            if passes >= MIN_PASSES and time.perf_counter() >= deadline:
                return samples, results, passes
            tr.op = len(results)
            t0 = time.perf_counter()
            try:
                result = wl.op(pt, inst, tr)
            except Exception as exc:  # a crash is a failed operation, not a dead run
                result = ("exception", repr(exc))
            samples[i].append((traced, time.perf_counter() - t0))
            results.append((i, result))
        passes += 1


def count_failures(wl, instances, results) -> tuple[int, list[str]]:
    verdicts: dict = {}
    failed, examples = 0, []
    for i, result in results:
        key = (i, result)
        if key not in verdicts:
            if result[0] == "exception":
                verdicts[key] = [f"raised {result[1]}"]
            else:
                verdicts[key] = wl.problems(instances[i], result)
        if verdicts[key]:
            failed += 1
            if len(examples) < 5:
                examples.append(f"{instances[i].key}: {verdicts[key][0]}")
    return failed, examples


def mean_latencies(samples) -> list[float]:
    """Each instance's mean time over the run, the first pass left out
    as warm-up.

    The host's speed drifts by up to half again over tens of seconds
    to minutes.  A best-of-passes time flips between runs that caught
    a fast phase and runs that did not; the mean over the whole run
    averages the drift.  The latency metrics are percentiles over
    instances of these times, and ``ops_per_s`` is instances per second
    of their sum.
    """
    return [statistics.fmean(t for _, t in row[1:]) for row in samples]


def end_to_end(setups, latencies) -> dict:
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return {
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "latency_p50_ms": (deciles[4] * 1e3, "ms"),
        "latency_p90_ms": (deciles[8] * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }


def tracing_overhead(samples) -> float:
    """Best traced over best untraced time, summed over instances, minus 1.

    The first pass warms caches and is left out.
    """
    best = {True: 0.0, False: 0.0}
    for row in samples:
        for traced in (True, False):
            best[traced] += min(t for was_traced, t in row[1:] if was_traced is traced)
    return best[True] / best[False] - 1.0


def cli_replayed(tr: Tracer, probe_ops: range) -> float:
    """Seconds of the parse, solve and verify replays of the probe
    operations that went through ``cli.main``."""
    cli_ops = {op for name, op, *_ in tr.spans if name == "cli.main" and op in probe_ops}
    return sum(
        end - start
        for name, op, _, start, end in tr.spans
        if op in cli_ops and (name in ("formats.parse", "search.verify") or name.endswith(".solve"))
    )


def per_layer(tr: Tracer, counts: Counter, probe_ops: range, overhead: float) -> dict:
    """Layer times and counts of one pass over the instances: set-up and
    the probe pass."""
    totals = tr.totals(probe_ops)

    def t(name: str) -> float:
        return totals.get(name, 0.0)

    cli_main = t("cli.main")
    m = {
        "generators.gen_s": (t("generators"), "s"),
        "formats.parse_s": (t("formats.parse"), "s"),
        "formats.parse_bytes": (counts["formats.parse_bytes"], "bytes"),
    }
    for layer in LAYERS:
        solve = t(f"{layer}.solve")
        m[f"{layer}.compile_s"] = (t(f"{layer}.compile"), "s")
        m[f"{layer}.solve_s"] = (solve, "s")
        m[f"{layer}.solve_self_s"] = (solve - t(f"{layer}.compile") if solve else 0.0, "s")
    for name in ("cylindrical.sweep_rounds", "cylindrical.reduced_ops", "book.peeled_vertices"):
        m[name] = (counts[name], "count")
    for layer in LAYERS:
        m[f"compile.crossings.{layer}"] = (counts[f"compile.crossings.{layer}"], "count")
    calls = counts["search.find_plane_tree_calls"]
    verify_s = t("search.verify")
    m.update({
        "monotone.solve_s": (t("monotone.solve"), "s"),
        "monotone.groups": (counts["monotone.groups"], "count"),
        "core.induced_subdrawing_s": (t("core.induced_subdrawing"), "s"),
        "core.certify_s": (t("core.certify"), "s"),
        "core.certify_calls": (counts["core.certify_calls"], "count"),
        "search.find_plane_tree_s": (t("search.find_plane_tree"), "s"),
        "search.find_plane_tree_calls": (calls, "count"),
        "search.find_hit_ratio": (counts["search.find_plane_tree_hits"] / calls if calls else 0.0, "ratio"),
        "search.verify_s": (verify_s, "s"),
        "search.colorings_checked": (counts["search.colorings_checked"], "count"),
        "search.colorings_per_s": (counts["search.colorings_checked"] / verify_s if verify_s else 0.0, "1/s"),
        "search.plane_trees": (counts["search.plane_trees"], "count"),
        "search.plane_tree_ratio": (
            counts["search.plane_trees"] / counts["search.tree_space"] if counts["search.tree_space"] else 0.0,
            "ratio",
        ),
        "cli.main_s": (cli_main, "s"),
        "cli.self_s": (cli_main - cli_replayed(tr, probe_ops), "s"),
        "trace.overhead_ratio": (overhead, "ratio"),
        "trace.spans": (len(tr.spans), "count"),
    })
    return m


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    wl = workloads.make(name, tiny)
    calib_s = calibrate()
    workdir = ROOT / ".bench_work" / f"{name}-seed{seed}-pid{os.getpid()}"
    tr, counts = Tracer(enabled=trace), Counter()
    setups = []
    try:
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            # the first set-up is traced; the rest only repeat it for timing
            first = not setups
            elapsed, pt, instances = set_up(
                wl, seed, workdir, tr if first else Tracer(), counts if first else Counter()
            )
            setups.append(elapsed)
        samples, results, passes = timed_loop(wl, pt, instances, seconds, tr, trace)
        probe_ops = range(len(results), len(results) + len(instances))
        if trace:
            tr.enabled = True
            for op, inst in zip(probe_ops, instances):
                tr.op = op
                wl.probe(pt, inst, tr, counts)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed, examples = count_failures(wl, instances, results)
    info = {
        "workload": name,
        "seed": seed,
        "instances": len(instances),
        "passes": passes,
        "fail_ratio": failed / len(results),
        "machine.python": platform.python_version(),
        "machine.cpu_count": os.cpu_count(),
        "machine.calib_s": round(calib_s, 4),
    }
    if trace:
        metrics = per_layer(tr, counts, probe_ops, tracing_overhead(samples))
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tr.write(str(out_dir / f"spans-{name}-seed{seed}.json"))
    else:
        metrics = end_to_end(setups, mean_latencies(samples))
        info["latency_samples"] = f"{len(instances)} instances, mean of {passes - 1} to {passes} runs each"
        info["setup_runs_s"] = " ".join(f"{s:.4f}" for s in setups)
    return {
        "info": info,
        "problems": examples,
        "result": {
            "correct": failed == 0,
            "attempted": len(results),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def print_run(run: dict) -> None:
    for key, value in run["info"].items():
        print(f"{key}: {value}")
    for problem in run["problems"]:
        print(f"problem: {problem}")
    for key, metric in run["result"]["metrics"].items():
        print(f"{key}: {metric['value']:.6g} {metric['unit']}")


def run_all(args) -> int:
    """Every workload in its own process, so peak memory is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--size", args.size]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny runs each workload on a handful of small instances (self-tests)")
    args = parser.parse_args(argv)
    src = ROOT / "src"
    if not (src / "planetrees" / "__init__.py").is_file():
        print(f"error: no planetrees package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    if args.workload == "all":
        return run_all(args)
    run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.size == "tiny")
    print_run(run)
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
