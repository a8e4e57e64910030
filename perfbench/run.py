"""Benchmark of qrweight: census, subcode walks and the CLI pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload census-p137 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-check

A run imports the package from ``src/``, sets up, then runs iterations of
one workload back to back (closed loop, one client) for ``--seconds``
seconds and checks every iteration's output for exactness. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``. The exit code is 0
only if every iteration passed its gate.

With ``--trace 1`` iterations alternate between untraced and traced, so the
tracing overhead is measured in the same run. ``--self-check`` runs every
workload's code path and gate at p = 17, traced and untraced, in seconds.

Inputs are fixed by (p, t); ``--seed`` is accepted and recorded, and changes
nothing. Scratch files go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

import bench_trace
import bench_workloads

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ".perfbench"
# At least this many iterations, even past --seconds; a traced run needs two
# untraced and two traced ones.
MIN_ITERATIONS = 3
MIN_TRACED_ITERATIONS = 4
# Fresh interpreters timed for setup_s on top of the run's own set-up; the
# import can only be timed once per process.
SETUP_PROBES = 6


def _cpu_s() -> float:
    """User+system CPU of this process and of its reaped children (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    """Larger of the peak RSS of this process and of any reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) * 1024 / 1e6


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def machine_facts() -> dict[str, str]:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "not installed"
    return {
        "nproc": str(os.cpu_count()),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
    }


def _percentile_note(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    below = n - 10
    if below < 1:
        return f"n={n}: no percentile has 10 samples beyond it"
    return f"n={n}: p{100 * below / n:.0f} = {sorted(values)[below - 1]:.4f}"


def _iteration(workload, ctx) -> tuple[float, float, list[str]]:
    """Run one iteration; returns its wall and CPU seconds and the gate's findings."""
    c0 = _cpu_s()
    t0 = time.perf_counter()
    try:
        result = workload.run(ctx)
    except Exception as exc:  # a failing iteration is counted, and the run goes on
        traceback.print_exc()
        return time.perf_counter() - t0, _cpu_s() - c0, [f"iteration raised {exc!r}"]
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - c0
    try:
        problems = workload.gate(ctx, result)
    except Exception as exc:  # an output the gate cannot read fails the gate
        traceback.print_exc()
        problems = [f"gate raised {exc!r}"]
    return wall, cpu, problems


def _setup_probes(name: str, small: bool, count: int) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", name]
    if small:
        cmd.append("--small")
    samples = []
    for _ in range(count):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def measure(name: str, *, seconds: float, trace: bool, seed: int, small: bool = False, probes: int = SETUP_PROBES):
    """Run one workload; returns (metrics, attempted, failures as (iteration, problem), report lines)."""
    workload = bench_workloads.workloads(small)[name]
    workdir = ROOT / WORKDIR / f"{name}-{os.getpid()}"
    tracer = bench_trace.Tracer()
    if trace:
        bench_workloads.import_qrweight(ROOT)
        ctx = bench_workloads.Context(root=ROOT, workdir=workdir, p=workload.p)
        with tracer.installed("setup"):
            bench_workloads.prepare(ctx)
        setup_s = None
    else:
        ctx, setup_s = bench_workloads.set_up(ROOT, workdir, workload.p)

    walls: list[float] = []
    cpus: list[float] = []
    traced_walls: list[float] = []
    rows: list[dict[str, float]] = []
    failures: list[tuple[int, str]] = []
    minimum = MIN_TRACED_ITERATIONS if trace else MIN_ITERATIONS
    deadline = time.perf_counter() + seconds
    i = 0
    try:
        while i < minimum or time.perf_counter() < deadline:
            traced = trace and i % 2 == 1
            tag = f"iteration-{i}"
            with tracer.installed(tag) if traced else contextlib.nullcontext():
                wall, cpu, problems = _iteration(workload, ctx)
            failures.extend((i, p) for p in problems)
            if traced:
                traced_walls.append(wall)
                row = bench_trace.iteration_metrics(tracer, tag)
                row["cli.artifact_bytes"] = _dir_bytes(workload.artifacts(ctx)) if workload.artifacts else 0
                rows.append(row)
            else:
                walls.append(wall)
                cpus.append(cpu)
            i += 1
        peak_rss_mb = _peak_rss_mb()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len({j for j, _ in failures})
    lines = [f"workload {name} (seed {seed}, {seconds:g} s, {'traced' if trace else 'untraced'}): "
             f"{i} iterations, {failed} failed"]
    if trace:
        metrics = bench_trace.run_metrics(tracer, rows, setup="setup")
        untraced = statistics.median(walls)
        traced_wall = statistics.median(traced_walls)
        metrics["trace.untraced_wall_s"] = untraced
        metrics["trace.overhead_s"] = traced_wall - untraced
        trace_path = ROOT / WORKDIR / f"trace-{name}-seed{seed}.jsonl"
        tracer.write(trace_path)
        lines.append(f"  {len(tracer.spans)} spans written to {trace_path.relative_to(ROOT)}")
        lines.append("  pool workers are not traced: census shards run there are covered by census.run_s only")
        shares = ", ".join(
            f"{k} {metrics[k] / traced_wall:.1%}"
            for k in ("census.run_s", "congruence.walk_s", "gleason.solve_s", "cli.self_s")
        )
        lines.append(f"  share of the traced iterations' median wall time: {shares}")
    else:
        setup_samples = [setup_s] + _setup_probes(name, small, probes)
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup_samples),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": peak_rss_mb,
        }
        lines.append(f"  wall_s samples: {_percentile_note(walls)}: " + " ".join(f"{w:.4f}" for w in walls))
        lines.append(f"  setup_s samples: n={len(setup_samples)}")
        lines.append(f"  failed_frac = {failed / i:.4f} ({failed} of {i} iterations)")
    lines.append("  machine: " + ", ".join(f"{k}={v}" for k, v in machine_facts().items()))
    return metrics, i, failures, lines


def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def result_line(metrics: dict[str, float], declared: list[dict], attempted: int, failed: int) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]} for m in declared},
    }


def run_workload(name: str, *, seconds: float, trace: bool, seed: int, small: bool = False,
                 probes: int = SETUP_PROBES) -> tuple[dict, list[str], list[str]]:
    metrics, attempted, failures, lines = measure(
        name, seconds=seconds, trace=trace, seed=seed, small=small, probes=probes
    )
    declared = declared_metrics(trace)
    for m in declared:
        lines.append(f"  {m['name']:32s} {metrics[m['name']]:.6g} {m['unit']}")
    failed = len({i for i, _ in failures})
    return result_line(metrics, declared, attempted, failed), failures, lines


def self_check() -> int:
    """Every workload at p = 17, untraced and traced, each iteration gated."""
    ok = True
    for name in bench_workloads.workloads(small=True):
        for trace in (False, True):
            result, failures, lines = run_workload(name, seconds=0, trace=trace, seed=0, small=True, probes=1)
            print("\n".join(lines))
            for i, problem in failures:
                print(f"  FAIL iteration {i}: {problem}")
            ok = ok and result["correct"]
    print("self-check " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(bench_workloads.workloads(small=False)))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true", help="run every workload at p = 17 and exit")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--small", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        if args.self_check:
            return self_check()
        if args.workload is None:
            parser.error("--workload is required")
        if args.setup_probe:
            p = bench_workloads.workloads(args.small)[args.workload].p
            _, seconds = bench_workloads.set_up(ROOT, ROOT / WORKDIR, p)
            print(repr(seconds))
            return 0
        result, failures, lines = run_workload(
            args.workload, seconds=args.seconds, trace=bool(args.trace), seed=args.seed
        )
    except (ImportError, FileNotFoundError, RuntimeError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    for i, problem in failures:
        print(f"FAIL iteration {i}: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
