"""Tests of the benchmark itself, on its p = 17 self-check variants.

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench_trace
import bench_workloads
import run as bench_run

ROOT = Path(__file__).resolve().parent.parent
SMALL = bench_workloads.workloads(small=True)


def _context(workload, tmp_path):
    ctx, _ = bench_workloads.set_up(ROOT, tmp_path, workload.p)
    return ctx


def test_self_check_passes():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--self-check"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False,
    )  # fmt: skip
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.strip().endswith("self-check passed")


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(SMALL))
def test_result_reports_every_declared_metric(name, trace):
    result, failures, _ = bench_run.run_workload(name, seconds=0, trace=trace, seed=3, small=True, probes=1)
    assert failures == []
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 3
    declared = bench_run.declared_metrics(trace)
    assert [m["name"] for m in declared] == list(result["metrics"])
    for m in declared:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"] and isinstance(entry["value"], float)
    json.dumps(result)


def test_census_gate_rejects_wrong_counts(tmp_path):
    workload = SMALL["census-p137"]
    ctx = _context(workload, tmp_path)
    result = workload.run(ctx)
    assert workload.gate(ctx, result) == []
    wrong = dataclasses.replace(result, counts={**result.counts, 6: result.counts[6] + 1})
    assert workload.gate(ctx, wrong)
    short = dataclasses.replace(
        result, provenance=dataclasses.replace(result.provenance, shards=result.provenance.shards[1:])
    )
    assert workload.gate(ctx, short)


def test_paper_gate_rejects_wrong_distribution(tmp_path):
    workload = SMALL["paper-p137"]
    ctx = _context(workload, tmp_path)
    result = workload.run(ctx)
    assert workload.gate(ctx, result) == []
    ext = list(result.solution.extended)
    ext[8] += 1
    wrong = dataclasses.replace(result, solution=dataclasses.replace(result.solution, extended=tuple(ext)))
    assert workload.gate(ctx, wrong)
    assert workload.gate(ctx, dataclasses.replace(result, quotients={2: 1}))


def test_pipeline_gate_rejects_failure_and_changed_payload(tmp_path):
    workload = SMALL["pipeline-p41-sharded"]
    ctx = _context(workload, tmp_path)
    assert workload.gate(ctx, workload.run(ctx)) == []
    assert workload.gate(ctx, 1)
    path = bench_workloads.pipeline_out(ctx) / "solution.json"
    artifact = json.loads(path.read_text(encoding="utf-8"))
    artifact["payload"]["coefficients"][0] += 1
    path.write_text(json.dumps(artifact), encoding="utf-8")
    assert workload.gate(ctx, 0) == ["solution.json payload differs from the first iteration's"]


def test_tracer_restores_the_package(tmp_path):
    workload = SMALL["pipeline-p41-sharded"]
    ctx = _context(workload, tmp_path)
    before = {(m, a): getattr(importlib.import_module(m), a) for m, a, _ in bench_trace.WRAPS}
    tracer = bench_trace.Tracer()
    with tracer.installed("one"):
        assert workload.gate(ctx, workload.run(ctx)) == []
    after = {(m, a): getattr(importlib.import_module(m), a) for m, a, _ in bench_trace.WRAPS}
    assert before == after
    names = {s.name for s in tracer.spans}
    assert {"cli.main", "census.run_census", "congruence.subcode_weight_counts"} <= names
    metrics = bench_trace.iteration_metrics(tracer, "one")
    assert metrics["census.patterns"] == 2 * (1 + 9 + 36)  # C(9, i) for i <= t = 2, both matrices
    cli_span = next(s for s in tracer.spans if s.name == "cli.main")
    children = sum(s.end - s.start for s in tracer.spans if s.parent == tracer.spans.index(cli_span))
    assert metrics["cli.self_s"] == pytest.approx(cli_span.end - cli_span.start - children)


def test_shard_fixed_cost_is_positive(tmp_path):
    ctx = _context(SMALL["census-p137"], tmp_path)
    assert bench_trace.shard_fixed_cost(ctx.family, 4, workers=2, block_size=10) > 0


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census-p137", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False,
    )  # fmt: skip
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
