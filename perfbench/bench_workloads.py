"""The benchmark's workloads: set-up, one iteration, and the exactness gate.

Every workload is closed-loop: one process runs iterations back to back, and
inputs are fixed by (p, t), so no data is generated. Each has a full-size
variant, used for measurement, and a p = 17 variant of the same code path
that runs in well under a second, used by the self-check.

The package is imported lazily, inside ``import_qrweight``, so that the
import is part of the measured set-up time and is always the copy under
``<root>/src``, never an installed one.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import shutil
import sys
import time
from dataclasses import dataclass, field
from math import comb
from pathlib import Path
from typing import Any, Callable


def import_qrweight(root: Path):
    """Import ``qrweight`` from ``<root>/src``; raise ImportError if it is not there."""
    src = (root / "src").resolve()
    if not (src / "qrweight" / "__init__.py").is_file():
        raise ImportError(f"no qrweight package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    module = importlib.import_module("qrweight")
    if Path(module.__file__).resolve().parent != src / "qrweight":
        raise ImportError(f"qrweight was imported from {module.__file__}, not from {src}")
    return module


@dataclass
class Context:
    """What set-up produced, plus the per-run state the gates keep."""

    root: Path
    workdir: Path
    p: int
    family: Any = None
    plan: Any = None
    fixture: dict = field(default_factory=dict)
    reference: dict | None = None
    first_payload: Any = None


def prepare(ctx: Context) -> None:
    """Everything before the first enumeration call: family, Sylow plan, fixture."""
    from qrweight import fixtures, psl2, qrcodes

    ctx.family = qrcodes.build_family(ctx.p)
    ctx.plan = psl2.find_sylow_plan(ctx.p)
    ctx.fixture = fixtures.load_p137()


def set_up(root: Path, workdir: Path, p: int) -> tuple[Context, float]:
    """Import the package and prepare; returns the context and the seconds it took."""
    t0 = time.perf_counter()
    import_qrweight(root)
    ctx = Context(root=root, workdir=workdir, p=p)
    prepare(ctx)
    return ctx, time.perf_counter() - t0


def _intkeys(d: dict) -> dict[int, int]:
    return {int(k): int(v) for k, v in d.items()}


# ---------------------------------------------------------------- census


@dataclass(frozen=True)
class CensusSpec:
    p: int
    t: int
    counts: dict[int, int]

    @property
    def patterns(self) -> int:
        return 2 * sum(comb((self.p + 1) // 2, i) for i in range(self.t + 1))


def census_run(spec: CensusSpec, ctx: Context):
    from qrweight import census

    return census.run_census(ctx.family, spec.t)


def census_gate(spec: CensusSpec, ctx: Context, result) -> list[str]:
    problems = []
    if result.counts != spec.counts:
        problems.append(f"census counts {result.counts} != {spec.counts}")
    patterns = sum(rec.count for rec in result.provenance.shards)
    if patterns != spec.patterns:
        problems.append(f"census walked {patterns} patterns, expected {spec.patterns}")
    return problems


# ---------------------------------------------------------------- paper


@dataclass(frozen=True)
class PaperSpec:
    """The p = 137 derivation shape: congruences, partial census, sign route.

    With ``partial`` None the H2 row and the partial census come from the
    package's fixture, as in the paper derivation; otherwise H2 is walked
    and ``partial`` is the census. ``reference`` gives the values the gate
    compares against, in the layout of the fixture loader.
    """

    p: int
    weights: tuple[int, ...]
    partial: dict[int, int] | None
    reference: Callable[[Path], dict]


@dataclass(frozen=True)
class PaperResult:
    bundle: Any
    quotients: dict[int, Any]
    solution: Any
    self_dual: bool


def paper_run(spec: PaperSpec, ctx: Context) -> PaperResult:
    from qrweight import congruence, gleason

    m = (spec.p - 1) // 8
    from_fixture = spec.partial is None
    bundle = congruence.compute_bundle(
        ctx.family,
        ctx.plan,
        list(spec.weights),
        h2_counts_fixture=ctx.fixture["subgroup_counts"]["H2"] if from_fixture else None,
    )
    partial = ctx.fixture["partial_census"] if from_fixture else spec.partial
    quotients = {w: congruence.check_candidate(bundle.constraints[w], a) for w, a in partial.items()}
    counts = {w: 0 for w in range(2, min(spec.weights), 2)}
    counts.update(partial)
    solution = gleason.solve_distribution(
        spec.p, counts, constraint=bundle.constraints[2 * m], family=ctx.family
    )
    n = spec.p + 1
    self_dual = gleason.macwilliams_check(solution.extended, n, n // 2)
    return PaperResult(bundle=bundle, quotients=quotients, solution=solution, self_dual=self_dual)


def paper_gate(spec: PaperSpec, ctx: Context, result: PaperResult) -> list[str]:
    if ctx.reference is None:
        ctx.reference = spec.reference(ctx.root)
    fx = ctx.reference
    m = (spec.p - 1) // 8
    bundle = result.bundle
    problems = []

    def check(name: str, got, want) -> None:
        if got != want:
            problems.append(f"{name}: got {got}, expected {want}")

    check("subcode dims", bundle.dims, fx["subgroup_dims"])
    for label, row in sorted(fx["subgroup_counts"].items()):
        if label == "H2" and spec.partial is None:
            continue
        check(f"subcode counts {label}", {w: bundle.counts[label].get(w, 0) for w in row}, row)
    check("sylow2", bundle.sylow2, fx["sylow2"])
    check("crt residues", {w: c.residue for w, c in bundle.constraints.items()}, fx["crt_residues"])
    check("crt moduli", {c.modulus for c in bundle.constraints.values()}, {fx["crt_modulus"]})
    cert = result.solution.sign_certificate
    quotients = dict(result.quotients)
    quotients[2 * m] = cert.orbit_quotient if cert is not None else None
    check("orbit quotients", quotients, fx["orbit_quotients"])
    for column in ("extended", "augmented"):
        want = fx[f"distribution_{column}"]
        got = getattr(result.solution, column)
        top = max(want)
        check(f"{column} distribution", {j: got[j] for j in range(top + 1)}, {j: want.get(j, 0) for j in range(top + 1)})
    check("MacWilliams self-transform", result.self_dual, True)
    return problems


def p137_reference(root: Path) -> dict:
    """The published p = 137 values, read straight from the data file.

    The gate reads the file itself rather than through the package's loader,
    so a fault in the loader cannot hide a wrong result.
    """
    path = root / "src" / "qrweight" / "data" / "p137.json"
    raw = json.loads(path.read_text(encoding="utf-8"))
    table = raw["subgroup_table"]
    return {
        "subgroup_dims": {k: int(v) for k, v in table["dims"].items()},
        "subgroup_counts": {label: _intkeys(row) for label, row in table["counts"].items()},
        "sylow2": _intkeys(raw["sylow2_combination"]["values"]),
        "crt_modulus": int(raw["crt_residues"]["modulus"]),
        "crt_residues": _intkeys(raw["crt_residues"]["values"]),
        "orbit_quotients": _intkeys(raw["orbit_quotients"]["values"]),
        "distribution_extended": _intkeys(raw["distribution"]["extended"]),
        "distribution_augmented": _intkeys(raw["distribution"]["augmented"]),
    }


# Reference values for p = 17. Both distributions come from a brute-force walk
# of all 2^9 codewords of the extended and augmented codes; every A_j is
# congruent to its residue modulo |PSL2(17)| = 2448.
_P17_EXTENDED = [1, 0, 0, 0, 0, 0, 102, 0, 153, 0, 153, 0, 102, 0, 0, 0, 0, 0, 1]
_P17_AUGMENTED = [1, 0, 0, 0, 0, 34, 68, 68, 85, 85, 68, 68, 34, 0, 0, 0, 0, 1]
P17_REFERENCE = {
    "subgroup_dims": {"H2": 5, "G4_0": 3, "G4_1": 4, "S_3": 3, "S_17": 1},
    "subgroup_counts": {
        "H2": {2: 0, 4: 0, 6: 6, 8: 9},
        "G4_0": {2: 0, 4: 0, 6: 0, 8: 3},
        "G4_1": {2: 0, 4: 0, 6: 4, 8: 3},
        "S_3": {2: 0, 4: 0, 6: 3, 8: 0},
        "S_17": {2: 0, 4: 0, 6: 0, 8: 0},
    },
    "sylow2": {2: 0, 4: 0, 6: 6, 8: 9},
    "crt_modulus": 2448,
    "crt_residues": {2: 0, 4: 0, 6: 102, 8: 153},
    "orbit_quotients": {2: 0, 4: 0},
    "distribution_extended": dict(enumerate(_P17_EXTENDED)),
    "distribution_augmented": dict(enumerate(_P17_AUGMENTED)),
}


# ---------------------------------------------------------------- pipeline


@dataclass(frozen=True)
class PipelineSpec:
    p: int
    t: int
    workers: int
    block_size: int
    counts: dict[int, int]

    def argv(self, out: Path) -> list[str]:
        return [
            "pipeline", "--p", str(self.p), "--t", str(self.t), "--long-run",
            "--workers", str(self.workers), "--block-size", str(self.block_size),
            "--out", str(out),
        ]  # fmt: skip


def pipeline_out(ctx: Context) -> Path:
    return ctx.workdir / "pipeline"


def pipeline_run(spec: PipelineSpec, ctx: Context) -> int:
    from qrweight import cli

    out = pipeline_out(ctx)
    shutil.rmtree(out, ignore_errors=True)
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(spec.argv(out))


def pipeline_gate(spec: PipelineSpec, ctx: Context, exit_code: int) -> list[str]:
    if exit_code != 0:
        return [f"pipeline exited with code {exit_code}"]
    path = pipeline_out(ctx) / "solution.json"
    payload = json.loads(path.read_text(encoding="utf-8"))["payload"]
    extended = dict(payload["extended"])
    problems = []
    got = {w: extended.get(w) for w in spec.counts}
    if got != spec.counts:
        problems.append(f"pipeline counts {got} != {spec.counts}")
    if ctx.first_payload is None:
        ctx.first_payload = payload
    elif payload != ctx.first_payload:
        problems.append("solution.json payload differs from the first iteration's")
    return problems


# ---------------------------------------------------------------- registry


@dataclass(frozen=True)
class Workload:
    name: str
    p: int
    run: Callable[[Context], Any]
    gate: Callable[[Context, Any], list[str]]
    artifacts: Callable[[Context], Path] | None = None


def _workload(name: str, spec, run, gate, artifacts=None) -> Workload:
    return Workload(
        name=name,
        p=spec.p,
        run=lambda ctx: run(spec, ctx),
        gate=lambda ctx, result: gate(spec, ctx, result),
        artifacts=artifacts,
    )


def workloads(small: bool) -> dict[str, Workload]:
    """The named workloads; ``small`` gives the p = 17 self-check variants."""
    if small:
        census_spec = CensusSpec(p=17, t=4, counts={0: 1, 2: 0, 4: 0, 6: 102, 8: 153})
        paper_spec = PaperSpec(p=17, weights=(2, 4, 6, 8), partial={2: 0}, reference=lambda root: P17_REFERENCE)
        pipeline_spec = PipelineSpec(p=17, t=2, workers=2, block_size=10, counts={6: 102, 8: 153})
    else:
        census_spec = CensusSpec(p=137, t=4, counts={0: 1, 2: 0, 4: 0, 6: 0, 8: 0})
        paper_spec = PaperSpec(p=137, weights=tuple(range(22, 35, 2)), partial=None, reference=p137_reference)
        pipeline_spec = PipelineSpec(
            p=41, t=8, workers=2, block_size=2000, counts={10: 1722, 12: 10619, 14: 49815, 16: 157563}
        )
    return {
        w.name: w
        for w in (
            _workload("census-p137", census_spec, census_run, census_gate),
            _workload("paper-p137", paper_spec, paper_run, paper_gate),
            _workload("pipeline-p41-sharded", pipeline_spec, pipeline_run, pipeline_gate, pipeline_out),
        )
    }
