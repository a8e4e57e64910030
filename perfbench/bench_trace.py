"""Spans around the package's public functions, recorded from outside it.

``Tracer.installed`` replaces each function in ``WRAPS`` on the module where
its caller looks it up (``qrweight.cli.build_family`` as well as
``qrweight.qrcodes.build_family``) with a wrapper that records a span: name,
layer, start, end, parent span and iteration id, plus the work counts named
in ``COUNTERS``. Spans stay in memory and are written out when the run ends.
The package source is not touched, and the originals are restored on exit.

Census shards that run in pool workers are invisible from here: a wrapper
cannot reach into another process. ``census.run_s`` is therefore the whole
census call as its caller sees it, and ``census.s_per_shard`` comes from a
separate probe (``shard_fixed_cost``) rather than from per-shard spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import pickle
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

# (module the caller looks the name up in, attribute, layer the function belongs to)
WRAPS = (
    ("qrweight.cli", "main", "cli"),
    ("qrweight.cli", "build_family", "qrcodes"),
    ("qrweight.cli", "find_sylow_plan", "psl2"),
    ("qrweight.qrcodes", "build_family", "qrcodes"),
    ("qrweight.psl2", "find_sylow_plan", "psl2"),
    ("qrweight.fixtures", "load_p137", "fixtures"),
    ("qrweight.census", "run_census", "census"),
    ("qrweight.census", "disjoint_information_systematizations", "bitlinalg"),
    ("qrweight.congruence", "compute_bundle", "congruence"),
    ("qrweight.congruence", "invariant_subcode", "congruence"),
    ("qrweight.congruence", "subcode_weight_counts", "congruence"),
    ("qrweight.congruence", "check_candidate", "congruence"),
    ("qrweight.congruence", "to_permutation", "psl2"),
    ("qrweight.bitlinalg", "intersect_rowspaces", "bitlinalg"),
    ("qrweight.gleason", "solve_distribution", "gleason"),
    ("qrweight.gleason", "resolve_top_coefficient", "gleason"),
    ("qrweight.gleason", "validate_solution", "gleason"),
    ("qrweight.gleason", "macwilliams_check", "gleason"),
    ("qrweight.gleason", "hull_dimension", "bitlinalg"),
)

# Layers whose self time is reported; errors does no work, and fixtures and
# the set-up calls are reported by name below.
LAYERS = ("qrcodes", "bitlinalg", "psl2", "congruence", "census", "gleason", "cli")


def _count_subcode_walk(args, kwargs, result) -> dict[str, int]:
    sub = args[0]
    start = kwargs.get("start", 0)
    stop = kwargs.get("stop")
    words = (1 << sub.k if stop is None else stop) - start
    return {"words": words, "useful": sum(result.values())}


def _count_census(args, kwargs, result) -> dict[str, int]:
    shards = result.provenance.shards
    return {
        "patterns": sum(rec.count for rec in shards),
        "shards": len(shards),
        "counted": sum(result.counts.values()),
    }


COUNTERS = {
    "congruence.subcode_weight_counts": _count_subcode_walk,
    "census.run_census": _count_census,
}


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    iteration: str
    counts: dict[str, int] = field(default_factory=dict)


class Tracer:
    """In-memory span recorder for one benchmark run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.last_census_call: tuple | None = None
        self._stack: list[int] = []

    def _wrap(self, fn, name: str, layer: str, iteration: str):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, layer, time.perf_counter(), 0.0, parent, iteration)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            if name == "census.run_census":
                self.last_census_call = (args, kwargs)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self, iteration: str):
        """Wrap every function in WRAPS for the duration of the block."""
        saved = []
        try:
            for module_name, attr, layer in WRAPS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, f"{layer}.{attr}", layer, iteration))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.__dict__, sort_keys=True) + "\n")


def shard_fixed_cost(family, t: int, *, workers: int = 1, block_size: int | None = None) -> float:
    """Seconds per shard spent outside the walk itself, on the census's own plan.

    Each shard of the plan is run with its count cut to one pattern, which
    leaves the unrank of its start rank, the rebuild of its start word and
    whatever else the shard pays once. On a pool the job and its result are
    also pickled and unpickled once, as the executor does; the executor's own
    queueing is not included. This uses the census module's private shard
    job format, so a change to that format needs this probe changed with it.
    """
    from qrweight import bitlinalg, census

    if block_size is None:
        block_size = census.DEFAULT_BLOCK_SIZE
    k = family.k
    g1, g2 = bitlinalg.disjoint_information_systematizations(family.extended)
    units = census.census_work_units(k, t, block_size)
    t0 = time.perf_counter()
    for index, matrix, size, start, _count in units:
        job = (index, matrix, size, start, 1, (g1 if matrix == 1 else g2).rows, k, (1 << k) - 1, 2 * t)
        result = census._count_shard(job)
        if workers > 1:
            pickle.loads(pickle.dumps(job))
            pickle.loads(pickle.dumps(result))
    return (time.perf_counter() - t0) / len(units)


def _self_times(spans: list[Span], first: int) -> list[float]:
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child[span.parent - first] += span.end - span.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def _total(spans: list[Span], name: str) -> float:
    return sum(s.end - s.start for s in spans if s.name == name)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def iteration_metrics(tracer: Tracer, iteration: str) -> dict[str, float]:
    """Per-layer metrics of one traced iteration."""
    first = next(i for i, s in enumerate(tracer.spans) if s.iteration == iteration)
    spans = [s for s in tracer.spans if s.iteration == iteration]
    out: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for span, self_s in zip(spans, _self_times(spans, first)):
        if span.layer in LAYERS:
            out[f"{span.layer}.self_s"] += self_s

    def count(name: str, key: str) -> int:
        return sum(s.counts.get(key, 0) for s in spans if s.name == name)

    walk_s = _total(spans, "congruence.subcode_weight_counts")
    words = count("congruence.subcode_weight_counts", "words")
    census_s = _total(spans, "census.run_census")
    patterns = count("census.run_census", "patterns")
    out.update(
        {
            "bitlinalg.systematize_s": _total(spans, "bitlinalg.disjoint_information_systematizations"),
            "congruence.invariant_subcode_s": _total(spans, "congruence.invariant_subcode"),
            "congruence.walk_s": walk_s,
            "congruence.words": words,
            "congruence.words_per_s": _ratio(words, walk_s),
            "congruence.useful_ratio": _ratio(count("congruence.subcode_weight_counts", "useful"), words),
            "census.run_s": census_s,
            "census.patterns": patterns,
            "census.patterns_per_s": _ratio(patterns, census_s),
            "census.shards": count("census.run_census", "shards"),
            "census.useful_ratio": _ratio(count("census.run_census", "counted"), patterns),
            "gleason.solve_s": _total(spans, "gleason.solve_distribution"),
            "gleason.resolve_top_s": _total(spans, "gleason.resolve_top_coefficient"),
            "gleason.macwilliams_s": _total(spans, "gleason.macwilliams_check"),
        }
    )
    return out


def run_metrics(tracer: Tracer, rows: list[dict[str, float]], *, setup: str) -> dict[str, float]:
    """Per-layer metrics of a run: medians of the traced iterations' ``rows``,
    the set-up spans of iteration ``setup``, the shard probe and the budgets."""
    out = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    setup_spans = [s for s in tracer.spans if s.iteration == setup]
    out["qrcodes.build_family_s"] = _total(setup_spans, "qrcodes.build_family")
    out["psl2.find_sylow_plan_s"] = _total(setup_spans, "psl2.find_sylow_plan")
    out["fixtures.load_s"] = _total(setup_spans, "fixtures.load_p137")
    out["census.s_per_shard"] = 0.0
    if tracer.last_census_call is not None:
        args, kwargs = tracer.last_census_call
        out["census.s_per_shard"] = shard_fixed_cost(
            args[0], args[1], workers=kwargs.get("workers", 1), block_size=kwargs.get("block_size")
        )
    # Wall times the desk budgets (10^8 patterns, 2^28 words) stand for at the measured rates.
    out["census.budget_wall_s"] = _ratio(10**8, out["census.patterns_per_s"])
    out["congruence.budget_wall_s"] = _ratio(2**28, out["congruence.words_per_s"])
    return out
