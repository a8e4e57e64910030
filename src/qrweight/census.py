"""Partial weight census over the information patterns of two generator matrices.

Low-weight codewords of a half-rate code are counted exactly by enumerating
all information patterns of size <= t in two generator matrices systematic on
disjoint halves. A codeword of weight w <= W, W in {2t, 2t + 1}, has its
lighter half reachable as a pattern of size <= t, so counting a word found
through the left-systematic matrix only when its left half is not heavier
(ties included) and through the right-systematic matrix only when its right
half is strictly lighter counts every qualifying codeword exactly once.

The same rule leaves some work units empty. A pattern of size s is kept only
with parity weight q >= s (matrix 1) or q > s (matrix 2), and only when
s + q <= W, so a unit (matrix, size) is live iff size + min_parity <= W with
min_parity = size for matrix 1 and size + 1 for matrix 2. In any other unit
q >= min_parity and size + q <= W cannot both hold, so it has no qualifying
pattern whatever the code. Units stop at size t = W // 2, where matrix 1 is
always live; for even W = 2t every matrix-2 unit of size t is dead (47% of
the patterns of the p = 137, t = 4 census), and odd W has no dead unit.
Dead units keep their place in the plan and their records, with empty
tallies, but no table is built and no kernel call is made for them.
``pattern_cost`` counts the patterns of the live units, which is what a
census walks.

The module has a core and a thin wrapper. ``count_units`` is the core: it
counts a list of work units of any half-rate code, given its two systematic
row sets and the bound W, and keeps odd weights. ``run_census`` wraps it for
the extended QR code: it checks the budget, plans the shards, records the
provenance and rejects odd weights, which an even code cannot have. Folded
invariant subcodes call the core directly (``congruence``).

``check_budget`` is the package's one enumeration budget, counted in kernel
lanes: one lane is one census pattern or one walked subcode word, one slot of
``weight_histogram``'s bit-sliced tables. Both enumerators run at tens of
millions of lanes per second on one core, so the default 10^8 lanes is a few
seconds; ``long_run`` lifts it.

Shards are rank intervals of the revolving-door order for combinations.
Patterns of a fixed largest element a_t occupy the consecutive rank interval
[C(a_t, t), C(a_t+1, t) - 1], and ranks obey the reflected recursion

    rank(a_t .. a_1) = C(a_t + 1, t) - 1 - rank(a_t-1 .. a_1)

which splits a shard's interval into blocks (TAOCP 4A, 7.2.1.3), one per
fixed set of top elements above the table depth d. Such a block is the XOR
of the top elements' rows with a lane range of one precomputed table of
d-subset XORs in revolving-door order, where the ranks [lo, hi) of the
d-subsets are the lanes [lo, hi), and ``bitlinalg.weight_histograms``
counts the whole block at once. Counting is order-free and each shard's
tallies come from its own interval alone, so shards are independent.

The core counts by spans, not by shards: a span is a run of consecutive
units of one (matrix, size), and a block that shard boundaries cut into
pieces is counted by one kernel call that builds its bit-planes once and
reads each unit's histogram from that unit's lanes. So a span costs one
kernel call per top prefix however many shards it is cut into, and the
matrices' rows are checked once per census. On more than one worker the
caller cuts the units into contiguous shares of about equal live lanes,
counts the first share itself and hands each other share to a child
process of its own.

Deeper tables mean fewer kernel calls but more lanes to build, so each
matrix's depth is the one that costs least over all its live units
(``table_depth``). The tables of both matrices stay cached in the process,
so a second census of the same code builds none.
"""

from __future__ import annotations

import hashlib
import json
import sys
from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import groupby
from math import comb
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, Sequence

from .bitlinalg import BitMatrix, disjoint_information_systematizations, rd_subset_columns, weight_histograms
from .errors import BudgetExceeded, CheckFailure, InvariantViolation

if TYPE_CHECKING:
    from .qrcodes import QrCodeFamily

DEFAULT_BLOCK_SIZE = 10**8
DEFAULT_PATTERN_BUDGET = 10**8
SUBSET_TABLE_BITS = 1 << 26  # columns x lanes of one matrix's subset tables, about 8 MB
# One kernel call's fixed cost in table lanes built: at 69 columns a call
# takes about 20-60 us on one core, and building a table lane 69 x 2 ns.
KERNEL_CALL_LANES = 256


def is_live(matrix: int, size: int, max_weight: int) -> bool:
    """Whether a unit (matrix, size) can hold a word of weight <= max_weight.

    Its patterns weigh ``size`` on the systematic half and, to be counted,
    at least size (matrix 1) or size + 1 (matrix 2) on the parity half.
    """
    return 2 * size + (matrix == 2) <= max_weight


def pattern_cost(k: int, max_weight: int) -> int:
    """Patterns a full census to max_weight walks: those of its live units,
    sum(C(k, s), s <= W // 2) + sum(C(k, s), s <= (W - 1) // 2)."""
    return sum(
        comb(k, size)
        for matrix in (1, 2)
        for size in range(max_weight // 2 + 1)
        if is_live(matrix, size, max_weight)
    )


def check_budget(lanes: int, long_run: bool) -> None:
    """Refuse a run of more than DEFAULT_PATTERN_BUDGET lanes unless long_run."""
    if lanes > DEFAULT_PATTERN_BUDGET and not long_run:
        raise BudgetExceeded(
            f"needs {lanes} lanes (census patterns or subcode words), budget "
            f"{DEFAULT_PATTERN_BUDGET}; pass long_run to allow"
        )


def shard_digest(unit: Iterable[int], weight_counts: Iterable[tuple[int, int]]) -> str:
    """Digest binding a plan unit (index, matrix, size, start_rank, count) to its nonzero tallies."""
    payload = json.dumps([*unit, list(weight_counts)], separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass(frozen=True)
class ShardRecord:
    """Audit record of one processed shard: its plan unit and the digest of its tallies."""

    index: int
    matrix: int
    size: int
    start_rank: int
    count: int
    sha256: str

    @property
    def unit(self) -> tuple[int, int, int, int, int]:
        return (self.index, self.matrix, self.size, self.start_rank, self.count)


@dataclass(frozen=True)
class CensusProvenance:
    code_digest: str
    max_info_weight: int
    block_size: int
    total_shards: int
    shards: tuple[ShardRecord, ...]


@dataclass(frozen=True)
class WeightCensus:
    """Per-weight codeword counts, exact for every even weight <= complete_upto.

    A census produced for a subset of shard indices is a fragment: its counts
    are partial sums and only a gap-free merge restores exactness. A fragment
    and a complete census share one artifact format (``census_payload``).
    """

    p: int
    n: int
    k: int
    complete_upto: int
    counts: dict[int, int]
    provenance: CensusProvenance


@lru_cache(maxsize=16)
def _run_starts(k: int, t: int, block_size: int) -> tuple[int, ...]:
    """The deterministic shard plan, as the index of the first unit of each
    (matrix, size) run, in plan order, followed by the total + 1.

    For each matrix and each size <= t the C(k, size) ranks are cut into
    consecutive shards of block_size ranks, the last one shorter, so a run
    holds ceil(C(k, size) / block_size) units; indices run from 1 in that
    order.
    """
    if block_size < 1:
        raise ValueError("block_size must be >= 1")
    starts = [1]
    for _matrix in (1, 2):
        for size in range(t + 1):
            starts.append(starts[-1] - (-comb(k, size) // block_size))
    return tuple(starts)


def census_shard_total(k: int, t: int, block_size: int) -> int:
    """Number of units in the plan."""
    return _run_starts(k, t, block_size)[-1] - 1


def census_unit(k: int, t: int, block_size: int, index: int) -> tuple[int, int, int, int, int]:
    """Unit ``index`` of the plan, (index, matrix, size, start_rank, count),
    found by arithmetic without the other units."""
    starts = _run_starts(k, t, block_size)
    if not 1 <= index < starts[-1]:
        raise ValueError(f"no unit {index}; the plan has units 1..{starts[-1] - 1}")
    run = bisect_right(starts, index) - 1  # the last run starting at or before index; empty runs share it
    matrix, size = run // (t + 1) + 1, run % (t + 1)
    start = (index - starts[run]) * block_size
    return index, matrix, size, start, min(block_size, comb(k, size) - start)


def census_work_units(k: int, t: int, block_size: int) -> list[tuple[int, int, int, int, int]]:
    """Every unit of the plan, in index order."""
    return [census_unit(k, t, block_size, i) for i in range(1, census_shard_total(k, t, block_size) + 1)]


@lru_cache(maxsize=256)
def _binomials(n: int, t: int) -> tuple[int, ...]:
    """C(a, t) for a = 0..n: patterns with largest element a hold the ranks
    [C(a, t), C(a + 1, t))."""
    return tuple(comb(a, t) for a in range(n + 1))


def _rank_blocks(lo: int, hi: int, t: int, depth: int, base: int, rows: Sequence[int]):
    """Split the ranks [lo, hi) of the t-subsets of the rows into blocks.

    Each block (base, d, lo, hi) is ``base`` XOR the d-subsets of ranks
    [lo, hi), d <= depth: a lane range of the revolving-door table T_d, with
    the fixed top elements folded into ``base``. Patterns with largest
    element a hold the ranks [C(a, t), C(a + 1, t)), and below a they walk
    the (t-1)-subsets of [0, a) backwards, so the recursion stops at the
    table depth and yields one block per fixed top prefix.
    """
    if t <= depth:
        yield base, t, lo, hi
        return
    starts = _binomials(len(rows), t)
    a = bisect_right(starts, lo) - 1
    while lo < hi:
        end = starts[a + 1]
        top_hi = min(hi, end)
        yield from _rank_blocks(end - top_hi, end - lo, t - 1, depth, base ^ rows[a], rows)
        lo = top_hi
        a += 1


@lru_cache(maxsize=64)
def table_depth(k: int, top: int, cap: int) -> int:
    """Depth of the subset tables for a matrix whose live units are the full
    rank ranges of sizes 0..top over k rows.

    Tables to depth d hold lanes(d) = sum(C(k, i), i <= d) lanes, and a unit
    of size s > d makes C(k - d, s - d) kernel calls, one per set of top
    elements, against one for s <= d. The depth is the d <= top, smallest
    among ties, that minimises KERNEL_CALL_LANES * calls(d) + lanes(d) with
    k * lanes(d) <= cap; depth 0 is allowed under any cap. The walked lanes
    are the same at every depth, and so are the counts.
    """
    best_cost, best = None, 0
    lanes = 0
    for d in range(min(top, k) + 1):
        lanes += comb(k, d)
        if d and k * lanes > cap:
            break
        calls = d + 1 + sum(comb(k - d, s - d) for s in range(d + 1, top + 1))
        cost = KERNEL_CALL_LANES * calls + lanes
        if best_cost is None or cost < best_cost:
            best_cost, best = cost, d
    return best


@lru_cache(maxsize=2)
def _parity_tables(parity: tuple[int, ...], depth: int) -> tuple[tuple[int, ...], ...]:
    """Revolving-door subset tables of one matrix's parity rows, both matrices kept."""
    return rd_subset_columns(parity, len(parity), depth)


def _parity_rows(matrix: int, rows: Sequence[int], k: int, left_mask: int) -> tuple[int, ...]:
    """The k parity bits of each row, after checking that the rows are the
    identity on the matrix's systematic half."""
    unit_shift, parity_shift = (0, k) if matrix == 1 else (k, 0)
    parity = tuple((row >> parity_shift) & left_mask for row in rows)
    for i, (row, q) in enumerate(zip(rows, parity)):
        if row != (1 << i << unit_shift) | (q << parity_shift):
            raise InvariantViolation(f"matrix {matrix} row {i} is not systematic on its half")
    return parity


def _count_share(
    parities: dict[int, tuple[int, ...]], units: Sequence[tuple[int, int, int, int, int]], k: int, max_weight: int
) -> list[tuple[int, int, int, int, int, tuple[tuple[int, int], ...]]]:
    """Count units whose parity rows are checked, span by span.

    A span is a maximal run of consecutive units of one (matrix, size). A
    block of ``_rank_blocks`` that holds neither the first nor the last rank
    of its unit lies inside that unit and is counted at once, and so is
    every block of a span of one unit. The blocks at the ends of the units
    of a longer span are held, sorted by block and lane, and each
    block's lane-adjacent pieces are counted by one ``weight_histograms``
    call whose cut points are the unit boundaries. A block cut by shards
    therefore builds its bit-planes once, as in an unsharded census.
    """
    results = []
    for (matrix, size), group in groupby(units, key=itemgetter(1, 2)):
        span = list(group)
        for _, _, _, start_rank, count in span:
            if not 0 <= start_rank < start_rank + count <= comb(k, size):
                raise ValueError(f"shard [{start_rank}, {start_rank + count}) outside [0, {comb(k, size)})")
        if not is_live(matrix, size, max_weight):
            results.extend((*unit, ()) for unit in span)
            continue
        parity = parities[matrix]
        min_parity = size + (matrix == 2)
        depth = table_depth(k, (max_weight - (matrix == 2)) // 2, SUBSET_TABLE_BITS)
        tables = _parity_tables(parity, depth)
        tallies: list[dict[int, int]] = [{} for _ in span]
        held = []
        for u, (_, _, _, start, count) in enumerate(span):
            stop = start + count
            ends = ()  # (base, d) of the unit's first and last blocks, which a neighbouring unit may share
            if len(span) > 1:
                ends = {next(_rank_blocks(r, r + 1, size, depth, 0, parity))[:2] for r in (start, stop - 1)}
            for base, d, lo, hi in _rank_blocks(start, stop, size, depth, 0, parity):
                if (base, d) in ends:
                    held.append((d, base, lo, hi, u))
                else:
                    _add(tallies[u], weight_histograms(tables[d], base, (lo, hi), max_weight - size, min_parity)[0])
        held.sort()
        first = 0
        for last, (d, base, _, hi, _) in enumerate(held, 1):
            if last == len(held) or held[last][:2] != (d, base) or held[last][2] != hi:
                run = held[first:last]
                cuts = [lo for _, _, lo, _, _ in run] + [hi]
                for (*_, u), hist in zip(run, weight_histograms(tables[d], base, cuts, max_weight - size, min_parity)):
                    _add(tallies[u], hist)
                first = last
        for unit, tally in zip(span, tallies):
            results.append((*unit, tuple(sorted((size + q, c) for q, c in tally.items()))))
    return results


def _add(tally: dict[int, int], hist: dict[int, int]) -> None:
    for q, c in hist.items():
        tally[q] = tally.get(q, 0) + c


def _count_shard(args: tuple) -> tuple[int, int, int, int, int, tuple[tuple[int, int], ...]]:
    """Count one shard and tally qualifying codeword weights: ``count_units``
    for one unit, with everything it needs in ``args``.

    The rows are systematic on one half, so that half adds exactly ``size``
    to every pattern's weight and only the k parity bits go through the
    kernel: a codeword of parity weight q is kept when size + q <= max_weight
    and q >= size (matrix 1, ties kept) or q > size (matrix 2). A dead unit
    (see ``is_live``) cannot meet both, so after the row and rank checks it
    returns empty tallies without tables or kernel calls. The largest live
    size, max_weight // 2 for matrix 1 and (max_weight - 1) // 2 for matrix 2,
    sets the depth of that matrix's tables (``table_depth``).
    """
    index, matrix, size, start_rank, count, rows, k, left_mask, max_weight = args
    parities = {matrix: _parity_rows(matrix, rows, k, left_mask)}
    return _count_share(parities, [(index, matrix, size, start_rank, count)], k, max_weight)[0]


def _send_share(conn, parities, units, k, max_weight) -> None:
    """Count a share in a child process and send (True, results) or (False,
    the exception) back to the caller."""
    try:
        message = (True, _count_share(parities, units, k, max_weight))
    except Exception as exc:
        message = (False, exc)
    conn.send(message)
    conn.close()


def _shares(units: Sequence[tuple[int, int, int, int, int]], workers: int, max_weight: int) -> list[list]:
    """Cut the units, in order, into ``workers`` contiguous shares of about
    equal live lanes; a unit goes to the share that holds its middle lane."""
    lanes = [count if is_live(matrix, size, max_weight) else 0 for _, matrix, size, _, count in units]
    total = sum(lanes) or 1
    shares: list[list] = [[] for _ in range(workers)]
    done = 0
    for unit, n in zip(units, lanes):
        shares[min(workers - 1, (2 * done + n) * workers // (2 * total))].append(unit)
        done += n
    return shares


def count_units(
    g1: BitMatrix,
    g2: BitMatrix,
    units: Sequence[tuple[int, int, int, int, int]],
    max_weight: int,
    *,
    workers: int = 1,
) -> list[tuple[int, int, int, int, int, tuple[tuple[int, int], ...]]]:
    """The census core: count work units of any half-rate code up to max_weight.

    ``g1`` = [I | A] and ``g2`` = [B | I] generate one k x 2k code; ``units``
    are (index, matrix, size, start_rank, count) with size <= max_weight // 2.
    Returns each unit with its nonzero tallies of weights <= max_weight, in
    unit order. Over the full plan to t = max_weight // 2 every codeword of
    weight <= max_weight is counted exactly once, odd weights included: its
    lighter half weighs at most t and is reached by one of the two matrices.
    A dead unit (``is_live``) comes back with empty tallies, unwalked: a
    word found through matrix 2 has a strictly lighter right half, so a
    pattern of size s there needs weight >= 2s + 1, and none of size t fits
    under an even bound W = 2t. Odd bounds have no dead units.

    Both matrices are checked once. The units are counted in spans of one
    (matrix, size) (``_count_share``), so a block cut by shard boundaries costs
    what it costs uncut. On more than one worker the units are cut into
    ``workers`` contiguous shares of about equal live lanes: the caller starts
    a process for each nonempty share but the first, counts the first itself,
    then takes each child's results, or its exception, from a one-way pipe.
    Every child is joined, and terminated if still running, however the census
    ends. Linux children are forked, not re-imported: safe only while the
    caller runs no other thread.
    """
    k = g1.nrows
    left_mask = (1 << k) - 1
    parities = {matrix: _parity_rows(matrix, g.rows, k, left_mask) for matrix, g in ((1, g1), (2, g2))}
    if workers == 1:
        return sorted(_count_share(parities, units, k, max_weight))
    # imported here so that importing the package does not load multiprocessing
    import multiprocessing

    context = multiprocessing.get_context("fork" if sys.platform == "linux" else None)
    own, *rest = _shares(units, workers, max_weight)
    children = []
    try:
        for share in rest:
            if share:
                receiver, sender = context.Pipe(duplex=False)
                child = context.Process(target=_send_share, args=(sender, parities, share, k, max_weight))
                child.start()
                children.append((child, receiver))
                sender.close()  # the child holds the only sending end, so its exit ends the pipe
        results = _count_share(parities, own, k, max_weight)
        for child, receiver in children:
            try:
                ok, value = receiver.recv()
            except EOFError:
                child.join()
                message = f"census worker exited with code {child.exitcode} before sending its tallies"
                raise RuntimeError(message) from None
            if not ok:
                raise value
            results += value
    finally:
        for child, receiver in children:
            if child.is_alive():
                child.terminate()
            child.join()
            receiver.close()
    return sorted(results)


def run_census(
    family: QrCodeFamily,
    t: int,
    *,
    workers: int = 1,
    block_size: int = DEFAULT_BLOCK_SIZE,
    long_run: bool = False,
    shard_indices: Iterable[int] | None = None,
) -> WeightCensus:
    """Count extended-code codewords of every weight <= 2t.

    A thin wrapper over ``count_units``: it checks the budget against the
    patterns of the live units it runs, plans the shards, records the
    provenance and checks that no odd weight occurs. A whole census is
    checked against ``pattern_cost(k, 2t)`` before its plan is built, so an
    over-budget t is refused at once.
    With shard_indices the run covers only those work units, found by
    arithmetic (``census_unit``) without the plan and checked against their
    own live patterns, and returns a fragment for later merging; an index
    outside the plan is a ValueError.
    Results are bit-identical for any worker count and block size: shards own
    private counters and merging is plain per-weight addition.
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    max_weight = 2 * t
    if shard_indices is None:
        check_budget(pattern_cost(family.k, max_weight), long_run)
        units = census_work_units(family.k, t, block_size)
        total_shards = len(units)
    else:
        wanted = sorted(set(shard_indices))
        total_shards = census_shard_total(family.k, t, block_size)
        missing = [i for i in wanted if not 1 <= i <= total_shards]
        if missing:
            raise ValueError(f"no such shard indices: {missing}; the plan has units 1..{total_shards}")
        units = [census_unit(family.k, t, block_size, i) for i in wanted]
        live = sum(count for _, matrix, size, _, count in units if is_live(matrix, size, max_weight))
        check_budget(live, long_run)
    matrices = disjoint_information_systematizations(family.extended)
    if matrices is None:
        raise InvariantViolation(f"no two disjoint information sets found in the p={family.p} extended code")
    g1, g2 = matrices
    totals: dict[int, int] = {}
    records = []
    for *unit, weight_counts in count_units(g1, g2, units, max_weight, workers=workers):
        records.append(ShardRecord(*unit, sha256=shard_digest(unit, weight_counts)))
        for w, c in weight_counts:
            totals[w] = totals.get(w, 0) + c
    for w, c in totals.items():
        if w % 2 and c:
            raise InvariantViolation(f"odd weight {w} counted in an even code")
    counts = {w: totals.get(w, 0) for w in range(0, max_weight + 1, 2)}
    return WeightCensus(
        p=family.p,
        n=family.n_extended,
        k=family.k,
        complete_upto=max_weight,
        counts=counts,
        provenance=CensusProvenance(
            code_digest=family.code_digest(),
            max_info_weight=t,
            block_size=block_size,
            total_shards=total_shards,
            shards=tuple(records),
        ),
    )


def census_payload(result: WeightCensus) -> dict:
    """The JSON payload of a census artifact; ``census_from_payload`` inverts it."""
    prov = result.provenance
    return {
        **vars(result),
        "counts": [[w, c] for w, c in sorted(result.counts.items())],
        "provenance": {**vars(prov), "shards": [dict(vars(rec)) for rec in prov.shards]},
    }


def _int(value) -> int:
    if type(value) is not int:
        raise CheckFailure(f"census payload: expected an integer, got {value!r}")
    return value


def census_from_payload(payload: dict) -> WeightCensus:
    """Read a census payload back, checking only its shape.

    Whether the content agrees with the code and the shard plan is checked by
    ``merge_censuses``, which every census read from disk goes through.
    """
    try:
        prov = payload["provenance"]
        counts = {_int(w): _int(c) for w, c in payload["counts"]}
        if len(counts) != len(payload["counts"]):
            raise CheckFailure("census payload lists a weight more than once")
        shards = tuple(
            ShardRecord(*(_int(rec[f]) for f in ("index", "matrix", "size", "start_rank", "count")),
                        sha256=str(rec["sha256"]))
            for rec in prov["shards"]
        )
        return WeightCensus(
            *(_int(payload[f]) for f in ("p", "n", "k", "complete_upto")),
            counts=counts,
            provenance=CensusProvenance(
                str(prov["code_digest"]),
                *(_int(prov[f]) for f in ("max_info_weight", "block_size", "total_shards")),
                shards=shards,
            ),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckFailure(f"malformed census payload: {exc!r}") from exc


def _check_part_counts(part: WeightCensus) -> None:
    """A part's counts must be tallies its own shard records could have made."""
    records = part.provenance.shards
    where = f"shard {records[0].index}" if len(records) == 1 else f"part of {len(records)} shards"
    for w, c in part.counts.items():
        if w % 2 or not 0 <= w <= part.complete_upto or c < 0:
            raise InvariantViolation(f"{where}: count {c} at weight {w} (even, <= {part.complete_upto} only)")
    patterns = sum(rec.count for rec in records)
    found = sum(part.counts.values())
    if found > patterns:
        raise InvariantViolation(f"{where}: {found} codewords counted in only {patterns} patterns")
    if len(records) == 1:
        tallies = [(w, c) for w, c in sorted(part.counts.items()) if c]
        if shard_digest(records[0].unit, tallies) != records[0].sha256:
            raise InvariantViolation(f"{where}: sha256 does not match the shard and its counts")


def merge_censuses(parts: Sequence[WeightCensus]) -> WeightCensus:
    """Combine the parts of one shard plan into the complete census.

    Parts may have been read from disk, so nothing in them is trusted: all
    share one code and plan identity; their records cover the plan once; each
    record equals its unit of the plan recomputed from (k, t, block size)
    by ``census_unit``, so the plan itself is never built;
    and each part's counts are even weights <= complete_upto that sum to at
    most the patterns its records walk. A one-record part's counts are that
    shard's tallies, so its sha256 is recomputed as well. A dead unit
    (``is_live``) has no tallies, so its record must carry the digest of
    none. A one-part merge validates a complete census.
    """
    if not parts:
        raise ValueError("nothing to merge")
    first = parts[0]
    prov = first.provenance

    def identity(part: WeightCensus) -> tuple:
        return (part.p, part.n, part.k, part.complete_upto, replace(part.provenance, shards=()))

    if any(identity(part) != identity(first) for part in parts):
        raise InvariantViolation("fragments come from different plans or codes")
    seen: dict[int, ShardRecord] = {}
    for part in parts:
        for rec in part.provenance.shards:
            if rec.index in seen:
                raise CheckFailure(f"shard {rec.index} appears more than once")
            seen[rec.index] = rec
    missing = set(range(1, prov.total_shards + 1)) - set(seen)
    if missing:
        raise CheckFailure(f"missing shards: {sorted(missing)}")
    k, t, block_size = first.k, prov.max_info_weight, prov.block_size
    total = census_shard_total(k, t, block_size)
    if total != prov.total_shards or first.complete_upto != 2 * t:
        raise InvariantViolation(
            f"plan claims {prov.total_shards} shards up to weight {first.complete_upto}, but t = "
            f"{t} and block size {block_size} give {total} up to weight {2 * t}"
        )
    for rec in seen.values():
        if not 1 <= rec.index <= total or census_unit(k, t, block_size, rec.index) != rec.unit:
            raise InvariantViolation(
                f"shard {rec.index}: (matrix, size, start_rank, count) = {rec.unit[1:]} is not in the plan"
            )
        if not is_live(rec.matrix, rec.size, first.complete_upto) and rec.sha256 != shard_digest(rec.unit, []):
            raise InvariantViolation(f"shard {rec.index}: tallies recorded for a unit that can hold no codeword")
    totals = dict.fromkeys(range(0, first.complete_upto + 1, 2), 0)
    for part in parts:
        _check_part_counts(part)
        for w, c in part.counts.items():
            totals[w] += c
    shards = tuple(seen[i] for i in sorted(seen))
    return replace(first, counts=totals, provenance=replace(prov, shards=shards))
