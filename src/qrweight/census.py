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
Dead units keep their place in the plan and their records, but no table
is built and no kernel call is made for them.
``pattern_cost`` counts the patterns of the live units, which is what a
census walks.

``count_units`` is the core: it counts work units of any half-rate code,
given its two systematic row sets and the bound W, into per-weight totals,
and keeps odd weights.
``census_counts`` is its one entry, for the extended QR code (``run_census``)
and folded invariant subcodes (``congruence``) alike: it takes the code's pair
of systematic matrices (``census_setup``), checks the budget, plans and counts.
``run_census`` adds the records, the provenance and the odd-weight check.

``check_budget`` is the package's one enumeration budget, counted in kernel
lanes: one lane is one census pattern or one walked subcode word, one slot of
``weight_histograms``'s bit-sliced tables. Both enumerators run at tens of
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
counts the whole block at once. Counting is order-free and a shard's
count comes from its own interval alone, so shards are independent.

A shard is a plan index and nothing more: no unit has a tally or a digest
of its own. The core counts by runs, not by shards: a run is a sequence of
units of one (matrix, size), each starting where the one before it stops,
and it is one walk of the recursion over [its first start, its last stop),
one kernel call per top prefix however many shards it is cut into. The
matrices' rows are checked once per census. A census artifact lists its
shards as index ranges, and the records are rebuilt from the plan
(``census_unit``) when it is read back.

One cost model (``unit_costs``) picks each matrix's table depth
(``table_depth``) and cuts the units into shares for the workers
(``share_count``, ``_shares``): ``workers`` is an upper bound, and a census
too small to repay a child process is counted in the calling one. The
tables of both matrices stay cached in the process, so a second census of
the same code builds none.
"""

from __future__ import annotations

import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from functools import lru_cache
from math import comb
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .bitlinalg import BitMatrix, disjoint_information_systematizations, rd_subset_columns, weight_histograms
from .errors import BudgetExceeded, CheckFailure, InvariantViolation

if TYPE_CHECKING:
    from .qrcodes import QrCodeFamily

DEFAULT_BLOCK_SIZE = 10**8
DEFAULT_PATTERN_BUDGET = 10**8
SUBSET_TABLE_BITS = 1 << 26  # columns x lanes of one matrix's subset tables, about 8 MB
# Costs are bits of kernel work, k per lane of a k-column table. A kernel
# call's fixed cost, fitted on a 2-vCPU host by timing censuses at each depth
# with the tables built: p = 137, t = 5 gets its fastest (4, 3) from 28,000,
# S_3 at p = 137 keeps 4 (5 is no faster built) below 43,000. On that host
# 2 workers beat 1 from a census cost of about 5e8. It was fitted before the
# kernel's head check (``bitlinalg.weight_histograms``), which lets a call
# whose lanes are all too heavy stop after g of its k columns; it is kept, so
# every table depth and share is what it was.
KERNEL_CALL_BITS = 36_000
CHILD_SHARE_BITS = 250_000_000  # the least cost of a share worth a child


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


class ShardRecord(NamedTuple):
    """Audit record of one processed shard: its unit of the plan."""

    index: int
    matrix: int
    size: int
    start_rank: int
    count: int

    @property
    def unit(self) -> tuple[int, int, int, int, int]:
        return tuple(self)


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
    order. Sizes above k hold no units, so the runs stop at size min(t, k):
    no index moves, and a huge t read from disk costs no more than t = k.
    """
    if block_size < 1:
        raise ValueError("block_size must be >= 1")
    starts = [1]
    for _matrix in (1, 2):
        for size in range(min(t, k) + 1):
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
    run = bisect_right(starts, index) - 1  # the last run starting at or before index
    top = min(t, k)  # the plan's largest size
    matrix, size = run // (top + 1) + 1, run % (top + 1)
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
    element a hold the ranks [C(a, t), end = C(a + 1, t)), and below a they
    walk the (t-1)-subsets of [0, a) backwards, rank r at lane end - 1 - r,
    so their part [lo, top_hi) of the interval is the inner interval
    [end - top_hi, end - lo). The recursion stops at the table depth and
    yields one block per fixed top prefix.
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
    among ties, that minimises the census cost of the build and the calls,
    k * lanes(d) + KERNEL_CALL_BITS * calls(d), with k * lanes(d) <= cap;
    depth 0 is allowed under any cap. The walked lanes are the same at every
    depth, and so are the counts.
    """
    best_cost, best = None, 0
    lanes = 0
    for d in range(min(top, k) + 1):
        lanes += comb(k, d)
        if d and k * lanes > cap:
            break
        calls = d + 1 + sum(comb(k - d, s - d) for s in range(d + 1, top + 1))
        cost = KERNEL_CALL_BITS * calls + k * lanes
        if best_cost is None or cost < best_cost:
            best_cost, best = cost, d
    return best


def _depth(k: int, matrix: int, max_weight: int) -> int:
    """The table depth of one matrix of a census to max_weight."""
    return table_depth(k, (max_weight - (matrix == 2)) // 2, SUBSET_TABLE_BITS)


def _blocks_below(rank: int, t: int, depth: int, n: int) -> tuple[int, int]:
    """(blocks that start below ``rank``, blocks that end at or below it) in
    the ``_rank_blocks`` walk of the t-subsets of n rows at table depth
    ``depth``, 0 <= rank <= C(n, t). Under its largest element a, a block
    starts below the rank iff its reflected inner block ends above
    C(a + 1, t) - rank, and ends at or below it iff that one starts there."""
    if rank <= 0:
        return 0, 0
    if t <= depth:
        return 1, int(rank >= comb(n, t))
    starts = _binomials(n, t)
    a = bisect_left(starts, rank) - 1  # the largest element of rank - 1
    # blocks with largest element below a, plus those with a
    blocks = comb(a - depth, t - depth) + (comb(a - depth, t - 1 - depth) if t - 1 > depth else 1)
    inner_starts, inner_ends = _blocks_below(starts[a + 1] - rank, t - 1, depth, a)
    return blocks - inner_ends, blocks - inner_starts


def unit_costs(units: Sequence[tuple[int, int, int, int, int]], k: int, max_weight: int) -> list[int]:
    """Each unit's cost: k per live lane plus KERNEL_CALL_BITS per kernel
    call at its matrix's depth, counted as the blocks that start in its ranks
    so that a run's units add up to the run; a dead unit costs 0. Ranks are
    clamped, so a unit that ``count_units`` refuses gets a cost too."""
    costs = []
    run = stop = None
    for _, matrix, size, start, count in units:
        if (matrix, size) != run:
            run, stop = (matrix, size), None
            live, depth, total = is_live(matrix, size, max_weight), _depth(k, matrix, max_weight), comb(k, size)
        if not live:
            costs.append(0)
            continue
        if start != stop:  # not where the unit before it stopped
            below = _blocks_below(min(start, total), size, depth, k)[0]
        stop = start + count
        above = _blocks_below(min(stop, total), size, depth, k)[0]
        costs.append(k * count + KERNEL_CALL_BITS * (above - below))
        below = above
    return costs


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
) -> dict[int, int]:
    """Count units whose parity rows are checked, run by run, into nonzero
    per-weight totals.

    A run is a maximal sequence of units of one (matrix, size) in which each
    unit starts where the one before it stops. Each unit's ranks are checked
    against its size, and each live run is one ``_rank_blocks`` walk over
    [its first start, its last stop), one ``weight_histograms`` call per
    block. A run cut into shards therefore costs what it costs uncut.
    """
    runs: list[list[int]] = []  # [matrix, size, start, stop]
    for _, matrix, size, start, count in units:
        if not 0 <= start < start + count <= comb(k, size):
            raise ValueError(f"shard [{start}, {start + count}) outside [0, {comb(k, size)})")
        if runs and runs[-1][3] == start and runs[-1][:2] == [matrix, size]:
            runs[-1][3] = start + count
        else:
            runs.append([matrix, size, start, start + count])
    totals: dict[int, int] = {}
    for matrix, size, lo, hi in runs:
        if not is_live(matrix, size, max_weight):
            continue
        parity = parities[matrix]
        depth = _depth(k, matrix, max_weight)
        tables = _parity_tables(parity, depth)
        min_parity = size + (matrix == 2)
        for base, d, block_lo, block_hi in _rank_blocks(lo, hi, size, depth, 0, parity):
            for q, c in weight_histograms(tables[d], base, block_lo, block_hi, max_weight - size, min_parity).items():
                totals[size + q] = totals.get(size + q, 0) + c
    return totals


def _count_shard(args: tuple) -> tuple[int, int, int, int, int, tuple[tuple[int, int], ...]]:
    """One unit, given the rows of its matrix only, with its nonzero (weight,
    count) tallies: ``args`` is (index, matrix, size, start_rank, count, rows,
    k, left_mask, max_weight). The rows and ranks are checked as in
    ``count_units``, and a dead unit (``is_live``) comes back with none."""
    index, matrix, size, start_rank, count, rows, k, left_mask, max_weight = args
    parities = {matrix: _parity_rows(matrix, rows, k, left_mask)}
    unit = (index, matrix, size, start_rank, count)
    return (*unit, tuple(sorted(_count_share(parities, [unit], k, max_weight).items())))


def _send_share(conn, parities, units, k, max_weight) -> None:
    """Count a share in a child process and send (True, its totals) or
    (False, the exception) back to the caller."""
    try:
        message = (True, _count_share(parities, units, k, max_weight))
    except Exception as exc:
        message = (False, exc)
    conn.send(message)
    conn.close()


def _shares(units: Sequence[tuple[int, int, int, int, int]], costs: Sequence[int], count: int) -> list[list]:
    """Cut the units, in order, into ``count`` contiguous shares of about
    equal cost; a unit goes to the share that holds its middle cost."""
    total = sum(costs) or 1
    shares: list[list] = [[] for _ in range(count)]
    done = 0
    for unit, cost in zip(units, costs):
        shares[min(count - 1, (2 * done + cost) * count // (2 * total))].append(unit)
        done += cost
    return shares


def share_count(cost: int, workers: int) -> int:
    """As many shares as keep each at CHILD_SHARE_BITS or more, in [1, workers]."""
    return max(1, min(workers, cost // CHILD_SHARE_BITS))


def count_units(
    g1: BitMatrix,
    g2: BitMatrix,
    units: Sequence[tuple[int, int, int, int, int]],
    max_weight: int,
    *,
    workers: int = 1,
) -> dict[int, int]:
    """The census core: count work units of any half-rate code up to max_weight.

    ``g1`` = [I | A] and ``g2`` = [B | I] generate one k x 2k code; ``units``
    are (index, matrix, size, start_rank, count) with size <= max_weight // 2.
    Returns the nonzero counts of the words of each weight <= max_weight
    that the units hold, in weight order. Over the full plan to
    t = max_weight // 2 every codeword of weight <= max_weight is counted
    exactly once, odd weights included: its lighter half weighs at most t
    and is reached by one of the two matrices. A dead unit (``is_live``) is
    not walked: a word found through matrix 2 has a strictly lighter right
    half, so a pattern of size s there needs weight >= 2s + 1, and none of
    size t fits under an even bound W = 2t. Odd bounds have no dead units.

    Both matrices are checked once. The units are counted in runs of one
    (matrix, size) (``_count_share``), so a run cut into shards costs what it
    costs uncut. ``workers`` is the most processes used: the units are
    cut into ``share_count`` contiguous shares of about equal cost, and one
    share, a census too small to repay a child, is counted here without
    multiprocessing. Otherwise the caller starts a process for each nonempty
    share but the first, counts the first itself, then takes each child's
    totals, or its exception, from a one-way pipe. Every child is joined, and
    terminated if still running, however the census ends. Linux children are
    forked, not re-imported: safe only while the caller runs no other thread.
    """
    k = g1.nrows
    left_mask = (1 << k) - 1
    parities = {matrix: _parity_rows(matrix, g.rows, k, left_mask) for matrix, g in ((1, g1), (2, g2))}
    if workers > 1:
        costs = unit_costs(units, k, max_weight)
        workers = share_count(sum(costs), workers)
    if workers == 1:
        return dict(sorted(_count_share(parities, units, k, max_weight).items()))
    # imported here so that a census counted in one process does not load multiprocessing
    import multiprocessing

    context = multiprocessing.get_context("fork" if sys.platform == "linux" else None)
    own, *rest = _shares(units, costs, workers)
    children = []
    try:
        for share in rest:
            if share:
                receiver, sender = context.Pipe(duplex=False)
                child = context.Process(target=_send_share, args=(sender, parities, share, k, max_weight))
                child.start()
                children.append((child, receiver))
                sender.close()  # the child holds the only sending end, so its exit ends the pipe
        totals = _count_share(parities, own, k, max_weight)
        for child, receiver in children:
            try:
                ok, value = receiver.recv()
            except EOFError:
                child.join()
                message = f"census worker exited with code {child.exitcode} before sending its tallies"
                raise RuntimeError(message) from None
            if not ok:
                raise value
            for w, c in value.items():
                totals[w] = totals.get(w, 0) + c
    finally:
        for child, receiver in children:
            if child.is_alive():
                child.terminate()
            child.join()
            receiver.close()
    return dict(sorted(totals.items()))


def census_setup(g: BitMatrix) -> tuple[BitMatrix, BitMatrix] | None:
    """The k x 2k code's matrices systematic on disjoint information sets (in
    permuted columns), or None: the one place a census finds its pair."""
    return disjoint_information_systematizations(g)


def census_counts(
    g: BitMatrix,
    max_weight: int,
    units: Sequence[tuple[int, int, int, int, int]] | None = None,
    *,
    block_size: int = DEFAULT_BLOCK_SIZE,
    workers: int = 1,
    long_run: bool = False,
) -> tuple[list, dict[int, int]] | None:
    """The units counted and ``count_units``'s per-weight totals of the words
    of weight <= max_weight of the code ``g`` generates; None when
    ``census_setup`` finds no pair. The units are the whole plan unless given.
    The budget is checked after the pair is found, on ``units`` or else on
    ``pattern_cost``, before the plan is built."""
    matrices = census_setup(g)
    if matrices is None:
        return None
    if units is None:
        check_budget(pattern_cost(g.nrows, max_weight), long_run)
        units = census_work_units(g.nrows, max_weight // 2, block_size)
    else:
        live = sum(count for _, matrix, size, _, count in units if is_live(matrix, size, max_weight))
        check_budget(live, long_run)
    return units, count_units(*matrices, units, max_weight, workers=workers)


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

    A thin wrapper over ``census_counts`` (which checks the budget after the
    pair is found, before the plan is built) that picks the shards,
    records the provenance and checks that no odd weight occurs.
    It returns one record per unit it covered. With shard_indices (any
    iterable, a range of a..b included) the run covers only those work
    units, found by arithmetic (``census_unit``) without the plan and checked
    against their own live patterns, and returns a fragment for later
    merging; an index outside the plan is a ValueError, raised at the first
    such index without expanding the rest.
    Results are bit-identical for any worker count and block size: counting
    is order-free and merging is plain per-weight addition.
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    max_weight = 2 * t
    total_shards = census_shard_total(family.k, t, block_size)
    units = None
    if shard_indices is not None:
        wanted = set()
        for i in shard_indices:
            if not 1 <= i <= total_shards:
                raise ValueError(f"no such shard indices: {i} is not in the plan's units 1..{total_shards}")
            wanted.add(i)
        units = [census_unit(family.k, t, block_size, i) for i in sorted(wanted)]
    counted = census_counts(
        family.extended, max_weight, units, block_size=block_size, workers=workers, long_run=long_run
    )
    if counted is None:
        raise InvariantViolation(f"no two disjoint information sets found in the p={family.p} extended code")
    units, totals = counted
    records = tuple(map(ShardRecord._make, units))
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
            shards=records,
        ),
    )


def _index_ranges(indices: Iterable[int]) -> list[list[int]]:
    """Ascending indices as inclusive ranges [first, last] of consecutive ones."""
    ranges: list[list[int]] = []
    for i in indices:
        if ranges and ranges[-1][1] == i - 1:
            ranges[-1][1] = i
        else:
            ranges.append([i, i])
    return ranges


def census_payload(result: WeightCensus) -> dict:
    """The JSON payload of a census artifact; ``census_from_payload`` inverts it.
    Its shards are ascending, disjoint, inclusive index ranges, [[1, total]]
    for a whole census."""
    prov = result.provenance
    return {
        **vars(result),
        "counts": [[w, c] for w, c in sorted(result.counts.items())],
        "provenance": {**vars(prov), "shards": _index_ranges(sorted(rec.index for rec in prov.shards))},
    }


def _typed(value, kind: type):
    if type(value) is not kind:
        expected = "an integer" if kind is int else "a string"
        raise CheckFailure(f"census payload: expected {expected}, got {value!r}")
    return value


def _shard_ranges(ranges, total: int) -> list[tuple[int, int]]:
    """A payload's shard ranges, each checked before any is expanded: two
    integers [first, last], first <= last, inside the plan's units 1..total
    and past the end of the range before it."""
    checked: list[tuple[int, int]] = []
    for item in ranges:
        if type(item) is not list or len(item) != 2 or any(type(i) is not int for i in item):
            raise CheckFailure(f"census payload: shard range {item!r} is not two integers")
        first, last = item
        if first > last:
            raise CheckFailure(f"census payload: shard range {item} is reversed")
        if first < 1 or last > total:
            raise CheckFailure(f"census payload: shard range {item} is not in the plan's units 1..{total}")
        if checked and first <= checked[-1][1]:
            raise CheckFailure(f"census payload: shard range {item} overlaps or precedes {list(checked[-1])}")
        checked.append((first, last))
    return checked


def census_from_payload(payload: dict) -> WeightCensus:
    """Read a census payload back, checking its shape and its shard ranges.

    The ranges are checked against the plan total recomputed from (k, t,
    block size) before any record is built; the records are then the plan's
    units (``census_unit``). Whether the content agrees with the code and
    the plan is checked by ``merge_censuses``, which every census read from
    disk goes through.
    """
    try:
        prov = payload["provenance"]
        counts = {_typed(w, int): _typed(c, int) for w, c in payload["counts"]}
        if len(counts) != len(payload["counts"]):
            raise CheckFailure("census payload lists a weight more than once")
        p, n, k, complete_upto = (_typed(payload[f], int) for f in ("p", "n", "k", "complete_upto"))
        t, block_size, total_shards = (_typed(prov[f], int) for f in ("max_info_weight", "block_size", "total_shards"))
        code_digest = _typed(prov["code_digest"], str)
        ranges = _shard_ranges(prov["shards"], census_shard_total(k, t, block_size))
        shards = tuple(
            ShardRecord._make(census_unit(k, t, block_size, i)) for first, last in ranges for i in range(first, last + 1)
        )
        return WeightCensus(
            p, n, k, complete_upto, counts, CensusProvenance(code_digest, t, block_size, total_shards, shards)
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckFailure(f"malformed census payload: {exc!r}") from exc


def _check_part_counts(part: WeightCensus) -> None:
    """A part's counts must be tallies its own units could have made: one
    count for every even weight 0..complete_upto and for no other weight,
    no more words than the live lanes of its units (``is_live``)."""
    records = part.provenance.shards
    where = f"shard {records[0].index}" if len(records) == 1 else f"part of {len(records)} shards"
    for w, c in part.counts.items():
        if w % 2 or not 0 <= w <= part.complete_upto or c < 0:
            raise InvariantViolation(f"{where}: count {c} at weight {w} (even, <= {part.complete_upto} only)")
    if len(part.counts) != part.complete_upto // 2 + 1:  # the weights are distinct, even and in range
        raise InvariantViolation(
            f"{where}: counts list {len(part.counts)} weights, not every even weight 0..{part.complete_upto}"
        )
    lanes = sum(rec.count for rec in records if is_live(rec.matrix, rec.size, part.complete_upto))
    found = sum(part.counts.values())
    if found > lanes:
        raise InvariantViolation(f"{where}: {found} codewords counted in only {lanes} live lanes")


def merge_censuses(parts: Sequence[WeightCensus]) -> WeightCensus:
    """Combine the parts of one shard plan into the complete census.

    Parts may have been read from disk, so nothing in them is trusted: all
    share one code and plan identity; their records cover every index of the
    plan exactly once; each record equals its unit of the plan recomputed
    from (k, t, block size) by ``census_unit``, so the plan itself is never
    built; and each part lists a count for every even weight
    0..complete_upto and no other, summing to at most the live lanes of its
    units, so a part of dead units (``is_live``) counts nothing. The counts
    are checked before the merged counts are built, so the merge holds no
    more weights than the parts list. A one-part merge validates a complete
    census.
    """
    if not parts:
        raise ValueError("nothing to merge")
    first = parts[0]
    prov = first.provenance

    def identity(part: WeightCensus) -> tuple:
        return (part.p, part.n, part.k, part.complete_upto, replace(part.provenance, shards=()))

    if any(identity(part) != identity(first) for part in parts):
        raise InvariantViolation("fragments come from different plans or codes")
    k, t, block_size = first.k, prov.max_info_weight, prov.block_size
    total = census_shard_total(k, t, block_size)
    if total != prov.total_shards or first.complete_upto != 2 * t:
        raise InvariantViolation(
            f"plan claims {prov.total_shards} shards up to weight {first.complete_upto}, but t = "
            f"{t} and block size {block_size} give {total} up to weight {2 * t}"
        )
    seen: dict[int, ShardRecord] = {}
    for part in parts:
        for rec in part.provenance.shards:
            if rec.index in seen:
                raise CheckFailure(f"shard {rec.index} appears more than once")
            seen[rec.index] = rec
    missing = set(range(1, total + 1)) - set(seen)
    if missing:
        raise CheckFailure(f"missing shards: {sorted(missing)}")
    for rec in seen.values():
        if not 1 <= rec.index <= total or census_unit(k, t, block_size, rec.index) != rec.unit:
            raise InvariantViolation(
                f"shard {rec.index}: (matrix, size, start_rank, count) = {rec.unit[1:]} is not in the plan"
            )
    for part in parts:
        _check_part_counts(part)
    totals = dict.fromkeys(range(0, first.complete_upto + 1, 2), 0)
    for part in parts:
        for w, c in part.counts.items():
            totals[w] += c
    shards = tuple(seen[i] for i in sorted(seen))
    return replace(first, counts=totals, provenance=replace(prov, shards=shards))
