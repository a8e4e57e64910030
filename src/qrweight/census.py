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
min_parity = size for matrix 1 and size + 1 for matrix 2. Units stop at size
t = W // 2, where matrix 1 is always live; for even W = 2t every matrix-2
unit of size t is dead (47% of the patterns of the p = 137, t = 4 census),
and odd W has no dead unit. Dead units keep their place in the plan, but no
table is built and no kernel call is made for them. ``pattern_cost`` counts
the patterns of the live units, which is what a census walks.

``count_units`` is the core for any half-rate code, odd weights kept, and
``census_counts`` its one entry, for the extended QR code (``run_census``)
and folded invariant subcodes (``congruence``) alike. ``check_budget`` is
the package's one enumeration budget, counted in kernel lanes: one census
pattern or one walked subcode word, one slot of ``weight_histograms``'s
bit-sliced tables; ``long_run`` lifts its default of 10^8.

Shards are rank intervals of the revolving-door order for combinations.
Patterns of a fixed largest element a_t occupy the consecutive rank interval
[C(a_t, t), C(a_t+1, t) - 1], and ranks obey the reflected recursion

    rank(a_t .. a_1) = C(a_t + 1, t) - 1 - rank(a_t-1 .. a_1)

which splits a shard's interval into blocks (TAOCP 4A, 7.2.1.3), one per
fixed set of top elements above the table depth d. Such a block is the XOR
of the top elements' rows with a lane range of one precomputed table of
d-subset XORs in revolving-door order, where the ranks [lo, hi) of the
d-subsets are the lanes [lo, hi), and ``bitlinalg.weight_histograms``
counts the whole block at once. Counting is order-free, so shards are
independent.

A shard is a plan index and nothing more. A census is counted, written,
read back and merged as index ranges, never unit by unit: ``_intervals``
turns them into rank intervals (matrix, size, lo, hi), one per (matrix,
size) run they meet, by arithmetic on the plan's run starts, and the core
walks each interval once, one kernel call per top prefix however it is
sharded. Its records are a view of the ranges (``ShardRecords``). One cost
model (``rank_cost``) picks each matrix's table depth (``table_depth``) and
cuts the intervals into shares of about equal cost for the workers at any
rank, inside a plan unit too (``share_count``, ``_shares``); a census too
small to repay a child process is counted in the calling one. Both
matrices' tables of the last four codes censused stay cached in the
process (``_parity_tables``), so a census of one of them builds none. The
depth still charges the build, since a one-shot process pays it, and a call
at the price of the head-checked kernel (``KERNEL_CALL_BITS``): at p = 137,
t = 4, matrix 2 walks a depth-3 table in 4 kernel calls, not 70 at depth 2,
while the depth-4 table of (4, 3), no faster once built, would take 7.9 MB.
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
# with the tables built, on the head-checked kernel (``weight_histograms``
# stops a call once no lane is light enough): p = 137, t = 4 gets its fastest
# (3, 3) from 54,780, S_3 at p = 137 its (5, 5) from 43,000 and p = 41, t = 6
# its (6, 5) from 75,970, while p = 137, t = 5 keeps (4, 3). Below 174,425
# p = 41, t = 8 keeps (7, 6), as its (7, 7), no slower built, is slower to
# build. The price is near the middle of 75,970..174,425. On that host 2
# workers beat 1 from a census cost of about 5e8.
KERNEL_CALL_BITS = 120_000
CHILD_SHARE_BITS = 250_000_000  # the least cost of a share worth a child
Interval = tuple[int, int, int, int]  # (matrix, size, lo, hi): the ranks [lo, hi) of one run


def is_live(matrix: int, size: int, max_weight: int) -> bool:
    """Whether a unit (matrix, size) can hold a word of weight <= max_weight.

    Its patterns weigh ``size`` on the systematic half and, to be counted,
    at least size (matrix 1) or size + 1 (matrix 2) on the parity half.
    """
    return 2 * size + (matrix == 2) <= max_weight


def pattern_cost(k: int, max_weight: int) -> int:
    """Patterns a full census to max_weight walks: those of its live units,
    sum(C(k, s), s <= W // 2) + sum(C(k, s), s <= (W - 1) // 2)."""
    sizes = range(max_weight // 2 + 1)
    return sum(comb(k, size) for matrix in (1, 2) for size in sizes if is_live(matrix, size, max_weight))


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
class ShardRecords(Sequence[ShardRecord]):
    """The records of a census's shards, a read-only view of its checked,
    ascending, disjoint, inclusive index ranges (first, last) of the plan (k,
    t, block_size): each record is built (``census_unit``) only when read.
    Two views are equal when their plans and ranges are."""

    k: int
    t: int
    block_size: int
    ranges: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return sum(last + 1 - first for first, last in self.ranges)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(*i.indices(len(self))))
        i += len(self) if i < 0 else 0
        for first, last in self.ranges:
            if 0 <= i <= last - first:
                return ShardRecord._make(census_unit(self.k, self.t, self.block_size, first + i))
            i -= last + 1 - first
        raise IndexError("shard record index out of range")

    def __iter__(self):
        plan = (self.k, self.t, self.block_size)
        return (ShardRecord._make(census_unit(*plan, i)) for first, last in self.ranges for i in range(first, last + 1))


@dataclass(frozen=True)
class CensusProvenance:
    code_digest: str
    max_info_weight: int
    block_size: int
    total_shards: int
    shards: Sequence[ShardRecord]


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


def _intervals(k: int, t: int, block_size: int, ranges: Iterable[tuple[int, int]]) -> list[Interval]:
    """The rank intervals (matrix, size, lo, hi) of ascending, disjoint,
    inclusive index ranges (first, last) of the plan, one per run a range
    meets: the units first..last of the run whose first unit is s hold the
    ranks [(first - s) * block_size, min((last + 1 - s) * block_size, C(k, size)))."""
    starts = _run_starts(k, t, block_size)
    top = min(t, k)  # the plan's largest size
    intervals: list[Interval] = []
    for first, last in ranges:
        run = bisect_right(starts, first) - 1  # the last run starting at or before first
        while first <= last:
            stop = min(last + 1, starts[run + 1])
            matrix, size = run // (top + 1) + 1, run % (top + 1)
            lo = (first - starts[run]) * block_size
            hi = min((stop - starts[run]) * block_size, comb(k, size))
            intervals.append((matrix, size, lo, hi))
            first, run = stop, run + 1
    return intervals


def census_unit(k: int, t: int, block_size: int, index: int) -> tuple[int, int, int, int, int]:
    """Unit ``index`` of the plan, (index, matrix, size, start_rank, count),
    found by arithmetic without the other units."""
    total = census_shard_total(k, t, block_size)
    if not 1 <= index <= total:
        raise ValueError(f"no unit {index}; the plan has units 1..{total}")
    ((matrix, size, lo, hi),) = _intervals(k, t, block_size, ((index, index),))
    return index, matrix, size, lo, hi - lo


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


def rank_cost(k: int, max_weight: int, matrix: int, size: int, rank: int) -> int:
    """The cost of the ranks [0, rank) of the run (matrix, size), 0 if dead:
    k per lane plus KERNEL_CALL_BITS per kernel call at its matrix's depth,
    counted as the blocks that start below ``rank`` clamped to the run, so a
    run's pieces add up to the run and a refused interval has a cost too."""
    if not is_live(matrix, size, max_weight):
        return 0
    blocks = _blocks_below(min(rank, comb(k, size)), size, _depth(k, matrix, max_weight), k)[0]
    return k * rank + KERNEL_CALL_BITS * blocks


@lru_cache(maxsize=8)
def _parity_tables(parity: tuple[int, ...], depth: int) -> tuple[tuple[int, ...], ...]:
    """Revolving-door subset tables of one matrix's parity rows.

    The bound is per code: both matrices' tables of the last four codes
    censused, as many as ``disjoint_information_systematizations`` keeps
    the pair of, so a fold census (S_3) does not evict the extended code's.
    A census of a code at new depths takes two more entries. Each matrix's
    tables are held to SUBSET_TABLE_BITS, so the cache holds at most 64 MB."""
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
    parities: dict[int, tuple[int, ...]], intervals: Sequence[Interval], k: int, max_weight: int
) -> dict[int, int]:
    """Count rank intervals whose parity rows are checked into nonzero
    per-weight totals. Each interval's ranks are checked against its size,
    and each live one is one ``_rank_blocks`` walk, one ``weight_histograms``
    call per block, so a run cut into shards costs what it costs uncut."""
    totals: dict[int, int] = {}
    for matrix, size, lo, hi in intervals:
        if not 0 <= lo < hi <= comb(k, size):
            raise ValueError(f"shard [{lo}, {hi}) outside [0, {comb(k, size)})")
        if not is_live(matrix, size, max_weight):
            continue
        parity, depth = parities[matrix], _depth(k, matrix, max_weight)
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
    totals = _count_share(parities, [(matrix, size, start_rank, start_rank + count)], k, max_weight)
    return index, matrix, size, start_rank, count, tuple(sorted(totals.items()))


def _send_share(conn, parities, intervals, k, max_weight) -> None:
    """Count a share in a child process and send (True, its totals) or
    (False, the exception) back to the caller."""
    try:
        message = (True, _count_share(parities, intervals, k, max_weight))
    except Exception as exc:
        message = (False, exc)
    conn.send(message)
    conn.close()


def _shares(intervals: Sequence[Interval], k: int, max_weight: int, workers: int) -> list[list[Interval]]:
    """Cut the intervals, in order, into ``share_count`` contiguous shares of
    about equal cost (``rank_cost``): share i ends at the first rank where
    the cost so far reaches (i + 1) / count of the total, found by bisection
    over the ranks of the interval it falls in, so a cut may split a unit.
    Every interval, a refused one too, lands in some share."""
    costs = [[rank_cost(k, max_weight, matrix, size, r) for r in (lo, hi)] for matrix, size, lo, hi in intervals]
    total = sum(above - below for below, above in costs)
    count = share_count(total, workers)
    shares: list[list[Interval]] = [[] for _ in range(count)]
    share, done = 0, 0  # the share being filled, and the cost of the intervals before this one
    for (matrix, size, lo, hi), (below, above) in zip(intervals, costs):

        def so_far(r: int) -> int:  # the cost up to rank r, times count
            return (done - below + rank_cost(k, max_weight, matrix, size, r)) * count

        start = lo
        while share < count - 1 and (done + above - below) * count >= total * (share + 1):
            cut = bisect_left(range(start, hi + 1), total * (share + 1), key=so_far) + start
            if cut > start:
                shares[share].append((matrix, size, start, cut))
            start, share = cut, share + 1
        if start < hi or start == lo:
            shares[share].append((matrix, size, start, hi))
        done += above - below
    return shares


def share_count(cost: int, workers: int) -> int:
    """As many shares as keep each at CHILD_SHARE_BITS or more, in [1, workers]."""
    return max(1, min(workers, cost // CHILD_SHARE_BITS))


def count_units(
    g1: BitMatrix,
    g2: BitMatrix,
    intervals: Sequence[Interval],
    max_weight: int,
    *,
    workers: int = 1,
) -> dict[int, int]:
    """The census core: count rank intervals of any half-rate code up to max_weight.

    ``g1`` = [I | A] and ``g2`` = [B | I] generate one k x 2k code; an
    interval (matrix, size, lo, hi) is the ranks [lo, hi) of the size-subsets
    of one matrix's rows, size <= max_weight // 2. Returns the nonzero counts
    of the words of each weight <= max_weight that the intervals hold, in
    weight order; over the full plan every such codeword, odd weights
    included, is counted exactly once. A dead interval is not walked.

    Both matrices are checked once. ``workers`` is the most processes used:
    the intervals are cut into ``share_count`` shares of about equal cost,
    at any rank (``_shares``), and one share, a census too small to repay a
    child, is counted here without multiprocessing. Otherwise the caller
    starts a process for each nonempty share but the first, counts the first
    itself, then takes each child's totals, or its exception, from a one-way
    pipe. Every child is joined, and terminated if still running, however
    the census ends. Linux children are forked, not re-imported: safe only
    while the caller runs no other thread.
    """
    k = g1.nrows
    left_mask = (1 << k) - 1
    parities = {matrix: _parity_rows(matrix, g.rows, k, left_mask) for matrix, g in ((1, g1), (2, g2))}
    shares = _shares(intervals, k, max_weight, workers) if workers > 1 else [intervals]
    if len(shares) == 1:
        return dict(sorted(_count_share(parities, intervals, k, max_weight).items()))
    # imported here so that a census counted in one process does not load multiprocessing
    import multiprocessing

    context = multiprocessing.get_context("fork" if sys.platform == "linux" else None)
    own, *rest = shares
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


def census_counts(
    g: BitMatrix,
    max_weight: int,
    ranges: Sequence[tuple[int, int]] | None = None,
    *,
    block_size: int = DEFAULT_BLOCK_SIZE,
    workers: int = 1,
    long_run: bool = False,
) -> dict[int, int] | None:
    """``count_units``'s totals for the code ``g`` generates, over the plan's
    index ranges given or the whole plan; None when no two disjoint
    information sets are found (``disjoint_information_systematizations``,
    cached per process). The budget is checked then, on the live lanes:
    ``pattern_cost`` for a whole plan."""
    matrices = disjoint_information_systematizations(g)
    if matrices is None:
        return None
    k, t = g.nrows, max_weight // 2
    if ranges is None:
        ranges = ((1, census_shard_total(k, t, block_size)),)
    intervals = _intervals(k, t, block_size, ranges)
    check_budget(_live_lanes(intervals, max_weight), long_run)
    return count_units(*matrices, intervals, max_weight, workers=workers)


def _live_lanes(intervals: Iterable[Interval], max_weight: int) -> int:
    return sum(hi - lo for matrix, size, lo, hi in intervals if is_live(matrix, size, max_weight))


def _ranges_of_indices(indices: Iterable[int], total: int) -> tuple[tuple[int, int], ...]:
    """Shard indices as ascending, disjoint, inclusive ranges (first, last),
    the first index outside the plan's units 1..total a ValueError. A range
    of step 1 is not iterated; any other iterable is sorted and deduplicated."""

    def outside(i: int) -> ValueError:
        return ValueError(f"no such shard indices: {i} is not in the plan's units 1..{total}")

    if isinstance(indices, range) and indices.step == 1:
        for i in (indices.start, total + 1):  # the first index outside the plan is one of these
            if i in indices and not 1 <= i <= total:
                raise outside(i)
        return ((indices.start, indices.stop - 1),) if indices else ()
    wanted = set()
    for i in indices:
        if not 1 <= i <= total:
            raise outside(i)
        wanted.add(i)
    ordered = sorted(wanted)
    starts = [j for j in range(len(ordered)) if j == 0 or ordered[j] > ordered[j - 1] + 1]
    return tuple((ordered[a], ordered[b - 1]) for a, b in zip(starts, [*starts[1:], len(ordered)]))


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

    A thin wrapper over ``census_counts`` that records the shards' index
    ranges and checks that no odd weight occurs. With shard_indices (any
    iterable, ``_ranges_of_indices``) the run covers only those work units and
    returns a fragment for later merging. Results are bit-identical for any
    worker count and block size: counting is order-free and merging is
    plain per-weight addition.
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    max_weight, k = 2 * t, family.k
    total_shards = census_shard_total(k, t, block_size)
    ranges = ((1, total_shards),) if shard_indices is None else _ranges_of_indices(shard_indices, total_shards)
    totals = census_counts(
        family.extended, max_weight, ranges, block_size=block_size, workers=workers, long_run=long_run
    )
    if totals is None:
        raise InvariantViolation(f"no two disjoint information sets found in the p={family.p} extended code")
    for w, c in totals.items():
        if w % 2 and c:
            raise InvariantViolation(f"odd weight {w} counted in an even code")
    counts = {w: totals.get(w, 0) for w in range(0, max_weight + 1, 2)}
    shards = ShardRecords(k, t, block_size, ranges)
    provenance = CensusProvenance(family.code_digest(), t, block_size, total_shards, shards)
    return WeightCensus(family.p, family.n_extended, k, max_weight, counts, provenance)


def census_payload(result: WeightCensus) -> dict:
    """The JSON payload of a census artifact; ``census_from_payload`` inverts it.
    Its shards are ascending, disjoint, inclusive index ranges, [[1, total]]
    for a whole census."""
    prov = result.provenance
    return {
        **vars(result),
        "counts": [[w, c] for w, c in sorted(result.counts.items())],
        "provenance": {**vars(prov), "shards": [list(r) for r in prov.shards.ranges]},
    }


def _typed(value, kind: type):
    if type(value) is not kind:
        expected = "an integer" if kind is int else "a string"
        raise CheckFailure(f"census payload: expected {expected}, got {value!r}")
    return value


def _shard_ranges(ranges, total: int) -> tuple[tuple[int, int], ...]:
    """A payload's shard ranges, each checked: two integers [first, last],
    first <= last, inside the plan's units 1..total and past the end of the
    range before it."""
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
    return tuple(checked)


def census_from_payload(payload: dict) -> WeightCensus:
    """Read a census payload back, checking its shape and its shard ranges
    against the plan total recomputed from (k, t, block size); no record is
    built. Whether the content agrees with the code and the plan is checked
    by ``merge_censuses``, which every census read from disk goes through."""
    try:
        prov = payload["provenance"]
        counts = {_typed(w, int): _typed(c, int) for w, c in payload["counts"]}
        if len(counts) != len(payload["counts"]):
            raise CheckFailure("census payload lists a weight more than once")
        p, n, k, complete_upto = (_typed(payload[f], int) for f in ("p", "n", "k", "complete_upto"))
        t, block_size, total_shards = (_typed(prov[f], int) for f in ("max_info_weight", "block_size", "total_shards"))
        code_digest = _typed(prov["code_digest"], str)
        shards = ShardRecords(k, t, block_size, _shard_ranges(prov["shards"], census_shard_total(k, t, block_size)))
        provenance = CensusProvenance(code_digest, t, block_size, total_shards, shards)
        return WeightCensus(p, n, k, complete_upto, counts, provenance)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckFailure(f"malformed census payload: {exc!r}") from exc


def _check_part_counts(part: WeightCensus, intervals: list[Interval]) -> None:
    """A part's counts must be tallies its own rank intervals could have
    made: one count for every even weight 0..complete_upto and for no other
    weight, no more words than their live lanes (``is_live``)."""
    shards = part.provenance.shards
    where = f"shard {shards.ranges[0][0]}" if len(shards) == 1 else f"part of {len(shards)} shards"
    for w, c in part.counts.items():
        if w % 2 or not 0 <= w <= part.complete_upto or c < 0:
            raise InvariantViolation(f"{where}: count {c} at weight {w} (even, <= {part.complete_upto} only)")
    if len(part.counts) != part.complete_upto // 2 + 1:  # the weights are distinct, even and in range
        raise InvariantViolation(
            f"{where}: counts list {len(part.counts)} weights, not every even weight 0..{part.complete_upto}"
        )
    lanes = _live_lanes(intervals, part.complete_upto)
    found = sum(part.counts.values())
    if found > lanes:
        raise InvariantViolation(f"{where}: {found} codewords counted in only {lanes} live lanes")


def merge_censuses(parts: Sequence[WeightCensus]) -> WeightCensus:
    """Combine the parts of one shard plan into the complete census.

    Parts may have been read from disk, so nothing in them is trusted: all
    share one code and plan identity; their index ranges, sorted and swept,
    cover each unit of the plan recomputed from (k, t, block size) once; and
    each part lists a count for every even weight 0..complete_upto and no
    other, summing to at most the live lanes of its rank intervals. A
    one-part merge validates a complete census.
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
    ranges = sorted(r for part in parts for r in part.provenance.shards.ranges)
    for (_, before), (start, last) in zip([(0, 0), *ranges], ranges):
        if not 1 <= start <= last <= total:
            raise InvariantViolation(f"shard range [{start}, {last}] is not in the plan's units 1..{total}")
        if start <= before:
            raise CheckFailure(f"shard {start} appears more than once")
    missing = [[a + 1, b - 1] for (_, a), (b, _) in zip([(0, 0), *ranges], [*ranges, (total + 1, 0)]) if b > a + 1]
    if missing:
        raise CheckFailure(f"missing shards: {missing}")
    for part in parts:
        _check_part_counts(part, _intervals(k, t, block_size, part.provenance.shards.ranges))
    totals = dict.fromkeys(range(0, first.complete_upto + 1, 2), 0)
    for part in parts:
        for w, c in part.counts.items():
            totals[w] += c
    return replace(first, counts=totals, provenance=replace(prov, shards=ShardRecords(k, t, block_size, ((1, total),))))
