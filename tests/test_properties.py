"""Property tests of the combinatorial core: rank/unrank, the revolving-door step,
the revolving-door subset tables and blocks, shard plans, merges."""

import json
from dataclasses import replace
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrweight import bitlinalg
from qrweight.census import (
    ShardRecord,
    ShardRecords,
    _intervals,
    _rank_blocks,
    census_from_payload,
    census_payload,
    census_shard_total,
    census_unit,
    census_work_units,
    merge_censuses,
    run_census,
)

from qrweight.errors import CheckFailure, InvariantViolation

from conftest import CombPattern, cover_refusal, plan_runs, plan_units, rd_rank, rd_step, rd_unrank


def lane(columns, x) -> int:
    """Word x of a bit-sliced table."""
    return sum(((col >> x) & 1) << j for j, col in enumerate(columns))


def subset_xor(rows, c: CombPattern) -> int:
    word = 0
    for i in c.elements:
        word ^= rows[i]
    return word


@st.composite
def patterns(draw):
    s = draw(st.integers(1, 40))
    elements = draw(st.sets(st.integers(0, s - 1), max_size=min(s, 8)))
    return CombPattern(s, tuple(sorted(elements)))


@settings(max_examples=200, deadline=None)
@given(patterns())
def test_unrank_inverts_rank(c):
    r = rd_rank(c)
    assert 0 <= r < comb(c.s, c.t)
    assert rd_unrank(r, c.s, c.t) == c


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_step_moves_to_the_next_rank(data):
    s = data.draw(st.integers(1, 69))  # 69 is k at p = 137
    t = data.draw(st.integers(0, min(s, 8)))
    total = comb(s, t)
    r = data.draw(st.one_of(st.integers(0, total - 1), st.just(total - 1)))
    before = rd_unrank(r, s, t).elements
    c = list(before)
    step = rd_step(c, s)
    if r == total - 1:
        assert step is None and tuple(c) == before
        return
    after = rd_unrank(r + 1, s, t).elements
    assert tuple(c) == after
    removed, added = step
    assert ({removed}, {added}) == (set(before) - set(after), set(after) - set(before))


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(1, 20),
    t=st.integers(0, 4),
    block_size=st.one_of(st.integers(1, 50), st.integers(51, 10**9)),
)
def test_work_units_tile_every_rank_range(k, t, block_size):
    units = census_work_units(k, t, block_size)
    assert [u[0] for u in units] == list(range(1, len(units) + 1))
    for matrix in (1, 2):
        for size in range(t + 1):
            end = 0
            for _, m, sz, start, count in units:
                if (m, sz) == (matrix, size):
                    assert start == end and 1 <= count <= block_size
                    end += count
            assert end == comb(k, size)


@settings(max_examples=100, deadline=None)
@given(
    k=st.integers(0, 24),
    t=st.integers(0, 6),
    block_size=st.one_of(st.integers(1, 60), st.integers(61, 10**9)),
)
def test_census_unit_is_the_unit_of_the_plan(k, t, block_size):
    units = plan_units(k, t, block_size)
    assert census_work_units(k, t, block_size) == units
    assert census_shard_total(k, t, block_size) == len(units)
    assert [census_unit(k, t, block_size, i) for i in range(1, len(units) + 1)] == units
    for index in (0, len(units) + 1):
        with pytest.raises(ValueError, match="no unit"):
            census_unit(k, t, block_size, index)


def index_ranges(indices) -> tuple[tuple[int, int], ...]:
    """Ascending indices as inclusive ranges of consecutive ones, one index at a time."""
    ranges: list[list[int]] = []
    for i in sorted(set(indices)):
        if ranges and ranges[-1][1] == i - 1:
            ranges[-1][1] = i
        else:
            ranges.append([i, i])
    return tuple(map(tuple, ranges))


@st.composite
def plan_and_ranges(draw):
    """A small plan (k, t, block size) and ranges of a random set of its indices."""
    k = draw(st.integers(0, 12))
    t = draw(st.integers(0, 5))
    block_size = draw(st.integers(1, 50))
    total = census_shard_total(k, t, block_size)
    indices = draw(st.sets(st.integers(1, total))) if draw(st.booleans()) else range(1, total + 1)
    return k, t, block_size, index_ranges(indices)


@settings(max_examples=300, deadline=None)
@given(plan_and_ranges())
def test_intervals_are_the_units_grouped_into_runs(plan):
    k, t, block_size, ranges = plan
    wanted = {i for first, last in ranges for i in range(first, last + 1)}
    units = [u for u in plan_units(k, t, block_size) if u[0] in wanted]
    assert _intervals(k, t, block_size, ranges) == plan_runs(units)


@settings(max_examples=200, deadline=None)
@given(plan_and_ranges(), st.data())
def test_shard_records_view_matches_a_tuple_of_records(plan, data):
    k, t, block_size, ranges = plan
    wanted = {i for first, last in ranges for i in range(first, last + 1)}
    records = tuple(ShardRecord._make(u) for u in plan_units(k, t, block_size) if u[0] in wanted)
    view = ShardRecords(k, t, block_size, ranges)
    assert len(view) == len(records)
    assert tuple(view) == records
    assert [view[i] for i in range(-len(records), len(records))] == list(records + records)
    for i in (len(records), -len(records) - 1):
        with pytest.raises(IndexError):
            view[i]
    bounds = st.one_of(st.none(), st.integers(-len(records) - 2, len(records) + 2))
    step = data.draw(st.one_of(st.none(), st.integers(1, 4), st.integers(-4, -1)))
    cut = slice(data.draw(bounds), data.draw(bounds), step)
    assert view[cut] == records[cut]
    assert sum(rec.count for rec in view) == sum(rec.count for rec in records)
    assert view == ShardRecords(k, t, block_size, ranges)
    assert view != ShardRecords(k, t + 1, block_size, ranges)
    assert view != ShardRecords(k, t, block_size, ranges[1:] if ranges else ((1, 1),))


@st.composite
def covers(draw, total):
    """Parts of a plan of ``total`` units: a cut of 1..total into index sets,
    then a few indices of 0..total + 1 toggled in random parts, each leaving
    a gap, an overlap or an index outside the plan."""
    cuts = sorted(draw(st.sets(st.integers(2, total), max_size=5)))
    parts = [set(range(a, b)) for a, b in zip([1, *cuts], [*cuts, total + 1])]
    for _ in range(draw(st.integers(0, 3))):
        draw(st.sampled_from(parts)).symmetric_difference_update({draw(st.integers(0, total + 1))})
    return parts


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_merge_sweep_accepts_exactly_the_covers_a_set_accepts(family17, data):
    k, t, block_size = family17.k, 2, data.draw(st.sampled_from([1, 3, 10]))
    whole = run_census(family17, t, block_size=block_size)
    total = whole.provenance.total_shards
    drawn = data.draw(covers(total))
    ranges = [index_ranges(indices) for indices in drawn]
    zero = dict.fromkeys(whole.counts, 0)
    parts = [
        replace(whole, counts=zero, provenance=replace(whole.provenance, shards=ShardRecords(k, t, block_size, r)))
        for r in ranges
    ]
    refusal = cover_refusal(drawn, total)
    if refusal is None:
        assert merge_censuses(parts).provenance.shards == whole.provenance.shards
        return
    with pytest.raises((CheckFailure, InvariantViolation)) as refused:
        merge_censuses(parts)
    if all(1 <= i <= total for indices in drawn for i in indices):
        assert {"duplicate": "appears more than once", "missing": "missing shards"}[refusal] in str(refused.value)


P17_T, P17_BLOCK = 4, 40


@pytest.fixture(scope="module")
def p17_whole(family17):
    return census_payload(run_census(family17, P17_T, block_size=P17_BLOCK))


@st.composite
def partitions(draw, n):
    """An ordering of 1..n cut into consecutive, nonempty groups."""
    order = draw(st.permutations(range(1, n + 1)))
    cuts = draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
    groups, current = [], [order[0]]
    for index, cut in zip(order[1:], cuts):
        if cut:
            groups.append(current)
            current = []
        current.append(index)
    return groups + [current]


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_any_fragmentation_merges_to_the_whole(family17, p17_whole, data):
    groups = data.draw(partitions(p17_whole["provenance"]["total_shards"]))
    parts = []
    for group in groups:
        fragment = run_census(family17, P17_T, block_size=P17_BLOCK, shard_indices=group)
        parts.append(census_from_payload(json.loads(json.dumps(census_payload(fragment)))))
    assert census_payload(merge_censuses(parts)) == p17_whole


@st.composite
def random_rows(draw):
    k = draw(st.integers(0, 12))
    width = draw(st.integers(0, 16))
    return [draw(st.integers(0, (1 << width) - 1)) for _ in range(k)], width


@settings(max_examples=100, deadline=None)
@given(random_rows(), st.data())
def test_subset_tables_follow_the_revolving_door_ranks(rows_width, data):
    rows, width = rows_width
    k = len(rows)
    depth = data.draw(st.integers(0, k))
    tables = bitlinalg.rd_subset_columns(rows, width, depth)
    assert len(tables) - 1 == depth
    for d, table in enumerate(tables):
        assert len(table) == width
        assert all(col >> comb(k, d) == 0 for col in table)
        for x in range(comb(k, d)):
            assert lane(table, x) == subset_xor(rows, rd_unrank(x, k, d)), (d, x)


@settings(max_examples=100, deadline=None)
@given(random_rows(), st.integers(-1, 14))
def test_subset_tables_stop_at_the_depth_cap(rows_width, max_depth):
    rows, width = rows_width
    full = bitlinalg.rd_subset_columns(rows, width, len(rows))
    capped = bitlinalg.rd_subset_columns(rows, width, max_depth)
    assert capped == full[: max(0, max_depth) + 1]


@settings(max_examples=150, deadline=None)
@given(random_rows(), st.data())
def test_rank_blocks_cover_exactly_the_shard(rows_width, data):
    rows, width = rows_width
    k = len(rows)
    # bit width + i marks row i, so a word names its subset exactly
    rows = [row | 1 << (width + i) for i, row in enumerate(rows)]
    t = data.draw(st.integers(0, k))
    lo = data.draw(st.integers(0, comb(k, t) - 1))
    hi = data.draw(st.integers(lo + 1, comb(k, t)))
    depth = data.draw(st.integers(0, t))
    tables = bitlinalg.rd_subset_columns(rows, width + k, k)  # all depths at this size
    blocks = list(_rank_blocks(lo, hi, t, depth, 0, rows))
    found = []
    for base, d, start, end in blocks:
        assert d <= depth and 0 <= start < end <= comb(k, d), (d, start, end)
        found.extend(base ^ lane(tables[d], x) for x in range(start, end))
    assert sorted(found) == sorted(subset_xor(rows, rd_unrank(r, k, t)) for r in range(lo, hi))
    # one block per fixed top prefix: the elements above the table depth
    patterns = [rd_unrank(r, k, t) for r in range(lo, hi)]
    assert len(blocks) == len({c.elements[depth:] for c in patterns})
