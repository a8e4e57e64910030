import multiprocessing
import os
import re
import subprocess
import sys
import time
from dataclasses import replace
from math import comb
from pathlib import Path

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import qrweight
from qrweight import bitlinalg, census
from qrweight.bitlinalg import BitMatrix, disjoint_information_systematizations
from qrweight.census import (
    _count_shard,
    census_from_payload,
    census_payload,
    census_work_units,
    merge_censuses,
    run_census,
)
from qrweight.cli import _digest
from qrweight.errors import BudgetExceeded, CheckFailure, InvariantViolation

from conftest import CombPattern, rd_rank, rd_successor, rd_unrank, scalar_count_shard


def full_walk(s, t):
    walk = []
    c = CombPattern(s, tuple(range(t)))
    while c is not None:
        walk.append(c)
        c = rd_successor(c)
    return walk


def test_walk_c53_single_exchange():
    walk = full_walk(5, 3)
    assert len(walk) == 10
    assert len({w.elements for w in walk}) == 10
    for a, b in zip(walk, walk[1:]):
        left, right = set(a.elements), set(b.elements)
        assert len(left - right) == 1 and len(right - left) == 1


def test_walk_degenerate_sizes():
    assert [w.elements for w in full_walk(4, 4)] == [(0, 1, 2, 3)]
    assert [w.elements for w in full_walk(4, 0)] == [()]


def test_rank_matches_walk_position():
    for i, pattern in enumerate(full_walk(8, 3)):
        assert rd_rank(pattern) == i
        assert rd_unrank(i, 8, 3) == pattern


def test_rank_single_element():
    for a in range(9):
        assert rd_rank(CombPattern(9, (a,))) == a


def test_fixed_top_element_rank_interval():
    # patterns with a fixed largest element fill [C(a_t, t), C(a_t+1, t) - 1]
    t = 4
    by_top: dict[int, list[int]] = {}
    for pattern in full_walk(10, t):
        by_top.setdefault(pattern.elements[-1], []).append(rd_rank(pattern))
    for a_t, ranks in by_top.items():
        assert min(ranks) == comb(a_t, t)
        assert max(ranks) == comb(a_t + 1, t) - 1
        assert sorted(ranks) == list(range(comb(a_t, t), comb(a_t + 1, t)))


def test_unrank_rank_bijection_c125():
    for r in range(comb(12, 5)):
        assert rd_rank(rd_unrank(r, 12, 5)) == r


def test_unrank_out_of_range():
    with pytest.raises(ValueError, match="outside"):
        rd_unrank(comb(8, 3), 8, 3)
    with pytest.raises(ValueError, match="outside"):
        rd_unrank(-1, 8, 3)


def shards_of(k, size, block_size):
    """(index, start_rank, count) of the matrix-1 units of one size."""
    units = census_work_units(k, size, block_size)
    return [(i, start, count) for i, m, sz, start, count in units if (m, sz) == (1, size)]


def test_plan_shards_sizes():
    shards = shards_of(8, 3, 10)
    assert [count for _, _, count in shards] == [10, 10, 10, 10, 10, 6]
    assert [start for _, start, _ in shards] == [0, 10, 20, 30, 40, 50]
    # sizes 0, 1 and 2 come first, in 1 + 1 + 3 shards
    assert [index for index, _, _ in shards] == [6, 7, 8, 9, 10, 11]


def test_plan_shards_single_block():
    assert shards_of(8, 3, 10**6) == [(4, 0, comb(8, 3))]
    assert census_work_units(8, 3, 10**6) == [
        (1 + size + 4 * (matrix - 1), matrix, size, 0, comb(8, size)) for matrix in (1, 2) for size in range(4)
    ]


@pytest.mark.parametrize("block_size", [0, -1])
def test_work_units_reject_block_size_below_one(block_size):
    with pytest.raises(ValueError, match="block_size must be >= 1"):
        census_work_units(8, 3, block_size)


@pytest.mark.parametrize("block", [1, 7, 50])
def test_shard_walks_cover_everything_exactly_once(block):
    seen = []
    for _, start, count in shards_of(10, 4, block):
        c = rd_unrank(start, 10, 4)
        for _ in range(count):
            seen.append(c.elements)
            c = rd_successor(c)
    assert len(seen) == comb(10, 4)
    assert len(set(seen)) == comb(10, 4)


def test_census_p17_matches_oracle(family17, dist17):
    result = run_census(family17, 4)
    assert result.complete_upto == 8
    for w in range(0, 9, 2):
        assert result.counts[w] == dist17[w]
    assert set(result.counts) == set(range(0, 9, 2))


def test_census_p41_matches_oracle(family41, dist41):
    result = run_census(family41, 6)
    for w in range(0, 13, 2):
        assert result.counts[w] == dist41[w]


# Digests of census_payload measured before the walk became Knuth's Algorithm R;
# they pin the walk order, the shard plan and every shard record's sha256.
@pytest.mark.parametrize(
    "p, t, block_size, shards, digest",
    [
        (41, 6, 1000, 174, "26edc1a2316ffc85a0c2fe2f72d496cf068ba63e310da5f9eb2ceee44f61a971"),
        # shards start deep inside C(69, 3), far from rank 0
        (137, 3, 10000, 18, "7665f3cb2dc88e52194e9f086541f8093a7f4d6a5fe3f933327b3ec75501e60f"),
    ],
)
def test_census_golden_digest(request, p, t, block_size, shards, digest):
    result = run_census(request.getfixturevalue(f"family{p}"), t, block_size=block_size)
    assert len(result.provenance.shards) == shards
    assert _digest(census_payload(result)) == digest


def test_census_zero_below_minimum_distance(family17):
    result = run_census(family17, 4)
    assert result.counts[2] == 0 and result.counts[4] == 0
    assert result.counts[0] == 1


def test_census_deterministic_across_workers_and_blocks(family41, family137):
    # whole payloads: counts, shard records and their digests
    for family, t, block_sizes, workers in ((family41, 6, (7, 1000, 10**8), (2, 3)), (family137, 3, (10000,), (2,))):
        counts = None
        for block_size in block_sizes:
            reference = census_payload(run_census(family, t, block_size=block_size))
            counts = counts or reference["counts"]
            assert reference["counts"] == counts
            for n in workers:
                assert census_payload(run_census(family, t, workers=n, block_size=block_size)) == reference, (t, n)


def test_a_failing_child_share_reaches_the_caller(family41):
    g1, g2 = disjoint_information_systematizations(family41.extended)
    k = family41.k
    units = census_work_units(k, 6, 1000)
    bad = (len(units) + 1, 1, 2, comb(k, 2), 5)  # past the end of its rank range
    assert census._shares(units + [bad], 2, 12)[1][-1] == bad
    with pytest.raises(ValueError, match=re.escape("shard [210, 215) outside [0, 210)")):
        census.count_units(g1, g2, units + [bad], 12, workers=2)
    assert multiprocessing.active_children() == []


# the tests below patch the share counter, which reaches a child only through fork
FORKS = pytest.mark.skipif(sys.platform != "linux", reason="children are forked only on Linux")


@FORKS
def test_children_are_forked_whatever_the_default_start_method(family41, monkeypatch):
    g1, g2 = disjoint_information_systematizations(family41.extended)
    units = census_work_units(family41.k, 6, 1000)
    count_share = census._count_share

    def exit_in_the_child(*args):
        if multiprocessing.parent_process() is not None:
            os._exit(3)
        return count_share(*args)

    monkeypatch.setattr(census, "_count_share", exit_in_the_child)
    default = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method("spawn", force=True)
    try:
        # a spawned child would import the unpatched counter and send its tallies
        with pytest.raises(RuntimeError, match="census worker exited with code 3"):
            census.count_units(g1, g2, units, 12, workers=2)
    finally:
        multiprocessing.set_start_method(default, force=True)
    assert multiprocessing.active_children() == []


@FORKS
@pytest.mark.parametrize("error", [InvariantViolation("caller failed"), KeyboardInterrupt()])
def test_a_failing_caller_share_leaves_no_child_running(family41, monkeypatch, error):
    g1, g2 = disjoint_information_systematizations(family41.extended)
    units = census_work_units(family41.k, 6, 1000)
    count_share = census._count_share

    def fail_in_the_caller(*args):
        if multiprocessing.parent_process() is None:
            assert len(multiprocessing.active_children()) == 2  # both children are running
            raise error
        time.sleep(60)  # a child still counting when the caller fails
        return count_share(*args)

    monkeypatch.setattr(census, "_count_share", fail_in_the_caller)
    start = time.monotonic()
    with pytest.raises(type(error), match=str(error) or None):
        census.count_units(g1, g2, units, 12, workers=3)
    assert time.monotonic() - start < 30  # the children were stopped, not waited for
    assert multiprocessing.active_children() == []


@FORKS
def test_a_child_that_exits_without_tallies_is_an_error(family41, monkeypatch):
    g1, g2 = disjoint_information_systematizations(family41.extended)
    units = census_work_units(family41.k, 6, 1000)
    count_share = census._count_share

    def exit_in_the_child(*args):
        if multiprocessing.parent_process() is not None:
            os._exit(3)
        return count_share(*args)

    monkeypatch.setattr(census, "_count_share", exit_in_the_child)
    with pytest.raises(RuntimeError, match="census worker exited with code 3 before sending its tallies"):
        census.count_units(g1, g2, units, 12, workers=2)
    assert multiprocessing.active_children() == []


def test_census_budget_gate(family137):
    with pytest.raises(BudgetExceeded):
        run_census(family137, 11)


def test_census_budget_is_checked_before_the_plan(family137, monkeypatch):
    # the t = 16 plan would hold millions of unit tuples; the refusal comes first
    monkeypatch.setattr(census, "census_work_units", lambda *args: pytest.fail("shard plan built"))
    with pytest.raises(BudgetExceeded):
        run_census(family137, 16)


def test_a_one_shard_run_builds_no_plan(family137, monkeypatch):
    # unit 1 of the t = 14 plan is found by arithmetic, not picked from its 4.1 M units
    monkeypatch.setattr(census, "census_work_units", lambda *args: pytest.fail("shard plan built"))
    fragment = run_census(family137, 14, shard_indices=[1])
    assert fragment.provenance.shards[0].unit == (1, 1, 0, 0, 1)
    assert fragment.provenance.total_shards == 2 * sum(-(-comb(69, s) // 10**8) for s in range(15)) == 4_086_000
    assert fragment.counts[0] == 1
    with pytest.raises(ValueError, match="no such shard indices"):
        run_census(family137, 14, shard_indices=[fragment.provenance.total_shards + 1])


def test_merge_builds_no_plan(family17, monkeypatch):
    whole = run_census(family17, 4, block_size=40)
    monkeypatch.setattr(census, "census_work_units", lambda *args: pytest.fail("shard plan built"))
    total = whole.provenance.total_shards
    halves = [run_census(family17, 4, block_size=40, shard_indices=range(i, total + 1, 2)) for i in (1, 2)]
    assert merge_censuses(halves) == whole


def test_merge_single_fragment_is_identity(family17):
    result = run_census(family17, 3)
    merged = merge_censuses([result])
    assert merged.counts == result.counts


def test_merge_two_halves(family17):
    whole = run_census(family17, 4, block_size=40)
    total = whole.provenance.total_shards
    assert total > 2
    indices = list(range(1, total + 1))
    first = run_census(family17, 4, block_size=40, shard_indices=indices[: total // 2])
    second = run_census(family17, 4, block_size=40, shard_indices=indices[total // 2 :])
    merged = merge_censuses([first, second])
    assert merged.counts == whole.counts
    assert merged.provenance.shards == whole.provenance.shards


def test_merge_duplicate_shard(family17):
    first = run_census(family17, 3, shard_indices=[1])
    with pytest.raises(CheckFailure, match="appears more than once"):
        merge_censuses([first, first])


def test_merge_missing_shard(family17):
    first = run_census(family17, 3, shard_indices=[1])
    with pytest.raises(CheckFailure, match="missing shards"):
        merge_censuses([first])


def test_comb_pattern_validation():
    with pytest.raises(ValueError):
        CombPattern(5, (3, 3))
    with pytest.raises(ValueError):
        CombPattern(5, (2, 5))


def test_census_from_payload_rejects_malformed(family17):
    payload = census_payload(run_census(family17, 2))
    payload["provenance"]["shards"][0]["start_rank"] = "0"
    with pytest.raises(CheckFailure):
        census_from_payload(payload)
    del payload["provenance"]
    with pytest.raises(CheckFailure):
        census_from_payload(payload)
    payload = census_payload(run_census(family17, 2))
    payload["counts"].append([4, 0])
    with pytest.raises(CheckFailure):
        census_from_payload(payload)


def test_merge_rejects_plan_not_matching_its_parameters(family17):
    whole = run_census(family17, 2, block_size=10)
    forged = replace(whole, provenance=replace(whole.provenance, block_size=20))
    with pytest.raises(InvariantViolation, match="plan claims"):
        merge_censuses([forged])


def _shard_jobs(family, t, block_size):
    g1, g2 = disjoint_information_systematizations(family.extended)
    k = family.k
    return [
        (index, matrix, size, start, count, (g1 if matrix == 1 else g2).rows, k, (1 << k) - 1, 2 * t)
        for index, matrix, size, start, count in census_work_units(k, t, block_size)
    ]


@pytest.fixture
def table_builds(monkeypatch):
    """Record the depth of every subset table ``_count_shard`` builds, with
    the table cache emptied before and after."""
    depths = []
    build = census.rd_subset_columns

    def spy(rows, width, depth):
        depths.append(depth)
        return build(rows, width, depth)

    monkeypatch.setattr(census, "rd_subset_columns", spy)
    census._parity_tables.cache_clear()
    yield depths
    census._parity_tables.cache_clear()


@pytest.mark.parametrize(
    "p, t, block_size, table_bits",
    [
        (17, 4, 1, None),
        (17, 4, 7, None),
        (17, 4, 2000, None),
        (17, 4, 10**8, None),
        (41, 3, 1, None),
        (41, 4, 7, None),
        (41, 6, 2000, None),
        (41, 6, 10**8, None),
        # tables of depth 1 only: every shard recurses below the table depth
        (41, 4, 7, 21 * 22),
        (41, 5, 2000, 21 * 22),
    ],
)
def test_count_shard_matches_the_scalar_walk(request, monkeypatch, table_builds, p, t, block_size, table_bits):
    if table_bits is not None:
        monkeypatch.setattr(census, "SUBSET_TABLE_BITS", table_bits)
    for job in _shard_jobs(request.getfixturevalue(f"family{p}"), t, block_size):
        assert _count_shard(job) == scalar_count_shard(job), job[:5]
    if table_bits is not None:
        assert table_builds == [1, 1]  # 21 columns x 22 lanes: T_0 and T_1 of each matrix


@pytest.mark.parametrize("t, workers", [(-1, 1), (2, 0), (2, -3)])
def test_run_census_rejects_negative_t_and_workers_below_one(family17, t, workers):
    with pytest.raises(ValueError, match="must be >= "):
        run_census(family17, t, workers=workers)


def test_count_shard_rejects_rows_not_systematic_on_their_half(family17):
    jobs = _shard_jobs(family17, 2, 10**8)
    # matrix 1, matrix 2, and matrix 2 at size t = 2: a dead unit is checked too
    for job in (jobs[0], jobs[-2], jobs[-1]):
        rows = job[5]
        for forged in (rows[1:] + rows[:1], (rows[0] ^ rows[1],) + rows[1:]):
            with pytest.raises(InvariantViolation, match="not systematic"):
                _count_shard(job[:5] + (forged,) + job[6:])


def test_count_shard_rejects_an_out_of_range_dead_unit(family17):
    job = _shard_jobs(family17, 2, 10**8)[-1]
    assert job[1:3] == (2, 2) and not census.is_live(2, 2, job[-1])
    total = comb(family17.k, 2)
    for start, count in ((total, 1), (0, total + 1), (-1, 2)):
        with pytest.raises(ValueError, match=r"shard \[.*\) outside \[0, "):
            _count_shard((job[0], 2, 2, start, count) + job[5:])


@pytest.fixture
def kernel_spy(monkeypatch):
    """Record the table builds and kernel calls of a census, with the
    subset-table cache emptied before and after."""
    calls = {"tables": [], "kernel": []}
    tables, kernel = census._parity_tables, census.weight_histograms

    def tables_spy(parity, depth):
        calls["tables"].append(depth)
        return tables(parity, depth)

    def kernel_spy(columns, base, cuts, max_weight, min_weight):
        calls["kernel"].append((columns, base, tuple(cuts), max_weight, min_weight))
        return kernel(columns, base, cuts, max_weight, min_weight)

    monkeypatch.setattr(census, "_parity_tables", tables_spy)
    monkeypatch.setattr(census, "weight_histograms", kernel_spy)
    tables.cache_clear()
    yield calls
    tables.cache_clear()


def handed_lanes(calls) -> int:
    """Lanes of the kernel calls, after checking that no lane of a table and
    flip mask is handed twice and that every call's cut points increase."""
    seen: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for columns, base, cuts, _, _ in calls:
        assert all(a < b for a, b in zip(cuts, cuts[1:])), cuts
        seen.setdefault((id(columns), base), []).append((cuts[0], cuts[-1]))
    for ranges in seen.values():
        ranges.sort()
        assert all(hi <= lo for (_, hi), (lo, _) in zip(ranges, ranges[1:])), ranges
    return sum(cuts[-1] - cuts[0] for _, _, cuts, _, _ in calls)


@pytest.mark.parametrize("t", [0, 2, 4])
def test_a_dead_unit_builds_no_tables_and_calls_no_kernel(family17, kernel_spy, t):
    jobs = [job for job in _shard_jobs(family17, t, 7) if not census.is_live(job[1], job[2], 2 * t)]
    assert jobs and all(job[1:3] == (2, t) for job in jobs)
    for job in jobs:
        assert _count_shard(job) == job[:5] + ((),)
        assert scalar_count_shard(job)[5] == ()
    assert kernel_spy == {"tables": [], "kernel": []}


# (matrix-1 depth, matrix-2 depth) that ``table_depth`` picks for the cases below
CHOSEN_DEPTHS = {(17, 4, None): (4, 3), (41, 6, None): (5, 4), (41, 5, 21 * 22): (1, 1)}


@pytest.mark.parametrize(
    "p, t, block_size, table_bits",
    [(17, 4, 7, None), (17, 4, 10**8, None), (41, 6, 2000, None), (41, 5, 7, 21 * 22)],
)
def test_live_units_make_the_kernel_calls_of_the_uncapped_tables(
    request, monkeypatch, kernel_spy, p, t, block_size, table_bits
):
    # one call per block of the shard, on the tables at its matrix's chosen
    # depth (table_depth), which need not be its largest live size
    if table_bits is not None:
        monkeypatch.setattr(census, "SUBSET_TABLE_BITS", table_bits)
    family = request.getfixturevalue(f"family{p}")
    k = family.k
    depths = CHOSEN_DEPTHS[p, t, table_bits]
    for job in _shard_jobs(family, t, block_size):
        _, matrix, size, start, count, rows, _, mask, max_weight = job
        if not census.is_live(matrix, size, max_weight):
            continue
        parity = [(row >> k if matrix == 1 else row) & mask for row in rows]
        depth = depths[matrix - 1]
        tables = bitlinalg.rd_subset_columns(parity, k, depth)
        min_parity = size + (matrix == 2)
        expected = [
            (tables[d], base, (lo, hi), max_weight - size, min_parity)
            for base, d, lo, hi in census._rank_blocks(start, start + count, size, depth, 0, parity)
        ]
        kernel_spy["kernel"].clear()
        assert _count_shard(job) == scalar_count_shard(job)
        assert kernel_spy["kernel"] == expected, job[:5]
    assert set(kernel_spy["tables"]) == set(depths)


@pytest.mark.parametrize(
    "k, top, depth",
    [
        (69, 4, 3),  # p = 137, t = 4: matrix 1
        (69, 3, 2),  # p = 137, t = 4: matrix 2
        (69, 5, 3),  # p = 137, t = 6: matrix 2
        (69, 6, 4),  # p = 137, t = 6: matrix 1; depth 5 would exceed the cap
        (69, 7, 4),
        (69, 16, 4),
        (23, 5, 4),  # S_3 at p = 137
        (21, 8, 6),  # p = 41, t = 8
        (21, 7, 5),
        (35, 8, 5),  # H2 at p = 137 as a census to W = 17
        (9, 4, 4),
        (5, 9, 4),  # T_5 of 5 rows is one lane and saves no call
        (0, 3, 0),
    ],
)
def test_table_depth_minimises_the_walk_cost(k, top, depth):
    assert census.table_depth(k, top, census.SUBSET_TABLE_BITS) == depth


def test_table_depth_keeps_the_tables_under_the_cap():
    assert census.table_depth(21, 5, 21 * 22) == 1  # T_0 and T_1 fill 21 x 22 bits
    assert census.table_depth(21, 5, 21 * 22 - 1) == 0
    assert census.table_depth(21, 5, 1) == 0  # depth 0 is always allowed
    lanes = sum(comb(69, d) for d in range(5))
    assert census.table_depth(69, 6, 69 * lanes - 1) == 3


@st.composite
def half_rate_matrices(draw):
    """(g1, g2) = ([I | A], [A^-1 | I]) for a random invertible A = L U, with L
    and U unit lower and upper triangular over GF(2)."""
    k = draw(st.integers(1, 9))
    lower = [1 << i | draw(st.integers(0, (1 << i) - 1)) for i in range(k)]
    upper = [draw(st.integers(0, (1 << k) - 1)) >> (i + 1) << (i + 1) | 1 << i for i in range(k)]
    a = []
    for row in lower:  # row i of L U is the XOR of the rows of U that row i of L selects
        word = 0
        for j in range(k):
            if row >> j & 1:
                word ^= upper[j]
        a.append(word)
    g = BitMatrix(2 * k, tuple(1 << i | word << k for i, word in enumerate(a)))
    return disjoint_information_systematizations(g)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_count_units_tallies_are_the_same_at_every_forced_depth(family17, family41, data):
    code = data.draw(st.sampled_from([17, 41, None]))
    if code is None:
        g1, g2 = data.draw(half_rate_matrices())
        max_weight = data.draw(st.integers(0, 2 * g1.nrows))
    else:
        g1, g2 = disjoint_information_systematizations((family17 if code == 17 else family41).extended)
        max_weight = data.draw(st.integers(0, 8 if code == 17 else 9))
    units = census_work_units(g1.nrows, max_weight // 2, data.draw(st.sampled_from([1, 7, 10**8])))
    census._parity_tables.cache_clear()
    try:
        chosen = census.count_units(g1, g2, units, max_weight)
        for depth in range(max_weight // 2 + 1):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(census, "table_depth", lambda k, top, cap: depth)
                assert census.count_units(g1, g2, units, max_weight) == chosen, depth
    finally:
        census._parity_tables.cache_clear()


def test_each_matrix_builds_its_tables_once(family41, table_builds):
    first = run_census(family41, 6, block_size=1000)
    assert table_builds == [5, 4]  # matrix 1 and matrix 2, each at its chosen depth
    assert run_census(family41, 6, block_size=1000) == first
    assert table_builds == [5, 4]  # the second census on the same code builds none


@pytest.mark.parametrize(
    "p, t, block_size",
    [(17, 0, 7), (17, 1, 7), (17, 4, 7), (41, 3, 1000), (41, 6, 1000), (41, 8, 1000), (137, 4, 10**8)],
)
def test_pattern_cost_is_the_lanes_the_kernel_is_handed(request, kernel_spy, p, t, block_size):
    family = request.getfixturevalue(f"family{p}")
    run_census(family, t, block_size=block_size)
    lanes = handed_lanes(kernel_spy["kernel"])
    assert lanes == census.pattern_cost(family.k, 2 * t)
    assert lanes < census.pattern_cost(family.k, 2 * t + 1) == 2 * sum(comb(family.k, s) for s in range(t + 1))


@pytest.mark.parametrize("max_weight", [7, 9, 13])
def test_pattern_cost_is_the_lanes_of_an_odd_bound(family41, kernel_spy, max_weight):
    g1, g2 = disjoint_information_systematizations(family41.extended)
    units = census_work_units(family41.k, max_weight // 2, 500)
    census.count_units(g1, g2, units, max_weight)
    assert handed_lanes(kernel_spy["kernel"]) == census.pattern_cost(family41.k, max_weight)
    assert census.pattern_cost(family41.k, max_weight) == sum(u[4] for u in units)  # no dead unit


def test_a_sharded_census_builds_the_planes_of_each_block_once(family41, kernel_spy):
    def builds(block_size):
        kernel_spy["kernel"].clear()
        run_census(family41, 6, block_size=block_size)
        # the cached tables are the same objects in both runs, one per (matrix, depth)
        return sorted((id(columns), base, cuts[0], cuts[-1]) for columns, base, cuts, _, _ in kernel_spy["kernel"])

    whole = builds(10**8)
    assert builds(1000) == whole
    assert max(len(cuts) for _, _, cuts, _, _ in kernel_spy["kernel"]) > 2  # blocks cut by shards


def test_pattern_cost_at_the_benchmarked_censuses():
    assert census.pattern_cost(69, 8) == 974_121  # p = 137, t = 4: of 1,838,622 planned
    assert census.pattern_cost(21, 16) == 600_370  # p = 41, t = 8: of 803,860 planned


def test_census_budget_counts_live_patterns(family17, monkeypatch):
    live = census.pattern_cost(family17.k, 8)
    assert live == 2 * (1 + 9 + 36 + 84) + 126
    monkeypatch.setattr(census, "DEFAULT_PATTERN_BUDGET", live)
    run_census(family17, 4)
    dead = [u[0] for u in census_work_units(family17.k, 4, 10) if not census.is_live(u[1], u[2], 8)]
    monkeypatch.setattr(census, "DEFAULT_PATTERN_BUDGET", 0)
    assert run_census(family17, 4, block_size=10, shard_indices=dead).counts == dict.fromkeys(range(0, 9, 2), 0)
    monkeypatch.setattr(census, "DEFAULT_PATTERN_BUDGET", live - 1)
    with pytest.raises(BudgetExceeded):
        run_census(family17, 4)


def test_merge_rejects_tallies_for_a_dead_unit(family17):
    whole = run_census(family17, 2)
    dead = whole.provenance.shards[-1]
    assert dead.unit[1:3] == (2, 2) and dead.sha256 == census.shard_digest(dead.unit, [])
    rest = run_census(family17, 2, shard_indices=range(1, dead.index))
    honest = run_census(family17, 2, shard_indices=[dead.index])
    assert merge_censuses([rest, honest]).counts == whole.counts
    # counts and sha256 agree, and the counts pass every per-part check
    record = replace(dead, sha256=census.shard_digest(dead.unit, [(4, 1)]))
    forged = replace(honest, counts={**honest.counts, 4: 1}, provenance=replace(honest.provenance, shards=(record,)))
    with pytest.raises(InvariantViolation, match="can hold no codeword"):
        merge_censuses([rest, forged])


def test_importing_the_package_loads_no_process_pool():
    # multiprocessing is imported only by a census that runs on more than one worker
    src = str(Path(qrweight.__file__).resolve().parent.parent)
    probe = (
        f"import sys; sys.path.insert(0, {src!r}); import qrweight; "
        "print(sorted(m for m in sys.modules if m.startswith(('multiprocessing', 'concurrent'))))"
    )
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
