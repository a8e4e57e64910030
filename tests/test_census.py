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

from conftest import CombPattern, rd_rank, rd_successor, rd_unrank, scalar_count_shard, unit_costs


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


def plan_intervals(k, t, block_size):
    """The rank intervals of the whole plan, one per (matrix, size) run."""
    return census._intervals(k, t, block_size, ((1, census.census_shard_total(k, t, block_size)),))


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


# Digests of census_payload: they pin the counts, the plan's identity and the
# shards' index ranges, so the schema of the census artifact.
@pytest.mark.parametrize(
    "p, t, block_size, shards, digest",
    [
        (41, 6, 1000, 174, "395384fbeccd504687fb4b85faa9b35a7dc1445189df772aee526489211823a8"),
        # shards start deep inside C(69, 3), far from rank 0
        (137, 3, 10000, 18, "4ef6104a5516e6e09cfa58f96acbcd0665b0066a1e6fa61a9673e7b59fe22535"),
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


@pytest.fixture
def children_start(monkeypatch):
    """Make every census on more than one worker cut its shares and start
    children, however small it is."""
    monkeypatch.setattr(census, "CHILD_SHARE_BITS", 1)


def test_census_deterministic_across_workers_and_blocks(family41, family137, children_start):
    # whole payloads: counts, shard records and their digests
    for family, t, block_sizes, workers in ((family41, 6, (7, 1000, 10**8), (2, 3)), (family137, 3, (10000,), (2,))):
        counts = None
        for block_size in block_sizes:
            reference = census_payload(run_census(family, t, block_size=block_size))
            counts = counts or reference["counts"]
            assert reference["counts"] == counts
            for n in workers:
                assert census_payload(run_census(family, t, workers=n, block_size=block_size)) == reference, (t, n)


def test_a_failing_child_share_reaches_the_caller(family41, children_start):
    g1, g2 = disjoint_information_systematizations(family41.extended)
    k = family41.k
    intervals = plan_intervals(k, 6, 1000)
    for lo, hi in ((210, 215), (5, 5)):  # past the end of its rank range (C(21, 2) = 210), or empty
        bad = (1, 2, lo, hi)
        assert census._shares(intervals + [bad], k, 12, 2)[1][-1] == bad
        with pytest.raises(ValueError, match=re.escape(f"shard [{lo}, {hi}) outside [0, 210)")):
            census.count_units(g1, g2, intervals + [bad], 12, workers=2)
        assert multiprocessing.active_children() == []


# the tests below patch the share counter, which reaches a child only through fork
FORKS = pytest.mark.skipif(sys.platform != "linux", reason="children are forked only on Linux")


@FORKS
def test_children_are_forked_whatever_the_default_start_method(family41, monkeypatch, children_start):
    g1, g2 = disjoint_information_systematizations(family41.extended)
    intervals = plan_intervals(family41.k, 6, 1000)
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
            census.count_units(g1, g2, intervals, 12, workers=2)
    finally:
        multiprocessing.set_start_method(default, force=True)
    assert multiprocessing.active_children() == []


@FORKS
@pytest.mark.parametrize("error", [InvariantViolation("caller failed"), KeyboardInterrupt()])
def test_a_failing_caller_share_leaves_no_child_running(family41, monkeypatch, children_start, error):
    g1, g2 = disjoint_information_systematizations(family41.extended)
    intervals = plan_intervals(family41.k, 6, 1000)
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
        census.count_units(g1, g2, intervals, 12, workers=3)
    assert time.monotonic() - start < 30  # the children were stopped, not waited for
    assert multiprocessing.active_children() == []


@FORKS
def test_a_child_that_exits_without_tallies_is_an_error(family41, monkeypatch, children_start):
    g1, g2 = disjoint_information_systematizations(family41.extended)
    intervals = plan_intervals(family41.k, 6, 1000)
    count_share = census._count_share

    def exit_in_the_child(*args):
        if multiprocessing.parent_process() is not None:
            os._exit(3)
        return count_share(*args)

    monkeypatch.setattr(census, "_count_share", exit_in_the_child)
    with pytest.raises(RuntimeError, match="census worker exited with code 3 before sending its tallies"):
        census.count_units(g1, g2, intervals, 12, workers=2)
    assert multiprocessing.active_children() == []


def test_share_count_is_clamped_to_one_and_the_workers():
    bits = census.CHILD_SHARE_BITS
    assert census.share_count(0, 4) == 1
    assert census.share_count(2 * bits - 1, 2) == 1  # two shares would each cost less than a child repays
    assert census.share_count(2 * bits, 2) == 2
    assert census.share_count(3 * bits - 1, 7) == 2
    assert census.share_count(10**6 * bits, 3) == 3
    assert census.share_count(10**6 * bits, 1) == 1


def test_only_a_census_that_repays_a_child_is_cut_into_shares():
    def shares(k, t, block_size):
        return len(census._shares(plan_intervals(k, t, block_size), k, 2 * t, 2))

    assert shares(21, 6, 1000) == 1  # p = 41, t = 6
    assert shares(21, 8, 2000) == 1  # p = 41, t = 8
    assert shares(69, 4, 10**8) == 1  # p = 137, t = 4
    assert shares(69, 5, 10**8) == 2  # p = 137, t = 5: 13.1 M live lanes of 69 columns


@pytest.mark.parametrize("k, t", [(9, 4), (17, 5), (21, 6), (21, 8)])
def test_unit_costs_count_the_lanes_and_kernel_calls_of_a_unit(k, t):
    rows = [1 << i for i in range(k)]
    for max_weight in (2 * t, 2 * t + 1):
        for unit in census_work_units(k, t, 10**9):
            _, matrix, size, start, count = unit
            cost = 0
            if census.is_live(matrix, size, max_weight):
                depth = census._depth(k, matrix, max_weight)
                calls = sum(1 for _ in census._rank_blocks(start, start + count, size, depth, 0, rows))
                cost = k * count + census.KERNEL_CALL_BITS * calls
            below, above = (census.rank_cost(k, max_weight, matrix, size, r) for r in (start, start + count))
            assert above - below == cost == unit_costs([unit], k, max_weight)[0], unit


def share_cost(share, k, max_weight):
    """The cost of a share's intervals, priced by ``census.rank_cost``."""
    return sum(
        census.rank_cost(k, max_weight, m, size, hi) - census.rank_cost(k, max_weight, m, size, lo)
        for m, size, lo, hi in share
    )


@settings(max_examples=200, deadline=None)
@given(
    k=st.integers(0, 14),
    t=st.integers(0, 7),
    odd=st.booleans(),
    block_size=st.integers(1, 400),
    count=st.integers(1, 6),
    data=st.data(),
)
def test_rank_cut_shares_cover_every_rank_once_at_an_equal_cost(k, t, odd, block_size, count, data):
    max_weight = 2 * t + odd
    plan = census_work_units(k, t, block_size)
    # a sharded plan costs what the plan costs with one unit per run
    whole = census_work_units(k, t, 2**k)
    assert sum(unit_costs(plan, k, max_weight)) == sum(unit_costs(whole, k, max_weight))
    units = sorted(data.draw(st.sets(st.sampled_from(plan)))) if data.draw(st.booleans()) else plan
    total = sum(unit_costs(units, k, max_weight))
    ranges = census._ranges_of_indices([u[0] for u in units], len(plan))
    intervals = census._intervals(k, t, block_size, ranges)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(census, "CHILD_SHARE_BITS", 1)  # as many shares as the cost allows
        shares = census._shares(intervals, k, max_weight, count)
    assert len(shares) == max(1, min(count, total))
    # taken in order, the shares hold every rank of the intervals once
    pieces = [piece for share in shares for piece in share]
    assert all(lo < hi for _, _, lo, hi in pieces)
    ranks = [(m, size, r) for m, size, lo, hi in pieces for r in range(lo, hi)]
    assert ranks == [(m, size, r) for m, size, lo, hi in intervals for r in range(lo, hi)]
    for share in shares:  # each within one rank's cost of an equal cut
        cost = share_cost(share, k, max_weight)
        assert abs(len(shares) * cost - total) <= len(shares) * (k + census.KERNEL_CALL_BITS), (cost, total)


def test_the_p137_t5_census_is_cut_inside_a_unit_into_two_equal_shares():
    k, max_weight = 69, 10
    intervals = plan_intervals(k, 5, census.DEFAULT_BLOCK_SIZE)  # one unit per (matrix, size) run
    first, second = census._shares(intervals, k, max_weight, 2)
    assert first[-1][:2] == second[0][:2] == (1, 5)  # the matrix-1 run of size 5 is split
    costs = [share_cost(share, k, max_weight) for share in (first, second)]
    assert abs(costs[0] - costs[1]) <= k + census.KERNEL_CALL_BITS, costs


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


def test_a_whole_plan_census_builds_no_unit_and_no_record(family41, monkeypatch):
    # 23,476 units: counted, written, read back and merged as one index range
    calls = {"census_unit": 0, "ShardRecord": 0}
    unit, record = census.census_unit, census.ShardRecord

    class Record(record):
        @classmethod
        def _make(cls, iterable):
            calls["ShardRecord"] += 1
            return record._make(iterable)

    def unit_spy(*args):
        calls["census_unit"] += 1
        return unit(*args)

    monkeypatch.setattr(census, "census_unit", unit_spy)
    monkeypatch.setattr(census, "ShardRecord", Record)
    result = run_census(family41, 6, block_size=7)
    merged = merge_censuses([census_from_payload(census_payload(result))])
    assert calls == {"census_unit": 0, "ShardRecord": 0}
    assert merged == result and census_payload(result)["provenance"]["shards"] == [[1, 23_476]]
    assert len(result.provenance.shards) == 23_476 and calls == {"census_unit": 0, "ShardRecord": 0}
    assert result.provenance.shards[-1] == (23_476, 2, 6, 54_257, 7)  # built when read
    assert calls == {"census_unit": 1, "ShardRecord": 1}


def test_a_range_of_shard_indices_is_checked_at_its_ends(family17, family137):
    # at block size 1 the t = 14 plan has about 10^14 units; iterating them would never end
    total = census.census_shard_total(family137.k, 14, 1)
    assert total > 10**14
    with pytest.raises(BudgetExceeded):
        run_census(family137, 14, block_size=1, shard_indices=range(1, total + 1))
    for indices, outside in ((range(0, 5), 0), (range(-3, 2), -3), (range(total, total + 4), total + 1)):
        with pytest.raises(ValueError, match=f"no such shard indices: {outside} is not in the plan's units 1..{total}"):
            run_census(family137, 14, block_size=1, shard_indices=indices)
    with pytest.raises(ValueError, match=f"{total + 2} is not in"):
        run_census(family137, 14, block_size=1, shard_indices=range(total + 2, total + 9))
    # a range of another step, or any other iterable, is checked index by index
    with pytest.raises(ValueError, match="7 is not in the plan's units 1..6"):
        run_census(family17, 2, shard_indices=range(1, 9, 2))
    empty = run_census(family17, 2, shard_indices=range(4, 4))
    assert len(empty.provenance.shards) == 0 and empty.counts == dict.fromkeys(range(0, 5, 2), 0)
    assert run_census(family17, 2, shard_indices=[]) == empty


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
    payload["provenance"]["total_shards"] = "6"
    with pytest.raises(CheckFailure):
        census_from_payload(payload)
    del payload["provenance"]
    with pytest.raises(CheckFailure):
        census_from_payload(payload)
    payload = census_payload(run_census(family17, 2))
    payload["counts"].append([4, 0])
    with pytest.raises(CheckFailure):
        census_from_payload(payload)


@pytest.mark.parametrize(
    "shards, message",
    [
        ([[1, 2], [3]], "shard range [3] is not two integers"),
        ([[1, "6"]], "shard range [1, '6'] is not two integers"),
        ([[1, 6.0]], "shard range [1, 6.0] is not two integers"),
        ([6], "shard range 6 is not two integers"),
        ([[6, 1]], "shard range [6, 1] is reversed"),
        ([[1, 4], [4, 6]], "shard range [4, 6] overlaps or precedes [1, 4]"),
        ([[5, 6], [1, 4]], "shard range [1, 4] overlaps or precedes [5, 6]"),
        ([[1, 7]], "shard range [1, 7] is not in the plan's units 1..6"),
        ([[0, 6]], "shard range [0, 6] is not in the plan's units 1..6"),
        ([[1, 10**12]], f"shard range [1, {10**12}] is not in the plan's units 1..6"),
    ],
    ids=["one-integer", "string", "float", "not-a-list", "reversed", "overlapping", "unordered",
         "past-the-plan", "below-the-plan", "past-the-plan-by-far"],
)
def test_census_from_payload_refuses_a_bad_shard_range(family17, monkeypatch, shards, message):
    payload = census_payload(run_census(family17, 2))  # units 1..6
    assert payload["provenance"]["shards"] == [[1, 6]]
    payload["provenance"]["shards"] = shards
    # every range is checked before the first record is built
    monkeypatch.setattr(census, "census_unit", lambda *args: pytest.fail("record built"))
    with pytest.raises(CheckFailure, match=re.escape(message)):
        census_from_payload(payload)


@pytest.mark.parametrize("field", ["code_digest"])
def test_census_from_payload_refuses_a_digest_that_is_not_a_string(family17, field):
    payload = census_payload(run_census(family17, 2))
    payload["provenance"][field] = 12345
    with pytest.raises(CheckFailure, match="expected a string, got 12345"):
        census_from_payload(payload)


def test_merge_rejects_plan_not_matching_its_parameters(family17):
    whole = run_census(family17, 2, block_size=10)
    for forged_field in ({"block_size": 20}, {"total_shards": 10**12}):
        forged = replace(whole, provenance=replace(whole.provenance, **forged_field))
        with pytest.raises(InvariantViolation, match="plan claims"):
            merge_censuses([forged])


@pytest.mark.parametrize("k, t, block_size", [(9, 9, 10), (9, 10, 10), (9, 13, 7), (5, 8, 10**8), (0, 3, 1)])
def test_plan_above_k_keeps_every_index(k, t, block_size):
    # the plan listed every size up to t, sizes above k holding no units
    units = []
    for matrix in (1, 2):
        for size in range(t + 1):
            for start in range(0, comb(k, size), block_size):
                units.append((len(units) + 1, matrix, size, start, min(block_size, comb(k, size) - start)))
    assert census_work_units(k, t, block_size) == units
    assert len(census._run_starts(k, t, block_size)) == 2 * (min(t, k) + 1) + 1


def test_a_payload_with_a_huge_t_is_read_back_or_refused_at_once(family17):
    payload = census_payload(run_census(family17, 4))
    # the plan stops at size k = 9, so a huge t costs what t = 9 costs; 10^6
    # comes first, so that a plan of 2t + 3 entries fails the length check
    # before 10^9 could build one
    for t in (10**6, 10**9):
        payload["provenance"]["max_info_weight"] = t
        start = time.perf_counter()
        part = census_from_payload(payload)  # its one range fits the larger plan
        assert len(census._run_starts(family17.k, t, part.provenance.block_size)) == 2 * (family17.k + 1) + 1
        with pytest.raises(InvariantViolation, match="plan claims"):
            merge_censuses([part])
        assert time.perf_counter() - start < 1.0


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

    def kernel_spy(columns, base, lo, hi, max_weight, min_weight):
        calls["kernel"].append((columns, base, lo, hi, max_weight, min_weight))
        return kernel(columns, base, lo, hi, max_weight, min_weight)

    monkeypatch.setattr(census, "_parity_tables", tables_spy)
    monkeypatch.setattr(census, "weight_histograms", kernel_spy)
    tables.cache_clear()
    yield calls
    tables.cache_clear()


def handed_lanes(calls) -> int:
    """Lanes of the kernel calls, after checking that every call's lane range
    is nonempty and that no lane of a table and flip mask is handed twice."""
    seen: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for columns, base, lo, hi, _, _ in calls:
        assert lo < hi, (lo, hi)
        seen.setdefault((id(columns), base), []).append((lo, hi))
    for ranges in seen.values():
        ranges.sort()
        assert all(hi <= lo for (_, hi), (lo, _) in zip(ranges, ranges[1:])), ranges
    return sum(hi - lo for _, _, lo, hi, _, _ in calls)


@pytest.mark.parametrize("t", [0, 2, 4])
def test_a_dead_unit_builds_no_tables_and_calls_no_kernel(family17, kernel_spy, t):
    jobs = [job for job in _shard_jobs(family17, t, 7) if not census.is_live(job[1], job[2], 2 * t)]
    assert jobs and all(job[1:3] == (2, t) for job in jobs)
    for job in jobs:
        assert _count_shard(job) == job[:5] + ((),)
        assert scalar_count_shard(job)[5] == ()
    assert kernel_spy == {"tables": [], "kernel": []}


# (matrix-1 depth, matrix-2 depth) that ``table_depth`` picks for the cases below
CHOSEN_DEPTHS = {(17, 4, None): (4, 3), (41, 6, None): (5, 5), (41, 5, 21 * 22): (1, 1)}


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
            (tables[d], base, lo, hi, max_weight - size, min_parity)
            for base, d, lo, hi in census._rank_blocks(start, start + count, size, depth, 0, parity)
        ]
        kernel_spy["kernel"].clear()
        assert _count_shard(job) == scalar_count_shard(job)
        assert kernel_spy["kernel"] == expected, job[:5]
    assert set(kernel_spy["tables"]) == set(depths)


@pytest.mark.parametrize(
    "k, top, depth",
    [
        (69, 4, 3),  # p = 137, t = 4: matrix 1; (4, 3) and (3, 3) cost more to build than they save
        (69, 3, 2),  # p = 137, t = 4: matrix 2
        (69, 5, 4),  # p = 137, t = 5: matrix 1, and t = 6: matrix 2
        (69, 6, 4),  # p = 137, t = 6: matrix 1; depth 5 would exceed the cap
        (69, 7, 4),
        (69, 16, 4),
        (23, 5, 4),  # S_3 at p = 137
        (21, 8, 7),  # p = 41, t = 8
        (21, 7, 6),
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
    intervals = [(matrix, size, start, start + count) for _, matrix, size, start, count in units]  # one per unit
    census._parity_tables.cache_clear()
    try:
        chosen = census.count_units(g1, g2, intervals, max_weight)
        for depth in range(max_weight // 2 + 1):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(census, "table_depth", lambda k, top, cap: depth)
                assert census.count_units(g1, g2, intervals, max_weight) == chosen, depth
    finally:
        census._parity_tables.cache_clear()


def test_each_matrix_builds_its_tables_once(family41, table_builds):
    first = run_census(family41, 6, block_size=1000)
    assert table_builds == [5, 5]  # matrix 1 and matrix 2, each at its chosen depth
    assert run_census(family41, 6, block_size=1000) == first
    assert table_builds == [5, 5]  # the second census on the same code builds none


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
    intervals = plan_intervals(family41.k, max_weight // 2, 500)
    census.count_units(g1, g2, intervals, max_weight)
    assert handed_lanes(kernel_spy["kernel"]) == census.pattern_cost(family41.k, max_weight)
    assert census.pattern_cost(family41.k, max_weight) == sum(hi - lo for *_, lo, hi in intervals)  # no dead unit


def test_a_sharded_census_builds_the_planes_of_each_block_once(family41, kernel_spy):
    def calls(block_size):
        kernel_spy["kernel"].clear()
        shards = len(run_census(family41, 6, block_size=block_size).provenance.shards)
        # the cached tables are the same objects in both runs, one per (matrix, depth)
        return shards, [(id(columns), *rest) for columns, *rest in kernel_spy["kernel"]]

    (whole_shards, whole), (cut_shards, cut) = calls(10**8), calls(1000)
    assert (whole_shards, cut_shards) == (14, 174)
    assert cut == whole  # table, base, lane range and weight bounds, call by call


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
    assert dead.unit[1:3] == (2, 2) and not census.is_live(2, 2, 4)
    rest = run_census(family17, 2, shard_indices=range(1, dead.index))
    honest = run_census(family17, 2, shard_indices=[dead.index])
    assert merge_censuses([rest, honest]).counts == whole.counts
    # one word in a fragment of dead units only: even, <= complete_upto, within its patterns
    assert dead.count >= 1
    forged = replace(honest, counts={**honest.counts, 4: 1})
    with pytest.raises(InvariantViolation, match=f"shard {dead.index}: 1 codewords counted in only 0 live lanes"):
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
