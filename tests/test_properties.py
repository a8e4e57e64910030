"""Property tests of the combinatorial core: rank/unrank, the revolving-door step, shard plans, merges."""

import json
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrweight.census import (
    CombPattern,
    census_from_payload,
    census_payload,
    census_work_units,
    merge_censuses,
    rd_rank,
    rd_unrank,
    run_census,
)

from conftest import rd_step


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
