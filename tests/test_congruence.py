import hashlib
import json
import random
from functools import reduce
from math import gcd
from operator import or_, xor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrweight import bitlinalg, census, congruence
from qrweight.bitlinalg import BitMatrix, same_row_space
from qrweight.congruence import (
    G4_0,
    G4_1,
    CongruenceConstraint,
    InvariantSubcode,
    Reject,
    assemble_constraint,
    check_candidate,
    compute_bundle,
    invariant_subcode,
    subcode_weight_counts,
    sylow2_count,
)
from qrweight.errors import BudgetExceeded, InvariantViolation
from qrweight.fixtures import load_p137
from qrweight.psl2 import CoordPermutation, MoebiusMap, find_sylow_plan, to_permutation
from qrweight.qrcodes import build_family

from conftest import gray_walk_counts, scalar_count_shard


@pytest.fixture(scope="session")
def fx137():
    return load_p137()


@pytest.fixture(scope="session")
def bundle17(family17):
    plan = find_sylow_plan(17)
    return compute_bundle(family17, plan, list(range(2, 19, 2)))


@pytest.fixture(scope="session")
def bundle41(family41):
    plan = find_sylow_plan(41)
    return compute_bundle(family41, plan, list(range(2, 43, 2)))


@pytest.fixture(scope="session")
def bundle137(family137, fx137):
    plan = find_sylow_plan(137)
    return compute_bundle(
        family137,
        plan,
        list(range(22, 35, 2)),
        h2_counts_fixture=fx137["subgroup_counts"]["H2"],
    )


def test_invariant_subcode_identity_group(family17):
    code = family17.extended
    sub = invariant_subcode(code, [CoordPermutation.identity(17)])
    assert same_row_space(sub.basis, code)


def test_invariant_subcode_length_mismatch(family17):
    with pytest.raises(ValueError, match="permutation degree 42 != code length 18"):
        invariant_subcode(family17.extended, [CoordPermutation.identity(41)])


def test_p137_subcode_dimensions(bundle137, fx137):
    assert bundle137.dims == fx137["subgroup_dims"]


def test_p137_subcode_counts(bundle137, fx137):
    for label, row in fx137["subgroup_counts"].items():
        if label == "H2":
            continue  # consumed as fixture at this scale
        assert {w: bundle137.counts[label].get(w, 0) for w in row} == row


def test_p17_order17_element_fixes_two_words(family17):
    perm = to_permutation(MoebiusMap.translation(17))
    sub = invariant_subcode(family17.extended, [perm])
    assert sub.k == 1
    assert sub.basis.rows[0] == (1 << 18) - 1  # the all-ones word


def test_subcode_counts_small_case(family17):
    perm = to_permutation(MoebiusMap.translation(17))
    sub = invariant_subcode(family17.extended, [perm])
    counts = subcode_weight_counts(sub, 18)
    assert counts == {0: 1, 18: 1}


def test_subcode_counts_budget():
    # 2^27 words are over the 10^8-lane budget as well, refused before any walk
    for k in (27, 29):
        sub = InvariantSubcode(basis=BitMatrix.identity(k))
        with pytest.raises(BudgetExceeded):
            subcode_weight_counts(sub, 4)


def test_subcode_counts_of_the_zero_subcode():
    # k = 0: no support to fold, one word of weight 0 and one lane
    assert subcode_weight_counts(InvariantSubcode(basis=BitMatrix(6, ())), 4) == {0: 1}


def test_h2_fixture_is_used_only_when_the_budget_refuses_h2(family41, bundle41, monkeypatch):
    # at p = 41 H2 has k = 11 and G4_0 k = 7; no other subcode is larger than 7
    plan = find_sylow_plan(41)
    evens = list(range(2, 43, 2))
    fixture = {w: 1000 + w for w in evens}
    assert compute_bundle(family41, plan, evens, h2_counts_fixture=fixture).h2_source == "computed"
    monkeypatch.setattr(census, "DEFAULT_PATTERN_BUDGET", (1 << 11) - 1)
    bundle = compute_bundle(family41, plan, evens, h2_counts_fixture=fixture)
    assert bundle.h2_source == "fixture" and bundle.counts["H2"] == fixture
    with pytest.raises(BudgetExceeded):
        compute_bundle(family41, plan, evens)
    bundle = compute_bundle(family41, plan, evens, long_run=True, h2_counts_fixture=fixture)
    assert bundle.h2_source == "computed" and bundle.counts["H2"] == bundle41.counts["H2"]
    # the fixture stands in for H2 only: G4_0's refusal (2^7 lanes) propagates
    monkeypatch.setattr(census, "DEFAULT_PATTERN_BUDGET", (1 << 7) - 1)
    with pytest.raises(BudgetExceeded, match="needs 128 lanes"):
        compute_bundle(family41, plan, evens, h2_counts_fixture=fixture)


def test_budget_charges_the_lanes_of_the_route_taken(family137, fx137, monkeypatch):
    charged, folded = [], []
    check_budget, fold = census.check_budget, congruence._fold

    def charge(lanes, long_run):
        charged.append(lanes)
        check_budget(lanes, long_run)

    def record_fold(sub):
        folded.append(sub.k)
        return fold(sub)

    monkeypatch.setattr(census, "check_budget", charge)
    monkeypatch.setattr(congruence, "_fold", record_fold)
    # at p = 127 H2 (k = 32) folds to a [64, 32] code: its census to folded
    # weight 10 walks 284,274 patterns, not the 2^32 words of the walk
    plan = find_sylow_plan(127)
    h2 = invariant_subcode(build_family(127).extended, [to_permutation(g) for g in plan.h2_elements()])
    assert h2.k == 32
    subcode_weight_counts(h2, 20)
    assert charged == [census.pattern_cost(32, 10)] == [284274]
    # at p = 137 H2 (k = 35) has support 138, no multiple of 70: no fold is
    # half-rate, so its 2^35 words are refused before the fold
    bundle = compute_bundle(family137, find_sylow_plan(137), list(range(22, 35, 2)),
                            h2_counts_fixture=fx137["subgroup_counts"]["H2"])
    assert 1 << 35 in charged and 35 not in folded
    assert bundle.h2_source == "fixture"


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_subcode_range_counts_match_the_gray_walk(data):
    k = data.draw(st.integers(0, 12))
    n = data.draw(st.integers(1, 60))
    rows = tuple(data.draw(st.integers(0, (1 << n) - 1)) for _ in range(k))
    sub = InvariantSubcode(basis=BitMatrix(n, rows))
    max_weight = data.draw(st.integers(0, n))
    # a small table cap leaves fewer rows in the span table than in the basis,
    # so blocks get nonzero base words as well
    table_bits = data.draw(st.sampled_from([bitlinalg.TABLE_BITS, 1 << 8, 1]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bitlinalg, "TABLE_BITS", table_bits)
        counts = subcode_weight_counts(sub, max_weight)
    assert counts == gray_walk_counts(rows, max_weight, 0, 1 << k)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_folded_counts_match_the_gray_walk(data):
    # rows whose coordinates come in classes of equal columns, with class
    # sizes sharing a factor g, plus all-zero coordinates, in a random order
    k = data.draw(st.integers(0, 10))
    g = data.draw(st.integers(1, 4))
    classes = data.draw(st.lists(
        st.tuples(st.integers(0, (1 << k) - 1), st.integers(1, 3)), min_size=1, max_size=12))
    zeros = data.draw(st.integers(0, 3))
    coords = [column for column, mult in classes for _ in range(g * mult)] + [0] * zeros
    coords = data.draw(st.permutations(coords))
    n = len(coords)
    rows = tuple(sum((column >> r & 1) << j for j, column in enumerate(coords)) for r in range(k))
    sub = InvariantSubcode(basis=BitMatrix(n, rows))
    max_weight = data.draw(st.integers(0, n))
    table_bits = data.draw(st.sampled_from([bitlinalg.TABLE_BITS, 1 << 8, 1]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bitlinalg, "TABLE_BITS", table_bits)
        counts = subcode_weight_counts(sub, max_weight)
    assert counts == gray_walk_counts(rows, max_weight, 0, 1 << k)


@st.composite
def codes_holding_the_all_ones_word(draw):
    """Rows whose span holds the all-ones word of their support: coordinates
    in classes whose sizes share a factor g, as in the folded test above, each
    column of odd parity against a drawn nonzero combination c of the rows,
    plus all-zero coordinates, in a random order. The combination c of the
    rows is then 1 on every coordinate of the support."""
    k = draw(st.integers(1, 9))
    g = draw(st.integers(1, 3))
    c = draw(st.integers(1, (1 << k) - 1))
    classes = draw(st.lists(
        st.tuples(st.integers(0, (1 << k) - 1), st.integers(1, 3)), min_size=1, max_size=12))
    low = c & -c  # flipping this bit of a column flips its parity against c
    odd = [column if (column & c).bit_count() % 2 else column ^ low for column, _ in classes]
    zeros = draw(st.integers(0, 3))
    coords = draw(st.permutations(
        [column for column, (_, mult) in zip(odd, classes) for _ in range(g * mult)] + [0] * zeros))
    rows = tuple(sum((column >> r & 1) << j for j, column in enumerate(coords)) for r in range(k))
    return BitMatrix(len(coords), rows)


@settings(max_examples=200, deadline=None)
@given(codes_holding_the_all_ones_word(), st.data())
def test_counts_of_codes_holding_the_all_ones_word_match_the_gray_walk(basis, data):
    # an rref basis XORs to the all-ones word of its support, so half its
    # words are walked, each counted with its complement; a basis as drawn
    # mostly does not, and takes the full walk
    if data.draw(st.booleans()):
        basis = bitlinalg.rref(basis)[0]
    k, rows, n = basis.nrows, basis.rows, basis.cols
    support = reduce(or_, rows, 0)
    assert support in {reduce(xor, (rows[r] for r in range(k) if c >> r & 1), 0) for c in range(1 << k)}
    paired = reduce(xor, rows, 0) == support
    # odd and even bounds, and bounds whose folded windows overlap (2W >= width)
    max_weight = data.draw(st.one_of(st.integers(0, n), st.integers(n // 2, n)))
    table_bits = data.draw(st.sampled_from([bitlinalg.TABLE_BITS, 1 << 8, 1]))
    lanes = []
    kernel = bitlinalg.weight_histograms

    def spy(columns, flips, lo, hi, *args, **kwargs):
        lanes.append(hi - lo)
        return kernel(columns, flips, lo, hi, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bitlinalg, "TABLE_BITS", table_bits)
        mp.setattr(bitlinalg, "weight_histograms", spy)
        counts = subcode_weight_counts(InvariantSubcode(basis=basis), max_weight)
    assert counts == gray_walk_counts(rows, max_weight, 0, 1 << k)
    width = sum(congruence._fold(InvariantSubcode(basis=basis))[1])
    if lanes or width != 2 * k:  # else a half-rate fold was counted by the census
        assert sum(lanes) == 1 << (k - 1 if paired else k)


@st.composite
def codes_with_weighted_classes(draw):
    """Rows on 2..8 distinct nonzero class columns, class c repeated g * m_c
    times with the multiplicities m_c drawn from 1..4 and not all equal, plus
    all-zero coordinates, in a random order; half the time the last row is
    replaced by the XOR of all rows with the all-ones word of the support,
    so that the rows XOR to it."""
    k = draw(st.integers(2, 8))
    g = draw(st.integers(1, 3))
    classes = draw(st.lists(st.integers(1, (1 << k) - 1), min_size=2, max_size=8, unique=True))
    mults = draw(st.lists(st.integers(1, 4), min_size=len(classes), max_size=len(classes)))
    if len(set(mults)) == 1:
        mults[0] = mults[0] % 4 + 1
    zeros = draw(st.integers(0, 3))
    coords = draw(st.permutations(
        [column for column, m in zip(classes, mults) for _ in range(g * m)] + [0] * zeros))
    rows = [sum((column >> r & 1) << j for j, column in enumerate(coords)) for r in range(k)]
    if draw(st.booleans()):
        rows[-1] ^= reduce(xor, rows) ^ reduce(or_, rows)
    return BitMatrix(len(coords), tuple(rows))


@settings(max_examples=200, deadline=None)
@given(codes_with_weighted_classes(), st.data())
def test_walks_with_weighted_classes_match_the_gray_walk(basis, data):
    # the kernel is handed one column per class and the classes' weights
    k, rows, n = basis.nrows, basis.rows, basis.cols
    max_weight = data.draw(st.one_of(st.integers(0, n), st.integers(n // 2, n)))
    table_bits = data.draw(st.sampled_from([bitlinalg.TABLE_BITS, 1 << 8, 1]))
    handed = []
    kernel = bitlinalg.weight_histograms

    def spy(columns, flips, lo, hi, *args, weights=None, **kwargs):
        handed.append((len(columns), weights))
        return kernel(columns, flips, lo, hi, *args, weights=weights, **kwargs)

    sub = InvariantSubcode(basis=basis)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bitlinalg, "TABLE_BITS", table_bits)
        mp.setattr(bitlinalg, "weight_histograms", spy)
        counts = subcode_weight_counts(sub, max_weight)
    assert counts == gray_walk_counts(rows, max_weight, 0, 1 << k)
    # the classes of the rows as they are: the last row may have been changed
    sizes = {}
    for column in bitlinalg.transpose(basis):
        if column:
            sizes[column] = sizes.get(column, 0) + 1
    g = gcd(*sizes.values())
    assert congruence._fold(sub) == (list(sizes), [s // g for s in sizes.values()], g)
    if handed:
        assert all(width == len(sizes) and list(weights) == [s // g for s in sizes.values()]
                   for width, weights in handed)
    else:  # a half-rate fold counted by the census
        assert sum(sizes.values()) // g == 2 * k


def test_p137_g4_walks_hand_the_kernel_half_the_words_they_charge(family137, fx137, monkeypatch):
    plan = find_sylow_plan(137)
    charged, lanes = [], []
    check_budget, kernel = census.check_budget, bitlinalg.weight_histograms

    def charge(count, long_run):
        charged.append(count)
        check_budget(count, long_run)

    widths = set()

    def spy(columns, flips, lo, hi, *args, **kwargs):
        lanes.append(hi - lo)
        widths.add(len(columns))
        return kernel(columns, flips, lo, hi, *args, **kwargs)

    monkeypatch.setattr(census, "check_budget", charge)
    monkeypatch.setattr(bitlinalg, "weight_histograms", spy)
    for label, index, k, classes in ((G4_0, 0, 19, 36), (G4_1, 1, 18, 34)):
        sub = invariant_subcode(family137.extended, [to_permutation(g) for g in plan.g4_elements(index)])
        assert sub.k == k
        charged.clear()
        lanes.clear()
        widths.clear()
        counts = subcode_weight_counts(sub, 34)
        # 138 is no multiple of 2k, so the 2^k words are charged before the fold and again before the walk
        assert charged == [1 << k] * 2 and sum(lanes) == 1 << (k - 1)
        # one weighted column per class of equal coordinates, not the 69 of the fold
        assert widths == {classes}
        row = fx137["subgroup_counts"][label]
        assert {w: counts.get(w, 0) for w in row} == row


@pytest.fixture
def census_route(monkeypatch):
    """Record the max weight of every census the subcode counts make, with
    the subset-table cache emptied before and after."""
    calls = []
    core = census.count_units

    def spy(g1, g2, units, max_weight, **kwargs):
        calls.append(max_weight)
        return core(g1, g2, units, max_weight, **kwargs)

    monkeypatch.setattr(census, "count_units", spy)
    census._parity_tables.cache_clear()
    yield calls
    census._parity_tables.cache_clear()


@st.composite
def half_rate_subcodes(draw):
    """A code that folds to half rate: 2k coordinates (columns drawn at random,
    so mostly distinct), each repeated g times, plus all-zero coordinates, in
    a random order; g odd or even. Returns the subcode and g."""
    k = draw(st.integers(1, 10))
    g = draw(st.integers(1, 3))
    folded = [draw(st.integers(1, (1 << k) - 1)) for _ in range(2 * k)]
    zeros = draw(st.integers(0, 3))
    coords = draw(st.permutations([c for c in folded for _ in range(g)] + [0] * zeros))
    rows = tuple(sum((column >> r & 1) << j for j, column in enumerate(coords)) for r in range(k))
    return InvariantSubcode(basis=BitMatrix(len(coords), rows)), g


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_census_route_matches_the_gray_walk(data):
    # a half-rate folded code, max_weight odd or even
    sub, g = data.draw(half_rate_subcodes())
    k, rows = sub.k, sub.basis.rows
    # the census route needs census.pattern_cost(k, W) < 2^k, W = max_weight // g,
    # which folded bounds up to about k meet
    folded_max = data.draw(st.one_of(st.integers(0, k), st.integers(0, 2 * k)))
    max_weight = g * folded_max + data.draw(st.integers(0, g - 1))
    # small caps leave the census with shallower subset tables, and the walk
    # with a span table of fewer rows than the basis
    table_bits = data.draw(st.sampled_from([None, 1 << 8, 1]))
    with pytest.MonkeyPatch.context() as mp:
        if table_bits is not None:
            mp.setattr(bitlinalg, "TABLE_BITS", table_bits)
            mp.setattr(census, "SUBSET_TABLE_BITS", table_bits)
        counts = subcode_weight_counts(sub, max_weight)
    assert counts == gray_walk_counts(rows, max_weight, 0, 1 << k)


@settings(max_examples=150, deadline=None)
@given(half_rate_subcodes(), st.data())
def test_dead_units_are_empty_under_the_scalar_walk(sub_g, data):
    sub, _ = sub_g
    k = sub.k
    folded = congruence._expanded(*congruence._fold(sub)[:2], k)
    if folded.cols != 2 * k:
        return  # no census for this code
    matrices = bitlinalg.disjoint_information_systematizations(folded)
    if matrices is None:
        return  # no census for this code
    max_weight = data.draw(st.integers(0, 2 * k))
    block_size = data.draw(st.sampled_from([1, 7, 10**8]))
    units = census.census_work_units(k, max_weight // 2, block_size)
    dead = [u for u in units if not census.is_live(u[1], u[2], max_weight)]
    # the matrix-2 units of size t = W // 2 under an even bound, and no others
    assert {u[1:3] for u in dead} == ({(2, max_weight // 2)} if max_weight % 2 == 0 else set())
    for index, matrix, size, start, count in dead:
        job = (index, matrix, size, start, count, matrices[matrix - 1].rows, k, (1 << k) - 1, max_weight)
        assert scalar_count_shard(job)[5] == ()
        assert census._count_shard(job) == job[:5] + ((),)


def _odd_prime_subcodes(family, p):
    plan = find_sylow_plan(p)
    for q, gen in sorted(plan.odd_generators.items()):
        yield q, invariant_subcode(family.extended, [to_permutation(gen)])


@pytest.mark.parametrize("p", [17, 41])
def test_odd_prime_subcodes_match_the_gray_walk_at_every_max_weight(p, request, census_route):
    family = request.getfixturevalue(f"family{p}")
    n = family.n_extended
    for q, sub in _odd_prime_subcodes(family, p):
        full = gray_walk_counts(sub.basis.rows, n, 0, 1 << sub.k)
        for max_weight in range(n + 1):
            expected = {w: c for w, c in full.items() if w <= max_weight}
            assert subcode_weight_counts(sub, max_weight) == expected, (q, max_weight)
    if p == 41:
        assert census_route  # S_3 folds to a [14, 7] code with two information sets


@pytest.mark.parametrize("p, q, found", [(17, 3, False), (41, 3, True), (41, 7, False), (137, 3, True), (137, 23, False)])
def test_information_sets_of_the_half_rate_folds(request, p, q, found):
    # these folds are [2k, k]; a pair sends the subcode to the census route
    sub = dict(_odd_prime_subcodes(request.getfixturevalue(f"family{p}"), p))[q]
    folded = congruence._expanded(*congruence._fold(sub)[:2], sub.k)
    assert folded.cols == 2 * sub.k
    pair = bitlinalg.disjoint_information_systematizations(folded)
    assert (pair is not None) == found


def test_p137_s3_is_counted_by_the_census(family137, census_route):
    sub = dict(_odd_prime_subcodes(family137, 137))[3]
    assert sub.k == 23
    assert subcode_weight_counts(sub, 34) == {0: 1, 24: 46, 30: 943}
    assert census_route == [34 // 3]  # folded weights <= 11: patterns of size <= 5


@pytest.mark.parametrize("p, digest", [
    (17, "a6ab94f73926f12ce83a31d50d55f5aa6339702d02ee775964d59984a3e897b6"),
    (41, "ffaf715f59a6d256f52d0beedd826c2e1b010b63886fb98424daf70c995e0985"),
    (137, "4c0dacbc76b0a88953d351423366b54ed48c4d5dc50efab9d766e04a62762c1e"),
])
def test_full_subcode_rows_golden_digest(p, digest, request):
    # every weight 0..n of every computed subcode row, and the dimensions, as
    # the unfolded walk counted them; the H2 row at p = 137 is a placeholder
    # (2^35 words is over the budget) and is left out
    n = p + 1
    evens = list(range(0, n + 1, 2))
    bundle = compute_bundle(request.getfixturevalue(f"family{p}"), find_sylow_plan(p), evens,
                            h2_counts_fixture={w: 0 for w in evens})
    rows = {label: sorted(counts.items()) for label, counts in bundle.counts.items()
            if not (label == "H2" and bundle.h2_source == "fixture")}
    assert (p == 137) == ("H2" not in rows)
    assert hashlib.sha256(json.dumps([bundle.dims, rows], sort_keys=True).encode()).hexdigest() == digest


def test_invariant_subcode_intersects_once_with_the_group_orbits(family41):
    # H2 and G4_0 at p = 41 and p = 73 given as lists of elements: one
    # intersection with the orbits of the whole group equals the intersection
    # element by element
    for code, p in ((family41.extended, 41), (build_family(73).extended, 73)):
        plan = find_sylow_plan(p)
        for group in (plan.h2_elements(), plan.g4_elements(0)):
            perms = [to_permutation(g) for g in group]
            expected = code
            for perm in perms:
                expected = bitlinalg.intersect_rowspaces(expected, BitMatrix(p + 1, tuple(
                    sum(1 << i for i in cycle) for cycle in perm.cycles())))
            assert invariant_subcode(code, perms).basis == expected


def test_invariant_subcode_rejects_a_word_outside_the_code(family17, monkeypatch):
    # all-zero parity-check columns put every sum of orbits in the "kernel"
    pivot_rows, checks = congruence._parity_checks(family17.extended)
    monkeypatch.setattr(congruence, "_parity_checks", lambda code: (pivot_rows, dict.fromkeys(checks, 0)))
    perm = to_permutation(MoebiusMap.translation(17))
    with pytest.raises(InvariantViolation, match="escaped the parent code"):
        invariant_subcode(family17.extended, [perm])


def test_invariant_subcode_rejects_a_word_the_group_moves(family17, monkeypatch):
    # singleton orbits make the subcode the whole code, which the translation moves
    monkeypatch.setattr(congruence, "fixed_space", lambda group, n: BitMatrix.identity(n))
    perm = to_permutation(MoebiusMap.translation(17))
    with pytest.raises(InvariantViolation, match="not fixed by the defining group"):
        invariant_subcode(family17.extended, [perm])


@pytest.mark.parametrize("p", [7, 17, 23, 31, 41, 47, 71, 73, 79, 89, 97, 103, 113, 127, 137])
def test_bundle_subcodes_match_the_intersection_of_row_spaces(p, monkeypatch):
    # every subcode compute_bundle builds, with the counts stubbed out
    built = []

    def spy(code, group):
        sub = invariant_subcode(code, group)
        built.append((code, group, sub))
        return sub

    monkeypatch.setattr(congruence, "invariant_subcode", spy)
    monkeypatch.setattr(congruence, "subcode_weight_counts", lambda sub, max_weight, **kwargs: {})
    plan = find_sylow_plan(p)
    compute_bundle(build_family(p), plan, [2])
    assert len(built) == 3 + len({q for q, _ in plan.factorization} - {2})
    for code, group, sub in built:
        assert sub.basis == bitlinalg.intersect_rowspaces(code, congruence.fixed_space(group, code.cols))


@st.composite
def codes_and_groups(draw):
    """A full-rank code of length n with a list of permutations of its
    coordinates: none, the identity, one n-cycle (a single orbit) or a few
    drawn at random."""
    n = draw(st.integers(1, 24))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=n))
    code = bitlinalg.rref(BitMatrix(n, tuple(rows)))[0]
    kind = draw(st.sampled_from(["none", "identity", "cycle", "random"]))
    if kind == "none":
        images = []
    elif kind == "identity":
        images = [list(range(n))]
    elif kind == "cycle":
        order = draw(st.permutations(range(n)))
        image = [0] * n
        for a, b in zip(order, order[1:] + order[:1]):
            image[a] = b
        images = [image]
    else:
        images = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=3))
    return code, [CoordPermutation(n - 1, tuple(image)) for image in images]


@settings(max_examples=200, deadline=None)
@given(codes_and_groups())
def test_invariant_subcode_matches_the_intersection_with_each_cycle_space(code_group):
    code, group = code_group
    n = code.cols
    expected = bitlinalg.rref(code)[0]
    for perm in group:
        cycles = BitMatrix(n, tuple(sum(1 << i for i in cycle) for cycle in perm.cycles()))
        expected = bitlinalg.intersect_rowspaces(expected, cycles)
    assert invariant_subcode(code, group).basis == expected
    # the cached parity-check columns are the columns of the dual basis
    _, checks = congruence._parity_checks(code)
    dual = bitlinalg.dual_basis(code).rows
    assert [checks[1 << j] for j in range(n)] == [
        sum((row >> j & 1) << t for t, row in enumerate(dual)) for j in range(n)]


def test_sylow2_count_published_values():
    assert sylow2_count(170, 6, 6, 3) == 2
    assert sylow2_count(114563, 261, 189, 3) == 3
    assert sylow2_count(0, 0, 0, 5) == 0


def test_assemble_constraint_p137(fx137):
    table = fx137["subgroup_counts"]
    for w, expected in fx137["crt_residues"].items():
        s2 = sylow2_count(table["H2"][w], table["G4_0"][w], table["G4_1"][w], 3)
        parts = [
            (8, s2, "S_2"),
            (3, table["S_3"][w], "S_3"),
            (17, table["S_17"][w], "S_17"),
            (23, table["S_23"][w], "S_23"),
            (137, table["S_137"][w], "S_137"),
        ]
        constraint = assemble_constraint(137, w, parts)
        assert constraint.residue == expected
        assert constraint.modulus == 1285608
        for pp, r, _ in constraint.parts:
            assert constraint.residue % pp == r


def test_assemble_constraint_zero_residues():
    parts = [(8, 0, ""), (3, 0, ""), (17, 0, ""), (23, 0, ""), (137, 0, "")]
    assert assemble_constraint(137, 2, parts).residue == 0


def test_assemble_constraint_not_coprime():
    with pytest.raises(ValueError, match="8 and 6 share a factor"):
        assemble_constraint(137, 22, [(8, 1, ""), (6, 1, ""), (17, 0, ""), (23, 0, ""), (137, 0, "")])


def test_assemble_constraint_wrong_product():
    with pytest.raises(ValueError, match="product 9384 != group order 1285608"):
        assemble_constraint(137, 22, [(8, 1, ""), (3, 1, ""), (17, 0, ""), (23, 0, "")])


def test_check_candidate_published_values(bundle137):
    assert check_candidate(bundle137.constraints[32], 77865259035) == 60566
    assert check_candidate(bundle137.constraints[34], 771068968365) == 599769
    verdict = check_candidate(bundle137.constraints[34], 771068968227)
    assert isinstance(verdict, Reject)


def test_check_candidate_negative_quotient():
    constraint = CongruenceConstraint(j=4, residue=5, modulus=10, parts=((10, 5, ""),))
    verdict = check_candidate(constraint, -5)
    assert isinstance(verdict, Reject) and "negative" in verdict.reason


@pytest.mark.parametrize("p", [17, 41])
def test_congruences_sound_against_exhaustive(p, request):
    bundle = request.getfixturevalue(f"bundle{p}")
    dist = request.getfixturevalue(f"dist{p}")
    for w, constraint in bundle.constraints.items():
        n = check_candidate(constraint, dist[w])
        assert isinstance(n, int) and n >= 0, (w, dist[w], constraint.residue)


def test_counts_invariant_under_basis_remix(family41):
    plan = find_sylow_plan(41)
    sub = invariant_subcode(family41.extended, [to_permutation(plan.odd_generators[7])])
    reference = subcode_weight_counts(sub, 42)
    rng = random.Random(41)
    rows = list(sub.basis.rows)
    for _ in range(50):
        i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
        if i != j:
            rows[i] ^= rows[j]
    remixed = InvariantSubcode(basis=BitMatrix(sub.basis.cols, tuple(rows)))
    assert subcode_weight_counts(remixed, 42) == reference


def test_bundle_h2_source_marked(bundle137, bundle17):
    assert bundle137.h2_source == "fixture"
    assert bundle17.h2_source == "computed"
