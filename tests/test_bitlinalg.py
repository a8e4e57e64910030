import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrweight.bitlinalg import (
    BitMatrix,
    disjoint_information_systematizations,
    dual_basis,
    hull_dimension,
    intersect_rowspaces,
    left_kernel,
    rank,
    rref,
    same_row_space,
    weight_histogram,
    weight_histograms,
)
from qrweight.qrcodes import cyclic_generator_matrix

from conftest import exhaustive_distribution, from_lists, hull_dimension_by_intersection, row_space_contains, span_words


def spanned_rank(rows) -> int:
    """Independent rank oracle: the span of r independent rows has 2^r words."""
    return len(span_words(rows)).bit_length() - 1


def test_rref_identity():
    m = BitMatrix.identity(3)
    reduced, pivots = rref(m)
    assert reduced == m
    assert pivots == [0, 1, 2]


def test_rref_dependent_row():
    m = from_lists([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    reduced, pivots = rref(m)
    assert reduced.nrows == 2
    assert pivots == [0, 1]


def test_rref_extended_qr17_rank(family17):
    g = family17.extended
    reduced, pivots = rref(g)
    assert reduced.nrows == 9
    assert spanned_rank(g.rows) == 9
    assert len(pivots) == 9 and pivots == sorted(pivots)


def test_rref_preserves_row_space(family17):
    g = family17.extended
    reduced, _ = rref(g)
    for row in g.rows:
        assert row_space_contains(reduced, row)
    assert same_row_space(g, reduced)


def test_systematizations_already_systematic():
    eye = BitMatrix.identity(3)
    g = BitMatrix(6, tuple(r | (r << 3) for r in eye.rows))  # [I | I]
    g1, g2 = disjoint_information_systematizations(g)
    assert g1 == g
    assert g2 == g


def test_systematizations_extended_qr17(family17):
    g = family17.extended
    k = g.nrows
    g1, g2 = disjoint_information_systematizations(g)
    left = [r & ((1 << k) - 1) for r in g.rows]
    right = [r >> k for r in g.rows]
    assert spanned_rank(left) == k
    assert spanned_rank(right) == k
    assert [r & ((1 << k) - 1) for r in g1.rows] == [1 << i for i in range(k)]
    assert [r >> k for r in g2.rows] == [1 << i for i in range(k)]
    # same codeword sets (k = 9, exhaustive comparison)
    assert span_words(g1.rows) == span_words(g.rows)
    assert span_words(g2.rows) == span_words(g.rows)


def test_systematizations_singular_half():
    # columns 2 and 3 are zero, so only {0, 1} has rank 2
    g = from_lists([[1, 0, 0, 0], [0, 1, 0, 0]])
    assert disjoint_information_systematizations(g) is None


def test_systematizations_not_half_rate():
    with pytest.raises(ValueError, match="is not k x 2k"):
        disjoint_information_systematizations(BitMatrix.identity(3))


def test_dual_basis_parity_check_form():
    # g = [I | A] with A = [[1,1],[0,1]] -> dual = [A^T | I]
    g = from_lists([[1, 0, 1, 1], [0, 1, 0, 1]])
    d = dual_basis(g)
    assert d.rows == (0b0101, 0b1011)  # bit i = column i: [1,0,1,0] and [1,1,0,1]
    for row in g.rows:
        for drow in d.rows:
            assert (row & drow).bit_count() & 1 == 0
    assert g.nrows + d.nrows == g.cols


def test_dual_of_dual(family17):
    g = family17.augmented
    assert same_row_space(dual_basis(dual_basis(g)), g)


def test_dual_basis_orthogonal_and_complementary(family17):
    g = family17.augmented
    d = dual_basis(g)
    assert g.nrows + d.nrows == g.cols
    assert rank(d) == d.nrows
    for row in g.rows:
        for drow in d.rows:
            assert (row & drow).bit_count() & 1 == 0


def test_extended_qr137_not_self_dual(family137):
    g = family137.extended
    assert not same_row_space(dual_basis(g), g)


def test_dual_basis_rank_deficient():
    m = from_lists([[1, 1, 0], [1, 1, 0]])
    with pytest.raises(ValueError, match=r"rank \d+ < \d+ rows"):
        dual_basis(m)


def test_hull_self_dual_code(family7):
    g = family7.extended
    assert hull_dimension(g) == g.nrows  # self-dual: hull is the whole code


def test_hull_expurgated_qr137(family137):
    assert hull_dimension(family137.expurgated) == 0


def test_hull_expurgated_qr17_with_set_oracle(family17):
    exp = family17.expurgated
    assert hull_dimension(exp) == 0
    # independent oracle: intersect the literal codeword sets
    dual_words = span_words(dual_basis(exp).rows)
    code_words = span_words(exp.rows)
    assert code_words & dual_words == {0}


def test_hull_dimension_is_cached_but_dependent_rows_raise_every_time(family17):
    exp = family17.expurgated
    first = hull_dimension(exp)
    hits = hull_dimension.cache_info().hits
    assert hull_dimension(exp) == first == 0
    assert hull_dimension.cache_info().hits == hits + 1
    dependent = from_lists([[1, 1, 0], [1, 1, 0]])
    for _ in range(2):
        with pytest.raises(ValueError, match="generator rows are dependent"):
            hull_dimension(dependent)


def test_intersect_same_space():
    m = from_lists([[1, 0, 1], [0, 1, 1]])
    inter = intersect_rowspaces(m, m)
    assert same_row_space(inter, m)


def test_intersect_disjoint_coordinates():
    a = BitMatrix(6, (0b000011, 0b000101))
    b = BitMatrix(6, (0b110000, 0b101000))
    assert intersect_rowspaces(a, b).nrows == 0


def test_intersect_dimension_identity_random():
    rng = random.Random(20240501)
    for _ in range(20):
        a = BitMatrix(20, tuple(rng.getrandbits(20) for _ in range(10)))
        b = BitMatrix(20, tuple(rng.getrandbits(20) for _ in range(10)))
        inter = intersect_rowspaces(a, b)
        stacked = BitMatrix(20, a.rows + b.rows)
        assert inter.nrows == rank(a) + rank(b) - rank(stacked)
        for row in inter.rows:
            assert row_space_contains(a, row)
            assert row_space_contains(b, row)


def test_hull_equals_intersection_rank(family17):
    g = family17.expurgated
    assert hull_dimension(g) == intersect_rowspaces(g, dual_basis(g)).nrows


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_hull_dimension_matches_the_intersection(data):
    # self-orthogonal rows (pairs of equal columns) make nonzero hulls common
    k = data.draw(st.integers(0, 10))
    n = data.draw(st.integers(k, 24))
    rows = [data.draw(st.integers(0, (1 << n) - 1)) for _ in range(k)]
    doubled = data.draw(st.integers(0, n))
    rows = [r | (r & ((1 << doubled) - 1)) << n for r in rows]
    g = BitMatrix(n + doubled, tuple(rows))
    if rank(g) < k:
        with pytest.raises(ValueError, match="generator rows are dependent"):
            hull_dimension(g)
    else:
        assert hull_dimension(g) == hull_dimension_by_intersection(g)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_left_kernel_is_every_vanishing_combination(data):
    n = data.draw(st.integers(0, 14))
    cols = data.draw(st.integers(0, 12))
    m = BitMatrix(cols, tuple(data.draw(st.integers(0, (1 << cols) - 1)) for _ in range(n)))
    kernel = left_kernel(m)
    assert kernel.cols == n and kernel.nrows == n - rank(m)
    assert rank(kernel) == kernel.nrows
    for combo in kernel.rows:
        v = 0
        for i in range(n):
            if combo >> i & 1:
                v ^= m.rows[i]
        assert v == 0


def _check_systematizations(g, pair):
    """g1 = [I | A] and g2 = [B | I] span one code, which has g's weights."""
    g1, g2 = pair
    k = g.nrows
    assert g1.cols == g2.cols == 2 * k
    assert [r & ((1 << k) - 1) for r in g1.rows] == [1 << i for i in range(k)]
    assert [r >> k for r in g2.rows] == [1 << i for i in range(k)]
    assert same_row_space(g1, g2)
    assert exhaustive_distribution(g1.rows, 2 * k) == exhaustive_distribution(g.rows, 2 * k)


@pytest.mark.parametrize("p", [7, 17, 41, 137])
def test_information_sets_of_extended_qr_codes(p, request):
    # both halves are information sets, so the columns stay where they are
    g = request.getfixturevalue(f"family{p}").extended
    g1, g2 = disjoint_information_systematizations(g)
    assert g1 == rref(g)[0]
    assert same_row_space(g2, g)
    assert [r >> g.nrows for r in g2.rows] == [1 << i for i in range(g.nrows)]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_information_sets_are_disjoint_and_of_full_rank(data):
    k = data.draw(st.integers(0, 8))
    g = BitMatrix(2 * k, tuple(data.draw(st.integers(0, (1 << 2 * k) - 1)) for _ in range(k)))
    pair = disjoint_information_systematizations(g)
    if pair is not None:
        _check_systematizations(g, pair)
    if rank(g) < k:
        assert pair is None
    assert disjoint_information_systematizations(g) == pair  # deterministic


def test_information_sets_found_by_exchange():
    # the rref pivots {0, 1, 3} leave {2, 4, 5}, of rank 2 since columns 2
    # and 5 are equal; the next column order starts with the dependent one
    g = from_lists([[0, 0, 0, 1, 1, 0], [1, 1, 0, 1, 1, 0], [0, 1, 1, 0, 0, 1]])
    assert rref(g)[1] == [0, 1, 3]
    assert [r >> 2 & 1 for r in g.rows] == [r >> 5 & 1 for r in g.rows]
    pair = disjoint_information_systematizations(g)
    assert pair is not None
    _check_systematizations(g, pair)


def test_information_sets_none_for_a_zero_column():
    # columns 1 and 3 are zero: every half holding one of them has rank < 2
    g = from_lists([[1, 0, 1, 0], [0, 0, 1, 0]])
    assert rank(g) == 2
    assert disjoint_information_systematizations(g) is None
    assert disjoint_information_systematizations(BitMatrix(2, (0b01,))) is None  # one zero column


def test_information_sets_none_for_dependent_columns_or_rows():
    # columns 0, 1 and 2 are equal, so only one set can hold column 3
    assert disjoint_information_systematizations(from_lists([[1, 1, 1, 0], [0, 0, 0, 1]])) is None
    assert disjoint_information_systematizations(from_lists([[1, 0, 1, 0], [1, 0, 1, 0]])) is None


def test_information_sets_not_half_rate():
    with pytest.raises(ValueError, match="is not k x 2k"):
        disjoint_information_systematizations(BitMatrix(5, (0b00011, 0b01100)))


def test_cyclic_matrix_shape(family17):
    m = cyclic_generator_matrix(family17.gen_q, 17)
    assert m.cols == 17 and m.nrows == 9


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_weight_histogram_matches_direct_popcounts(data):
    width = data.draw(st.integers(0, 40))
    lo = data.draw(st.one_of(st.just(0), st.integers(0, 300)))  # lane offset
    lanes = data.draw(st.one_of(st.just(1), st.integers(0, 200)))
    extra = data.draw(st.integers(0, 300))  # table lanes beyond the counted range
    columns = [data.draw(st.integers(0, (1 << (lo + lanes + extra)) - 1)) for _ in range(width)]
    flips = data.draw(st.integers(0, (1 << (width + 2)) - 1))
    max_weight = data.draw(st.integers(-1, width + 1))
    min_weight = data.draw(st.one_of(st.just(0), st.integers(-1, width + 2)))
    # pieces of the lane range, empty ones allowed
    inner = data.draw(st.lists(st.integers(lo, lo + lanes), max_size=6))
    cuts = [lo, *sorted(inner), lo + lanes]

    def expected(start, end, least):
        counts: dict[int, int] = {}
        for x in range(start, end):
            word = sum(((col >> x) & 1) << j for j, col in enumerate(columns)) ^ flips
            w = (word & ((1 << width) - 1)).bit_count()
            if least <= w <= max_weight:
                counts[w] = counts.get(w, 0) + 1
        return counts

    assert weight_histogram(columns, flips, lo, lo + lanes, max_weight) == expected(lo, lo + lanes, 0)
    pieces = weight_histograms(columns, flips, cuts, max_weight, min_weight)
    assert pieces == [expected(a, b, min_weight) for a, b in zip(cuts, cuts[1:])]


def test_weight_histograms_of_lanes_that_all_weigh_zero():
    # no bit-plane at all: every lane weighs 0, which min_weight may exclude
    for columns, flips in (([], 0), ([0, 0b1100000], 0b100)):  # ones only past lane 4; no column 2 to flip
        assert weight_histograms(columns, flips, (0, 2, 2, 5), 3) == [{0: 2}, {}, {0: 3}]
        assert weight_histograms(columns, flips, (0, 2, 5), 3, 1) == [{}, {}]
