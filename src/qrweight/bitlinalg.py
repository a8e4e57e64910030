"""Bit-packed linear algebra over GF(2).

Vectors are Python ints used as bitsets (bit i = coordinate i), so XOR is
vector addition and ``int.bit_count`` is the Hamming weight. Everything here
is a pure function on immutable values and safe to share across workers.

Tables of many words are also stored transposed ("bit-sliced"): column j is
one int whose bit x is coordinate j of word x, the table's lane x. One big-int
operation then acts on every lane at once, and ``weight_histogram`` counts
the weights of a whole table in a few hundred of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Sequence


@dataclass(frozen=True)
class BitMatrix:
    """Matrix over GF(2); each row is an int with bit i = column i."""

    cols: int
    rows: tuple[int, ...]

    def __post_init__(self):
        for r in self.rows:
            if r < 0 or r >> self.cols:
                raise ValueError(f"row does not fit in {self.cols} columns")

    @classmethod
    def identity(cls, n: int) -> BitMatrix:
        return cls(n, tuple(1 << i for i in range(n)))

    @property
    def nrows(self) -> int:
        return len(self.rows)


def rref_on_columns(m: BitMatrix, col_order: Sequence[int]) -> tuple[BitMatrix, list[int]]:
    """Row reduce eliminating along ``col_order``; deterministic pivot choice.

    Returns the reduced matrix (zero rows dropped) and its pivot columns in
    elimination order.
    """
    rows = list(m.rows)
    pivots: list[int] = []
    r = 0
    for c in col_order:
        bit = 1 << c
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i] & bit:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pivot = rows[r]
        for i in range(len(rows)):
            if i != r and rows[i] & bit:
                rows[i] ^= pivot
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return BitMatrix(m.cols, tuple(rows[:r])), pivots


def rref(m: BitMatrix) -> tuple[BitMatrix, list[int]]:
    """Reduced row-echelon form with leftmost pivots; pivots strictly increase."""
    return rref_on_columns(m, range(m.cols))


def rank(m: BitMatrix) -> int:
    return rref(m)[0].nrows


def same_row_space(a: BitMatrix, b: BitMatrix) -> bool:
    if a.cols != b.cols:
        return False
    return rref(a)[0].rows == rref(b)[0].rows


def dual_basis(g: BitMatrix) -> BitMatrix:
    """Basis of the orthogonal complement of the row space of ``g``.

    Standard parity-check construction from the rref free columns; for
    g = [I | A] this returns [A^T | I].
    """
    reduced, pivots = rref(g)
    if reduced.nrows != g.nrows:
        raise ValueError(f"rank {reduced.nrows} < {g.nrows} rows")
    pivot_set = set(pivots)
    free = [c for c in range(g.cols) if c not in pivot_set]
    out = []
    for f in free:
        v = 1 << f
        for i, pc in enumerate(pivots):
            if (reduced.rows[i] >> f) & 1:
                v |= 1 << pc
        out.append(v)
    return BitMatrix(g.cols, tuple(out))


def left_kernel(m: BitMatrix) -> BitMatrix:
    """Coefficient vectors c with sum_i c_i * row_i = 0 (over GF(2)).

    Rows of the result are packed coefficient vectors of length ``m.nrows``.
    Each work row is one int: the vector in the low ``m.cols`` bits and the
    combination of input rows that made it above them, so one XOR updates both.
    """
    n = m.nrows
    shift = m.cols
    work = [row | 1 << shift << i for i, row in enumerate(m.rows)]
    r = 0
    for c in range(shift):
        bit = 1 << c
        pivot_row = None
        for i in range(r, n):
            if work[i] & bit:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        pivot = work[r]
        for i in range(n):
            if i != r and work[i] & bit:
                work[i] ^= pivot
        r += 1
    return BitMatrix(n, tuple(w >> shift for w in work if not w & ((1 << shift) - 1)))


def intersect_rowspaces(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Basis of rowspace(a) & rowspace(b), via the kernel of the stacked matrix."""
    if a.cols != b.cols:
        raise ValueError("column counts differ")
    stacked = BitMatrix(a.cols, a.rows + b.rows)
    gens = []
    for combo in left_kernel(stacked).rows:
        v = 0
        for i in range(a.nrows):
            if (combo >> i) & 1:
                v ^= a.rows[i]
        gens.append(v)
    return rref(BitMatrix(a.cols, tuple(gens)))[0]


@lru_cache(maxsize=4)
def hull_dimension(g: BitMatrix) -> int:
    """dim of rowspace(g) intersected with its orthogonal complement.

    Computed as k - rank(G G^T): for G of full rank k, xG lies in the dual
    exactly when x G G^T = 0, so the hull is the image of that left kernel.
    The last four generators' dimensions are cached, so repeated solves of
    one code compute it once; a ValueError is raised again on every call.
    """
    if rank(g) != g.nrows:
        raise ValueError("generator rows are dependent")
    gram = tuple(sum(((a & b).bit_count() & 1) << j for j, b in enumerate(g.rows)) for a in g.rows)
    return g.nrows - rank(BitMatrix(g.nrows, gram))


def disjoint_information_systematizations(g: BitMatrix) -> tuple[BitMatrix, BitMatrix] | None:
    """Systematize a k x 2k generator on two disjoint information sets.

    Returns (g1, g2) = ([I | A], [B | I]), both row-equivalent to g with its
    columns permuted so that the first set comes first, in ascending order,
    and then the second; or None when no pair was found. The first set is
    the rref pivots along a column order, starting from the identity order,
    so a code whose halves are information sets keeps its columns. While the
    other k columns have rank < k, the next order is their dependent columns,
    then their pivots, then the old pivots, which exchanges dependent columns
    into the first set. The search stops after 2k + 1 orders, or at once if
    the rows are dependent, so it is deterministic.
    """
    k, n = g.nrows, g.cols
    if n != 2 * k:
        raise ValueError(f"{k} x {n} is not k x 2k")
    order = list(range(n))
    for _ in range(n + 1):
        g1, first = rref_on_columns(g, order)
        if len(first) < k:
            return None  # dependent rows have no information set at all
        chosen = set(first)
        rest = [c for c in order if c not in chosen]
        g2, second = rref_on_columns(g, rest)
        if len(second) == k:
            break
        independent = set(second)
        order = [c for c in rest if c not in independent] + second + first
    else:
        return None
    perm = sorted(first) + sorted(second)  # new column i is old column perm[i]
    moved = perm != list(range(n))

    def systematic(reduced: BitMatrix, pivots: list[int]) -> BitMatrix:
        rows = [row for _, row in sorted(zip(pivots, reduced.rows))]
        if moved:
            rows = [sum((row >> c & 1) << i for i, c in enumerate(perm)) for row in rows]
        return BitMatrix(n, tuple(rows))

    return systematic(g1, first), systematic(g2, second)


TABLE_BITS = 1 << 22  # columns x lanes of a span table, about 512 KB


def span_columns(rows: Sequence[int], width: int) -> tuple[int, ...]:
    """Bit-sliced table of all 2^len(rows) XOR combinations of ``rows``.

    Lane x is the combination selected by the bits of x, so the first 2^b
    lanes are the combinations of the first b rows. Built by doubling.
    """
    columns = [0] * width
    lanes = 1
    for row in rows:
        ones = (1 << lanes) - 1
        for j, col in enumerate(columns):
            columns[j] = col | ((col ^ ones if (row >> j) & 1 else col) << lanes)
        lanes <<= 1
    return tuple(columns)


_BIT_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def rd_subset_columns(rows: Sequence[int], width: int, max_depth: int) -> tuple[tuple[int, ...], ...]:
    """Bit-sliced tables T_0..T_D of the XORs of the d-subsets of ``rows``.

    Lane x of T_d is the d-subset of revolving-door rank x (the oracle
    ``rd_unrank`` of ``tests/conftest.py``, with t = d), so the ranks
    [lo, hi) are the lanes [lo, hi), and the first C(m, d) lanes are the
    d-subsets of rows[0..m). Subsets with largest element m hold the ranks
    [C(m, d), C(m + 1, d)) and walk the (d-1)-subsets of [0, m) backwards, so
    T_d(m + 1) = T_d(m) ++ (row_m ^ reversed T_{d-1}(m)). Each level is built from the finished level below it, whose
    columns are bit-reversed once: reversed T_{d-1}(m) is then one shift of
    that mirror. D is ``max_depth``, clamped to [0, len(rows)]; the caller
    sizes the tables.
    """
    k = len(rows)
    depth = max(0, min(k, max_depth))
    tables = [(0,) * width]  # T_0 is the one empty subset
    for d in range(1, depth + 1):
        nbytes = (comb(k, d - 1) + 7) // 8
        steps = []
        for m in range(d - 1, k):
            n = comb(m, d - 1)  # T_{d-1}(m) is bits [8 nbytes - n, 8 nbytes) of a column's mirror
            steps.append((8 * nbytes - n, (1 << n) - 1, comb(m, d), rows[m]))
        level = []
        for j, col in enumerate(tables[-1]):
            mirror = int.from_bytes(col.to_bytes(nbytes, "little").translate(_BIT_REVERSED), "big")
            column = 0
            for drop, ones, shift, row in steps:
                part = mirror >> drop
                column |= (part ^ ones if (row >> j) & 1 else part) << shift
            level.append(column)
        tables.append(tuple(level))
    return tuple(tables)


def weight_histogram(columns: Sequence[int], flips: int, lo: int, hi: int, max_weight: int) -> dict[int, int]:
    """``weight_histograms`` of the one piece [lo, hi)."""
    return weight_histograms(columns, flips, (lo, hi), max_weight)[0]


def weight_histograms(
    columns: Sequence[int], flips: int, cuts: Sequence[int], max_weight: int, min_weight: int = 0
) -> list[dict[int, int]]:
    """Nonzero counts of each weight in [min_weight, max_weight] among the
    lanes of a bit-sliced table, every word XORed with ``flips``, for each
    piece [cuts[i], cuts[i + 1]) of the lanes [cuts[0], cuts[-1]).

    A carry-save adder chain sums the columns of all the pieces at once into
    bit-planes of every lane's weight (plane i holds bit i). A piece's count
    of weight w is the bit_count of the AND of its lanes of the planes, or of
    their complements, that spell w. Those ANDs share their prefixes from
    the top plane down, and a prefix is dropped once its lowest possible
    weight exceeds max_weight or its highest, v | (2^i - 1) with i planes
    left, falls below min_weight.
    """
    lo, hi = cuts[0], cuts[-1]
    if hi <= lo or max_weight < max(min_weight, 0):
        return [{} for _ in cuts[1:]]
    mask = (1 << (hi - lo)) - 1
    below = (1 << hi) - 1
    level = []
    for j, col in enumerate(columns):
        # cut the lanes from whichever end copies fewer bits; a shift by 0 copies too
        if lo == 0:
            col &= mask
        elif col.bit_length() - lo < hi:
            col = (col >> lo) & mask
        else:
            col = (col & below) >> lo
        if (flips >> j) & 1:
            col ^= mask
        if col:
            level.append(col)
    planes = []
    while level:
        carries = []
        while len(level) > 2:  # full adder: three bits of weight 2^i make one of 2^i, one of 2^(i+1)
            a, b, c = level.pop(), level.pop(), level.pop()
            ab = a ^ b
            level.append(ab ^ c)
            carries.append((a & b) | (ab & c))
        if len(level) == 2:
            a, b = level
            level = [a ^ b]
            carries.append(a & b)
        planes.append(level[0])
        level = [c for c in carries if c]
    out = []
    for start, end in zip(cuts, cuts[1:]):
        counts: dict[int, int] = {}
        out.append(counts)
        if end <= start:
            continue
        if not planes:  # every lane has weight 0
            if min_weight <= 0:
                counts[0] = end - start
            continue
        if end - start == hi - lo:
            piece, cut = mask, planes
        else:
            piece = (1 << (end - start)) - 1
            cut = [(plane >> (start - lo)) & piece for plane in planes]
        stack = [(len(cut), 0, piece)]  # (planes left, weight bits so far, lanes that match them)
        while stack:
            i, w, match = stack.pop()
            i -= 1
            least = min_weight - (1 << i) + 1  # v | (2^i - 1) >= min_weight, as v has no bit below i
            ones = match & cut[i]
            for sub, v in ((match ^ ones, w), (ones, w | 1 << i)):
                if sub and least <= v <= max_weight:
                    if i:
                        stack.append((i, v, sub))
                    else:
                        counts[v] = sub.bit_count()
    return out
