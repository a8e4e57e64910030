"""Shared fixtures: code families and brute-force oracles.

The oracles walk codewords one at a time: full spans and subcode index
ranges by a plain binary-reflected Gray walk over generator rows, and census
shards by the revolving-door walk of Knuth's Algorithm R, started at the
pattern that ``rd_unrank`` computes from a rank, and the shard plan, its
runs, the costs of its units, their worker shares and the coverage of a
merge by plain loops over its units. They share no code
with the bit-sliced kernel that the census and congruence paths count with.
The MacWilliams oracle expands every term of the transform on its own, and
the hull oracle intersects the code with its dual basis. The small helpers
below them (matrices from 0/1 lists, row-space membership, polynomial
evaluation, left-to-right composition of permutations, a permutation applied
to a bit vector, the scaling-word identity of PSL2(p), a Moebius map's images
point by point) are used by tests only.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import pytest

from qrweight import build_family
from qrweight.bitlinalg import BitMatrix, dual_basis, intersect_rowspaces, rref
from qrweight.errors import InvariantViolation
from qrweight.gleason import BigPoly
from qrweight.psl2 import CoordPermutation, MoebiusMap, prime_factors, to_permutation


def from_lists(lists) -> BitMatrix:
    """A BitMatrix from rows of 0/1 entries, entry i of a row at bit i."""
    cols = len(lists[0]) if lists else 0
    return BitMatrix(cols, tuple(sum((b & 1) << i for i, b in enumerate(line)) for line in lists))


def row_space_contains(m: BitMatrix, bits: int) -> bool:
    reduced, pivots = rref(m)
    for row, c in zip(reduced.rows, pivots):
        if (bits >> c) & 1:
            bits ^= row
    return not bits


def eval_int(poly: BigPoly, x: int) -> int:
    """The polynomial's value at the integer x, by Horner's rule."""
    acc = 0
    for c in reversed(poly.coeffs):
        acc = acc * x + c
    return acc


def then(first: CoordPermutation, *rest: CoordPermutation) -> CoordPermutation:
    """The composition that applies ``first`` and then each of ``rest`` in turn."""
    for perm in rest:
        first = perm * first
    return first


def apply_to_bits(perm: CoordPermutation, bits: int) -> int:
    """Move the value at coordinate i of ``bits`` to coordinate perm.image[i]."""
    out = 0
    for i, v in enumerate(perm.image):
        if (bits >> i) & 1:
            out |= 1 << v
    return out


def verify_scaling_word(p: int, rho: int) -> bool:
    """Check that y -> rho^2 * y equals the word T S^rho T S^mu T S^rho.

    rho must generate the multiplicative group mod p, i.e. rho^((p-1)/q) != 1
    for every prime q dividing p - 1, else this is a ValueError; mu = rho^-1
    mod p. The word is applied left to right (T first), so the
    squared-scaling generator is redundant given the translation S and the
    inversion T.
    """
    if rho % p == 0 or any(pow(rho, (p - 1) // q, p) == 1 for q in prime_factors(p - 1)):
        raise ValueError(f"{rho} does not generate the multiplicative group mod {p}")
    mu = pow(rho, -1, p)
    t = to_permutation(MoebiusMap.inversion(p))
    s_rho = to_permutation(MoebiusMap.translation(p, rho))
    s_mu = to_permutation(MoebiusMap.translation(p, mu))
    word = then(t, s_rho, t, s_mu, t, s_rho)
    scaling = to_permutation(MoebiusMap(p, rho, 0, 0, mu))
    return word == scaling


def moebius_images(m: MoebiusMap) -> tuple[int, ...]:
    """The image of every point under the map, point p standing for infinity,
    by the formula (a y + b) / (c y + d) with one modular inverse per point."""
    p = m.p
    image = [p if (m.c * y + m.d) % p == 0 else (m.a * y + m.b) * pow(m.c * y + m.d, -1, p) % p for y in range(p)]
    image.append(p if m.c % p == 0 else m.a * pow(m.c, -1, p) % p)
    return tuple(image)


def exhaustive_distribution(rows, n) -> list[int]:
    """Full weight distribution of the span of ``rows``, counts indexed by weight."""
    counts = [0] * (n + 1)
    counts[0] = 1
    word = 0
    for i in range(1, 1 << len(rows)):
        word ^= rows[(i & -i).bit_length() - 1]
        counts[word.bit_count()] += 1
    return counts


def span_words(rows) -> set[int]:
    """All codewords of the span (use only for small dimensions)."""
    words = set()
    word = 0
    words.add(0)
    for i in range(1, 1 << len(rows)):
        word ^= rows[(i & -i).bit_length() - 1]
        words.add(word)
    return words


def gray_walk_counts(rows, max_weight, start, stop) -> dict[int, int]:
    """Per-weight counts of words start..stop-1 of the Gray walk over ``rows``."""
    counts: dict[int, int] = {}
    word = 0
    code = start ^ (start >> 1)  # Gray encoding of the range start
    for i in range(len(rows)):
        if (code >> i) & 1:
            word ^= rows[i]
    w = word.bit_count()
    if start < stop and w <= max_weight:
        counts[w] = 1
    for i in range(start + 1, stop):
        word ^= rows[(i & -i).bit_length() - 1]
        w = word.bit_count()
        if w <= max_weight:
            counts[w] = counts.get(w, 0) + 1
    return counts


def hull_dimension_by_intersection(g) -> int:
    """dim of rowspace(g) & its dual, by intersecting with a dual basis."""
    return intersect_rowspaces(g, dual_basis(g)).nrows


def macwilliams_expansion(dist, n, k) -> list[int]:
    """The MacWilliams transform term by term: sum_i A_i (1-z)^i (1+z)^(n-i),
    each product expanded separately, then divided by 2^k. O(n^3)."""
    if len(dist) != n + 1:
        raise ValueError(f"distribution must have {n + 1} entries")
    if sum(dist) != 1 << k:
        raise ValueError(f"distribution sums to {sum(dist)}, expected 2^{k}")
    minus_pows = [BigPoly((1,))]
    plus_pows = [BigPoly((1,))]
    for _ in range(n):
        minus_pows.append(minus_pows[-1] * BigPoly((1, -1)))
        plus_pows.append(plus_pows[-1] * BigPoly((1, 1)))
    acc = [0] * (n + 1)
    for i, a in enumerate(dist):
        if a == 0:
            continue
        term = minus_pows[i] * plus_pows[n - i]
        for idx in range(n + 1):
            acc[idx] += a * term.coeff(idx)
    out = []
    for v in acc:
        if v % (1 << k):
            raise InvariantViolation("transform is not divisible by 2^k")
        out.append(v >> k)
    return out


@dataclass(frozen=True)
class CombPattern:
    """A t-subset of {0..s-1} stored as a strictly increasing tuple."""

    s: int
    elements: tuple[int, ...]

    def __post_init__(self):
        prev = -1
        for a in self.elements:
            if a <= prev or a >= self.s:
                raise ValueError(f"elements not strictly increasing in [0, {self.s})")
            prev = a

    @property
    def t(self) -> int:
        return len(self.elements)


def rd_rank(c: CombPattern) -> int:
    """Position of the pattern in the revolving-door walk, which starts at rank 0:
    rank(a_t .. a_1) = C(a_t + 1, t) - 1 - rank(a_t-1 .. a_1)."""
    r = 0
    sign = 1
    for i in range(c.t - 1, -1, -1):
        r += sign * (comb(c.elements[i] + 1, i + 1) - 1)
        sign = -sign
    return r


def rd_unrank(r: int, s: int, t: int) -> CombPattern:
    """Pattern of the given rank, by locating a_t in its block and reflecting."""
    if not 0 <= r < comb(s, t):
        raise ValueError(f"rank {r} outside [0, {comb(s, t)}) for C({s},{t})")
    out = []
    for tt in range(t, 0, -1):
        a = tt - 1
        while comb(a + 1, tt) <= r:
            a += 1
        out.append(a)
        r = comb(a + 1, tt) - 1 - r
    out.reverse()
    return CombPattern(s, tuple(out))


def rd_step(c: list[int], s: int) -> tuple[int, int] | None:
    """Move a sorted pattern to its revolving-door successor in place.

    Knuth's Algorithm R (TAOCP 4A, 7.2.1.3, steps R3-R5): scanning up from
    the smallest element, c[j] moves up when len(c) - j is odd and down
    otherwise, and the first element that can move does. Reaching c[j] means
    every element below it is as small as it can be (moving up) or sits just
    below it (moving down). Returns (removed, added), or None after the last
    pattern, leaving c unchanged.
    """
    t = len(c)
    for j in range(t):
        if (t - j) % 2:
            if c[j] + 1 < (c[j + 1] if j + 1 < t else s):
                if j == 0:
                    c[0] += 1
                    return c[0] - 1, c[0]
                # j - 1 leaves, and c[j] + 1 joins above c[j]
                removed = c[j - 1]
                c[j - 1] = c[j]
                c[j] += 1
                return removed, c[j]
        elif j == 0:
            if c[0]:
                c[0] -= 1
                return c[0] + 1, c[0]
        elif c[j - 1] >= j:
            # c[j] = c[j - 1] + 1 leaves, and j - 1 joins below c[j - 1]
            removed = c[j]
            c[j] = c[j - 1]
            c[j - 1] = j - 1
            return removed, j - 1
    return None


def rd_successor(c: CombPattern) -> CombPattern | None:
    """Next pattern in revolving-door order; None after the last of C(s, t)."""
    elements = list(c.elements)
    if rd_step(elements, c.s) is None:
        return None
    return CombPattern(c.s, tuple(elements))


def plan_units(k: int, t: int, block_size: int) -> list[tuple[int, int, int, int, int]]:
    """The census shard plan by its definition, unit by unit: for each matrix
    and each size <= t the C(k, size) ranks are cut into consecutive shards
    of block_size ranks, the last one shorter, indexed from 1 in that order."""
    units = []
    for matrix in (1, 2):
        for size in range(t + 1):
            total = comb(k, size)
            for start in range(0, total, block_size):
                units.append((len(units) + 1, matrix, size, start, min(block_size, total - start)))
    return units


def plan_runs(units) -> list[tuple[int, int, int, int]]:
    """Units (index, matrix, size, start, count) grouped into runs, as the
    census counted them unit by unit: a maximal sequence of units of one
    (matrix, size), each starting where the one before it stops, as
    (matrix, size, first start, last stop)."""
    runs: list[list[int]] = []
    for _, matrix, size, start, count in units:
        if runs and runs[-1][3] == start and runs[-1][:2] == [matrix, size]:
            runs[-1][3] = start + count
        else:
            runs.append([matrix, size, start, start + count])
    return [tuple(run) for run in runs]


def unit_costs(units, k: int, max_weight: int) -> list[int]:
    """Each unit's cost, priced one unit at a time: k per live lane plus
    ``census.KERNEL_CALL_BITS`` per kernel call, counted as the blocks of
    ``census._blocks_below`` that start in its ranks; a dead unit costs 0."""
    from qrweight import census

    costs = []
    for _, matrix, size, start, count in units:
        if not census.is_live(matrix, size, max_weight):
            costs.append(0)
            continue
        depth, total = census._depth(k, matrix, max_weight), comb(k, size)
        below = census._blocks_below(min(start, total), size, depth, k)[0]
        above = census._blocks_below(min(start + count, total), size, depth, k)[0]
        costs.append(k * count + census.KERNEL_CALL_BITS * (above - below))
    return costs


def cover_refusal(index_lists, total: int) -> str | None:
    """How a set-based check refuses parts listing these shard indices:
    "duplicate" if an index appears twice, else "missing" if one of 1..total
    is not listed, else "outside" if one is not in 1..total, else None."""
    seen: set[int] = set()
    for indices in index_lists:
        for i in indices:
            if i in seen:
                return "duplicate"
            seen.add(i)
    if set(range(1, total + 1)) - seen:
        return "missing"
    return "outside" if seen - set(range(1, total + 1)) else None


def scalar_count_shard(args: tuple) -> tuple:
    """``census._count_shard`` one pattern at a time: walk the shard in
    revolving-door order, one row exchange and one popcount per pattern."""
    index, matrix, size, start_rank, count, rows, k, left_mask, max_weight = args
    elements = list(rd_unrank(start_rank, k, size).elements)
    word = 0
    for i in elements:
        word ^= rows[i]
    counts: dict[int, int] = {}
    keep_ties = matrix == 1
    remaining = count
    while True:
        w = word.bit_count()
        if w <= max_weight:
            wl = (word & left_mask).bit_count()
            wr = w - wl
            if (wl <= wr) if keep_ties else (wr < wl):
                counts[w] = counts.get(w, 0) + 1
        remaining -= 1
        if remaining == 0:
            break
        step = rd_step(elements, k)
        if step is None:
            raise InvariantViolation("shard ran past the end of the walk")
        removed, added = step
        word ^= rows[removed] ^ rows[added]
    return index, matrix, size, start_rank, count, tuple(sorted(counts.items()))


@pytest.fixture(scope="session")
def family7():
    return build_family(7)


@pytest.fixture(scope="session")
def family17():
    return build_family(17)


@pytest.fixture(scope="session")
def family41():
    return build_family(41)


@pytest.fixture(scope="session")
def family137():
    return build_family(137)


@pytest.fixture(scope="session")
def dist17(family17):
    return exhaustive_distribution(family17.extended.rows, family17.n_extended)


@pytest.fixture(scope="session")
def dist41(family41):
    return exhaustive_distribution(family41.extended.rows, family41.n_extended)
