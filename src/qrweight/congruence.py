"""Modular congruences for weight-distribution coefficients.

Each coefficient A_j of the extended code satisfies A_j = A_j(fixed) mod
|PSL2(p)|, where A_j(fixed) counts codewords fixed by some group element.
That residue is assembled by CRT from one count per prime power dividing the
group order: exhaustive counts inside invariant subcodes for the odd primes,
and the dihedral inclusion-exclusion combination for the prime 2.

A subcode is the parent code intersected, once, with the vectors constant on
the orbits of its group. A sum of orbits lies in the code iff the syndromes of
its orbits, each the XOR of the parity-check columns of its coordinates, sum
to zero, so the subcode is the left kernel of the #orbits x (n - k) syndrome
matrix. That kernel is reduced in orbit coordinates and only then mapped back
to sums of orbits; as the orbits come in the order of their least
coordinates, the result is the rref of the subcode in coordinates, the basis
a reduction at full width would give. The code's parity-check columns and
its rref, against which every basis row is checked, are computed once per
code, and the basis columns that the fixedness check computes are kept for
the fold. Its words are counted on a folded copy: coordinates whose basis
columns are equal hold equal bits in every word, so a class of s of them
weighs s or 0. Weighing each class s // g, g the gcd of the class sizes,
divides every word's weight by exactly g and keeps the words in the same
order, so the folded counts, with weights multiplied by g, are the exact
counts.

A folded code is counted one of two ways. The default walks its words in
Gray order, one column per class, weighted by the class's weight: at
p = 137 that is 36 columns for G4_0, whose fold is 69 wide. The extended
code holds the all-ones word and every permutation fixes it, so every
subcode holds it too and its words come in complement pairs, of weights w
and n - w. When the folded code holds its own all-ones word, the walk visits
the 2^(k-1) words spanned by all rows but the last and counts each as itself
and as its complement; otherwise it visits all 2^k. When the folded code is
half-rate, [2k, k], with two disjoint information sets, the census that
counts the extended code (``census.census_counts``) counts its words of
folded weight <= W = max_weight // g instead, once it walks fewer patterns
than the 2^k words; its rows hold each class as many times as its weight.
At p = 137, S_3 folds to a [46, 23] code: a census to W = 11 walks 89,104
patterns where the walk visits 2^23 words.

Either way a subcode is charged to the one enumeration budget
(``census.check_budget``) the lanes of the route it takes: the census's
patterns (``census.pattern_cost``), charged once the pair is found, or 2^k
words for the walk. The folded width is support / g, so when 2k does not
divide the support no fold can be half-rate, and the 2^k words are charged
before the fold. At p = 137 that refuses only the order-2 subcode H2
(k = 35, support 138); the next largest is S_3 (k = 23). ``compute_bundle``
then takes H2's row from a supplied fixture, if any. At p = 127 H2 folds to
a [64, 32] code whose census walks 284,274 patterns where the walk would
visit 2^32 words.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from math import gcd
from operator import or_, xor
from typing import Mapping, Sequence

from . import bitlinalg, census
from .bitlinalg import BitMatrix
from .errors import BudgetExceeded, InvariantViolation
from .psl2 import CoordPermutation, MoebiusMap, SylowPlan, to_permutation
from .qrcodes import QrCodeFamily


@dataclass(frozen=True)
class InvariantSubcode:
    """Basis of the codewords fixed by every permutation of a subgroup."""

    basis: BitMatrix

    @property
    def k(self) -> int:
        return self.basis.nrows

    @cached_property
    def columns(self) -> list[int]:
        """The basis columns: bit r of column j is coordinate j of row r.
        ``invariant_subcode`` stores the ones its fixedness check computes."""
        return bitlinalg.transpose(self.basis)


def fixed_space(group: Sequence[CoordPermutation], n: int) -> BitMatrix:
    """Span of the orbit indicator vectors of the group the permutations generate.

    These are exactly the vectors that every permutation fixes: the vectors
    constant on each orbit. Each orbit is grown from its least coordinate by
    applying every permutation to each coordinate reached, and the orbits come
    in the order of their least coordinates.
    """
    images = [perm.image for perm in group]
    seen = [False] * n
    orbits = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        stack, orbit = [start], 0
        while stack:
            i = stack.pop()
            orbit |= 1 << i
            for image in images:
                j = image[i]
                if not seen[j]:
                    seen[j] = True
                    stack.append(j)
        orbits.append(orbit)
    return BitMatrix(n, tuple(orbits))


@lru_cache(maxsize=2)
def _parity_checks(code: BitMatrix) -> tuple[dict[int, int], dict[int, int]]:
    """The code's rref rows, and the columns of its parity-check matrix H,
    both keyed by the power of two of their coordinate and both from one
    reduction; the last two codes' are kept. The H-columns come in the order
    of their coordinates.

    Bit t of the column at coordinate j is coordinate j of row t of
    ``bitlinalg.dual_basis(code)``: that row is free coordinate f_t plus the
    pivots of the rref rows that hold f_t.
    """
    reduced, pivots = bitlinalg.rref(code)
    pivot_rows = {1 << c: row for row, c in zip(reduced.rows, pivots)}
    free = [1 << c for c in range(code.cols) if 1 << c not in pivot_rows]
    checks = {f: 1 << t for t, f in enumerate(free)}
    for pivot, row in pivot_rows.items():
        row ^= pivot  # the free coordinates the rref row holds
        check = 0
        while row:
            low = row & -row
            check |= checks[low]
            row ^= low
        checks[pivot] = check
    return pivot_rows, {1 << c: checks[1 << c] for c in range(code.cols)}


def invariant_subcode(code: BitMatrix, group: Sequence[CoordPermutation]) -> InvariantSubcode:
    """Intersect the code, once, with the space fixed by every element of the group.

    A fixed vector is x = sum of c_o * 1_o over the group's orbits o, and it
    lies in the code iff sum of c_o * H 1_o = 0, H the code's parity-check
    matrix. The syndrome H 1_o is the XOR of the H-columns of the orbit's
    coordinates, so the subcode is the left kernel of the #orbits x (n - k)
    syndrome matrix. At p = 137 that is a 70 x 69 elimination for H2 and a
    2 x 69 one for S_137.

    The kernel is reduced in orbit coordinates, #orbits columns (at most 70
    at p = 137, not 138), and only then is each row expanded to its union of
    orbits. That is the rref of the expanded rows, as rref is unique: the
    orbits come in the order of their least coordinates, so a row's lowest
    coordinate is the least one of its pivot orbit, and every other row is
    zero on that orbit, so zero at that coordinate too.

    Two checks follow on the expanded basis that do not use the syndromes.
    Every basis row must lie in the code: an rref row is zero at every other
    pivot, so a vector lies in the code iff it equals the XOR of the rows
    whose pivots it holds. And every permutation must fix every basis row,
    which it does exactly when it maps each coordinate to one with the same
    basis column. Those columns are kept on the subcode (``columns``) for the
    fold. The code's rref and H-columns are cached (``_parity_checks``), so
    a code is reduced once for all its subcodes.
    """
    n = code.cols
    for perm in group:
        if len(perm.image) != n:
            raise ValueError(f"permutation degree {len(perm.image)} != code length {n}")
    pivot_rows, checks = _parity_checks(code)
    h = list(checks.values())  # the H-column of coordinate j
    orbits = fixed_space(group, n).rows
    syndromes = []
    for orbit in orbits:
        syndrome = 0
        while orbit:
            low = orbit & -orbit
            syndrome ^= h[low.bit_length() - 1]
            orbit ^= low
        syndromes.append(syndrome)
    combos = bitlinalg.left_kernel(BitMatrix(n - len(pivot_rows), tuple(syndromes)))
    words = []
    for combo in bitlinalg.rref(combos)[0].rows:
        word = 0
        while combo:
            low = combo & -combo
            word |= orbits[low.bit_length() - 1]
            combo ^= low
        words.append(word)
    basis = BitMatrix(n, tuple(words))
    pivots = reduce(or_, pivot_rows, 0)
    for v in words:
        held, w = v & pivots, 0
        while held:
            low = held & -held
            w ^= pivot_rows[low]
            held ^= low
        if w != v:
            raise InvariantViolation("invariant subcode escaped the parent code")
    columns = bitlinalg.transpose(basis)
    for perm in group:
        if any(columns[i] != columns[v] for i, v in enumerate(perm.image)):
            raise InvariantViolation("basis row not fixed by the defining group")
    sub = InvariantSubcode(basis=basis)
    sub.__dict__["columns"] = columns  # the cached property, computed once
    return sub


def _fold(sub: InvariantSubcode) -> tuple[list[int], list[int], int]:
    """The classes of the subcode's coordinates, with their weights and g.

    A class is a set of coordinates whose basis columns are equal and nonzero,
    and g is the gcd of the class sizes. Returns each class's column (bit r =
    row r's bit), in the order of its first coordinate, with its weight
    size // g, and g.
    """
    classes: dict[int, int] = {}  # column -> class size
    for column in sub.columns:
        if column:
            classes[column] = classes.get(column, 0) + 1
    g = gcd(*classes.values()) or 1  # no nonzero column: every word weighs 0
    return list(classes), [size // g for size in classes.values()], g


def _expanded(classes: Sequence[int], weights: Sequence[int], k: int) -> BitMatrix:
    """The k folded rows with each class held as many times as its weight,
    the copies next to each other in the order of the classes."""
    kept = [column for column, weight in zip(classes, weights) for _ in range(weight)]
    return BitMatrix(len(kept), tuple(bitlinalg.transpose(BitMatrix(k, tuple(kept)))))


def subcode_weight_counts(sub: InvariantSubcode, max_weight: int, *, long_run: bool = False) -> dict[int, int]:
    """Exact per-weight counts over all 2^k subcode words, weights <= max_weight.

    The lanes of the route taken are checked against the budget
    (``census.check_budget``) before that route runs: the census's patterns,
    or the 2^k words of the walk, also when the census finds no pair of
    information sets. When 2k does not divide the support, the fold cannot be
    half-rate, so the 2^k words are checked before the fold. long_run lifts
    the budget. A walk that pairs words with their complements (below)
    visits only half of the 2^k words it is charged.

    The coordinates are folded first (``_fold``). Coordinates whose basis
    columns are equal carry the same bit in every word, so a class of s such
    coordinates adds s or 0 to a word's weight. With g the gcd of the class
    sizes, a class of weight s // g (and no all-zero column) leaves a code
    whose word i weighs exactly 1/g of the weight of word i here: same rows,
    same Gray order, so the counts of folded weight w are the counts of
    weight w * g, and weight <= max_weight means folded weight <= max_weight
    // g. The folded width is the sum of the class weights.

    When the folded code is half-rate (width 2k) with two disjoint
    information sets, the census that counts the extended code counts it
    instead (``census.census_counts``, to W = max_weight // g), provided the
    patterns it walks (``census.pattern_cost``) are fewer than the 2^k words.
    Its rows hold each class as many times as its weight, next to each other
    in the order of the classes. Its pair is found before the budget is
    charged.

    Otherwise the words are walked, one weighted column per class: the rows
    are the basis rows on the classes, and the kernel weighs a class's bit
    with the class's weight (``weight_histograms(weights=...)``). At p = 137
    that is 36 columns for G4_0 and 34 for G4_1, not 69. If the rows XOR to
    every class, the code holds its all-ones word u; with C' spanned by all
    rows but the last, the code is C' and C' + u: an rref basis holds u
    exactly when its rows XOR to u, since u holds every pivot, and then the
    last row is u plus a word of C'. A word x + u weighs width - w(x), so the
    walk runs over the m = k - 1 rows of C' and the kernel counts a second
    window: a word of folded weight w <= W = max_weight // g counts as w, and
    one of weight >= width - W as width - w (both when 2W >= width). Any
    other basis is walked over its m = k rows. Word i is the combination of
    the m rows selected by the bits of gray(i).

    The walk cuts the words into blocks j = 0 .. 2^(m-a) - 1 of 2^a words,
    i = j*2^a .. (j+1)*2^a - 1: the words of block j are the combination of
    rows[a:] selected by gray(j), XORed with every combination of rows[:a],
    the lanes of the span table of rows[:a]. Each block is one
    ``weight_histograms`` call, and its base is the previous block's with the
    one row of the bit that gray(j) flips.
    """
    k = sub.k
    support = reduce(or_, sub.basis.rows, 0).bit_count()
    if support % (2 * k or 1):
        census.check_budget(1 << k, long_run)
    classes, weights, g = _fold(sub)
    width = sum(weights)
    folded_max = max_weight // g
    if width == 2 * k and census.pattern_cost(k, folded_max) < 1 << k:
        counted = census.census_counts(_expanded(classes, weights, k), folded_max, long_run=long_run)
        if counted is not None:
            return {w * g: c for w, c in counted.items()}
    census.check_budget(1 << k, long_run)
    rows = bitlinalg.transpose(BitMatrix(k, tuple(classes)))
    paired = k > 0 and reduce(xor, rows) == (1 << len(classes)) - 1
    if paired:
        rows = rows[:-1]
    heavy = width - folded_max if paired else None
    a = min(len(rows), max(0, (bitlinalg.TABLE_BITS // max(len(classes), 1)).bit_length() - 1))
    columns = bitlinalg.span_columns(rows[:a], len(classes))
    counts = {}
    base = 0
    for j in range(1 << (len(rows) - a)):
        if j:  # gray(j) is gray(j - 1) with the lowest set bit of j flipped
            base ^= rows[a + (j & -j).bit_length() - 1]
        for w, c in bitlinalg.weight_histograms(
            columns, base, 0, 1 << a, folded_max, heavy_from=heavy, weights=weights
        ).items():
            if w <= folded_max:
                counts[w * g] = counts.get(w * g, 0) + c
            if paired and w >= heavy:  # the lane's complement, a word of the other half
                counts[(width - w) * g] = counts.get((width - w) * g, 0) + c
    return counts


def sylow2_count(h2: int, g04: int, g14: int, s: int) -> int:
    """Dihedral combination: ((2^(s-1)+1)*h2 - 2^(s-2)*(g04 + g14)) mod 2^s."""
    if s < 2:
        raise ValueError("s must be >= 2")
    return ((2 ** (s - 1) + 1) * h2 - 2 ** (s - 2) * (g04 + g14)) % (2**s)


@dataclass(frozen=True)
class CongruenceConstraint:
    """A_j = residue (mod modulus), with one part per prime power."""

    j: int
    residue: int
    modulus: int
    parts: tuple[tuple[int, int, str], ...]


@dataclass(frozen=True)
class Reject:
    """Outcome of a candidate that fails its congruence."""

    reason: str


def assemble_constraint(
    p: int,
    j: int,
    residues: Sequence[tuple[int, int, str]],
) -> CongruenceConstraint:
    """CRT-combine per-prime-power residues (prime power, residue, label) into
    a single constraint mod |PSL2(p)|."""
    parts = [(pp, r % pp, label) for pp, r, label in residues]
    moduli = [pp for pp, _, _ in parts]
    for i in range(len(moduli)):
        for l in range(i + 1, len(moduli)):
            if gcd(moduli[i], moduli[l]) != 1:
                raise ValueError(f"{moduli[i]} and {moduli[l]} share a factor")
    product = 1
    for pp in moduli:
        product *= pp
    expected = p * (p * p - 1) // 2
    if product != expected:
        raise ValueError(f"product {product} != group order {expected}")
    x = 0
    for pp, r, _ in parts:
        other = product // pp
        x = (x + r * other * pow(other, -1, pp)) % product
    return CongruenceConstraint(j=j, residue=x, modulus=product, parts=tuple(parts))


def check_candidate(constraint: CongruenceConstraint, candidate: int) -> int | Reject:
    """Return the orbit quotient n_j if the candidate satisfies the congruence."""
    if candidate % constraint.modulus != constraint.residue:
        return Reject(
            f"candidate {candidate} is {candidate % constraint.modulus} mod "
            f"{constraint.modulus}, expected {constraint.residue}"
        )
    n = (candidate - constraint.residue) // constraint.modulus
    if n < 0:
        return Reject(f"candidate {candidate} gives negative quotient {n}")
    return n


H2 = "H2"
G4_0 = "G4_0"
G4_1 = "G4_1"


def sylow_label(q: int) -> str:
    return f"S_{q}"


@dataclass(frozen=True)
class CongruenceBundle:
    """Everything the congruence stage produces for a range of weights."""

    p: int
    s: int
    dims: dict[str, int]
    counts: dict[str, dict[int, int]]
    sylow2: dict[int, int]
    constraints: dict[int, CongruenceConstraint]
    h2_source: str


def compute_bundle(
    family: QrCodeFamily,
    plan: SylowPlan,
    weights: Sequence[int],
    *,
    long_run: bool = False,
    h2_counts_fixture: Mapping[int, int] | None = None,
) -> CongruenceBundle:
    """Compute invariant subcodes, counts and CRT constraints for even weights.

    Subcode dimensions are always recomputed, and every row is counted by
    ``subcode_weight_counts`` under the one budget. Only when that budget
    refuses the order-2 subcode H2 is a supplied fixture row consumed in its
    place, labeled as such; any other refusal propagates.
    """
    p = family.p
    code = family.extended
    max_w = max(weights)
    evens = sorted(w for w in weights if w % 2 == 0)

    sylow2_groups = {H2: plan.h2_elements(), G4_0: plan.g4_elements(0), G4_1: plan.g4_elements(1)}
    subcodes = {
        label: invariant_subcode(code, [to_permutation(g) for g in group])
        for label, group in sylow2_groups.items()
    }
    odd_primes = [q for q, _ in plan.factorization if q != 2]
    for q in odd_primes:
        gen = plan.odd_generators.get(q)
        if gen is None and q == p:
            # the translation fixes exactly {0, all-ones}; no search needed
            gen = MoebiusMap.translation(p)
        if gen is None:
            raise InvariantViolation(f"no generator available for q={q}")
        subcodes[sylow_label(q)] = invariant_subcode(code, [to_permutation(gen)])

    dims = {label: sub.k for label, sub in subcodes.items()}
    counts: dict[str, dict[int, int]] = {}
    h2_source = "computed"
    for label, sub in subcodes.items():
        try:
            counts[label] = subcode_weight_counts(sub, max_w, long_run=long_run)
        except BudgetExceeded as exc:
            if label != H2 or h2_counts_fixture is None:
                raise
            uncovered = [w for w in evens if w not in h2_counts_fixture]
            if uncovered:
                raise BudgetExceeded(
                    f"H2 subcode has k={sub.k} and the fixture row does not cover "
                    f"weights {uncovered}; pass long_run to enumerate"
                ) from exc
            counts[label] = {w: int(h2_counts_fixture[w]) for w in evens}
            h2_source = "fixture"

    fac = dict(plan.factorization)
    sylow2 = {}
    constraints = {}
    for w in evens:
        s2 = sylow2_count(
            counts[H2].get(w, 0), counts[G4_0].get(w, 0), counts[G4_1].get(w, 0), plan.s
        )
        sylow2[w] = s2
        parts: list[tuple[int, int, str]] = [(2**plan.s, s2, "S_2 (dihedral combination)")]
        for q in odd_primes:
            pp = q ** fac[q]
            parts.append((pp, counts[sylow_label(q)].get(w, 0) % pp, sylow_label(q)))
        constraints[w] = assemble_constraint(p, w, parts)
    return CongruenceBundle(
        p=p,
        s=plan.s,
        dims=dims,
        counts=counts,
        sylow2=sylow2,
        constraints=constraints,
        h2_source=h2_source,
    )
