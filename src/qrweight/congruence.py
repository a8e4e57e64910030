"""Modular congruences for weight-distribution coefficients.

Each coefficient A_j of the extended code satisfies A_j = A_j(fixed) mod
|PSL2(p)|, where A_j(fixed) counts codewords fixed by some group element.
That residue is assembled by CRT from one count per prime power dividing the
group order: exhaustive counts inside invariant subcodes for the odd primes,
and the dihedral inclusion-exclusion combination for the prime 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Mapping, Sequence

from . import bitlinalg
from .bitlinalg import BitMatrix
from .errors import (
    BudgetExceeded,
    InvariantViolation,
    LengthMismatch,
    NotCoprime,
    WrongModulusProduct,
)
from .psl2 import CoordPermutation, MoebiusMap, SylowPlan, to_permutation
from .qrcodes import QrCodeFamily

SUBCODE_ENUM_MAX_K = 28


@dataclass(frozen=True)
class InvariantSubcode:
    """Basis of the codewords fixed by every permutation of a subgroup."""

    parent: str
    group_label: str
    basis: BitMatrix

    @property
    def k(self) -> int:
        return self.basis.nrows


def fixed_space(perm: CoordPermutation) -> BitMatrix:
    """Span of the orbit indicator vectors: exactly the vectors constant on cycles."""
    n = perm.p + 1
    rows = []
    for cyc in perm.cycles():
        v = 0
        for i in cyc:
            v |= 1 << i
        rows.append(v)
    return BitMatrix(n, tuple(rows))


def invariant_subcode(
    code: BitMatrix,
    group: Sequence[CoordPermutation],
    *,
    parent: str = "",
    group_label: str = "",
) -> InvariantSubcode:
    """Intersect the code with the fixed space of every non-identity element."""
    current = code
    for perm in group:
        if len(perm.image) != code.cols:
            raise LengthMismatch(f"permutation degree {len(perm.image)} != code length {code.cols}")
        if perm.is_identity():
            continue
        current = bitlinalg.intersect_rowspaces(current, fixed_space(perm))
    sub = InvariantSubcode(parent=parent, group_label=group_label, basis=current)
    if not bitlinalg.row_space_contains_all(code, current.rows):
        raise InvariantViolation("invariant subcode escaped the parent code")
    for row in current.rows:
        for perm in group:
            if perm.apply_to_bits(row) != row:
                raise InvariantViolation("basis row not fixed by the defining group")
    return sub


def subcode_weight_counts(
    sub: InvariantSubcode,
    max_weight: int,
    *,
    long_run: bool = False,
    start: int = 0,
    stop: int | None = None,
) -> dict[int, int]:
    """Exact per-weight counts over all 2^k subcode words, weights <= max_weight.

    Word i is the combination of basis rows selected by the bits of gray(i).
    A contiguous index range [start, stop) may be counted alone, so long runs
    can be split across workers and merged by per-weight addition. The range
    is cut into aligned blocks i = j*2^b .. (j+1)*2^b - 1, b <= a: the words of
    one block are the combination of rows[b:] selected by gray(j), XORed with
    every combination of rows[:b], the first 2^b lanes of the span table of
    rows[:a]. Each block is one ``weight_histogram`` call.
    """
    k = sub.k
    if k > SUBCODE_ENUM_MAX_K and not long_run:
        raise BudgetExceeded(f"subcode enumeration needs 2^{k} words; pass long_run to allow")
    rows = sub.basis.rows
    total = 1 << k
    if stop is None:
        stop = total
    if not 0 <= start <= stop <= total:
        raise ValueError("bad enumeration range")
    a = min(k, max(0, (bitlinalg.TABLE_BITS // sub.basis.cols).bit_length() - 1))
    columns = bitlinalg.span_columns(rows[:a], sub.basis.cols)
    counts: dict[int, int] = {}
    i = start
    while i < stop:
        b = min(a, (i & -i).bit_length() - 1 if i else a, (stop - i).bit_length() - 1)
        j = i >> b
        code = j ^ (j >> 1)
        base = 0
        while code:
            low = code & -code
            base ^= rows[b + low.bit_length() - 1]
            code ^= low
        for w, c in bitlinalg.weight_histogram(columns, base, 0, 1 << b, max_weight).items():
            counts[w] = counts.get(w, 0) + c
        i += 1 << b
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
    residues: Sequence[tuple[int, int] | tuple[int, int, str]],
) -> CongruenceConstraint:
    """CRT-combine per-prime-power residues into a single constraint mod |PSL2(p)|."""
    parts = []
    for item in residues:
        pp, r = item[0], item[1]
        label = item[2] if len(item) > 2 else ""
        parts.append((pp, r % pp, label))
    moduli = [pp for pp, _, _ in parts]
    for i in range(len(moduli)):
        for l in range(i + 1, len(moduli)):
            if gcd(moduli[i], moduli[l]) != 1:
                raise NotCoprime(f"{moduli[i]} and {moduli[l]} share a factor")
    product = 1
    for pp in moduli:
        product *= pp
    expected = p * (p * p - 1) // 2
    if product != expected:
        raise WrongModulusProduct(f"product {product} != group order {expected}")
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

    Subcode dimensions are always recomputed. The order-2 subgroup count is
    enumerated when 2^k fits the budget (or long_run is set); otherwise a
    supplied fixture row is consumed and labeled as such.
    """
    p = family.p
    code = family.extended
    parent = family.code_digest()
    max_w = max(weights)
    evens = sorted(w for w in weights if w % 2 == 0)

    sylow2_groups = {H2: plan.h2_elements(), G4_0: plan.g4_elements(0), G4_1: plan.g4_elements(1)}
    subcodes = {
        label: invariant_subcode(code, [to_permutation(g) for g in group], parent=parent, group_label=label)
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
        subcodes[sylow_label(q)] = invariant_subcode(
            code, [to_permutation(gen)], parent=parent, group_label=sylow_label(q)
        )

    dims = {label: sub.k for label, sub in subcodes.items()}
    counts: dict[str, dict[int, int]] = {}
    h2_source = "computed"
    for label, sub in subcodes.items():
        if label == H2 and sub.k > SUBCODE_ENUM_MAX_K and not long_run:
            if h2_counts_fixture is None:
                raise BudgetExceeded(
                    f"H2 subcode has k={sub.k}; supply a fixture row or pass long_run"
                )
            uncovered = [w for w in evens if w not in h2_counts_fixture]
            if uncovered:
                raise BudgetExceeded(
                    f"H2 subcode has k={sub.k} and the fixture row does not cover "
                    f"weights {uncovered}; pass long_run to enumerate"
                )
            counts[label] = {w: int(h2_counts_fixture[w]) for w in evens}
            h2_source = "fixture"
            continue
        counts[label] = subcode_weight_counts(sub, max_w, long_run=long_run)

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
