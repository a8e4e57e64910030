"""Binary quadratic residue codes of prime length p = +-1 mod 8.

Generator polynomials are obtained as gcd(x^p - 1, E) for the four residue
indicator polynomials E in {E_Q, E_N, 1 + E_Q, 1 + E_N}. Because 2 is a
quadratic residue for these primes, each E is an idempotent mod x^p - 1 and
the gcds land exactly on the four cyclic QR codes; no extension-field
arithmetic is needed. The two gcds of degree (p-1)/2 generate the augmented
codes, the two of degree (p+1)/2 the expurgated ones, and they pair up by
divisibility (expurgated = augmented * (x+1)).

Labeling convention: the augmented generator dividing gcd(x^p - 1, E_Q) is
called the Q side. The two sides are permutation equivalent, so every
published quantity is independent of this choice.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .bitlinalg import BitMatrix, dual_basis, rank, same_row_space
from .errors import InvariantViolation
from .psl2 import require_qr_prime


@dataclass(frozen=True)
class Gf2Poly:
    """Polynomial over GF(2), coefficients packed into an int (bit i = x^i)."""

    bits: int

    def __post_init__(self):
        if self.bits < 0:
            raise ValueError("negative coefficient mask")

    @classmethod
    def from_exponents(cls, exponents) -> Gf2Poly:
        bits = 0
        for e in exponents:
            bits |= 1 << e
        return cls(bits)

    @property
    def degree(self) -> int:
        """Degree; -1 marks the zero polynomial."""
        return self.bits.bit_length() - 1

    @property
    def is_zero(self) -> bool:
        return self.bits == 0

    def __mul__(self, other: Gf2Poly) -> Gf2Poly:
        a, b, acc = self.bits, other.bits, 0
        while a:
            if a & 1:
                acc ^= b
            a >>= 1
            b <<= 1
        return Gf2Poly(acc)

    def __divmod__(self, other: Gf2Poly) -> tuple[Gf2Poly, Gf2Poly]:
        if other.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        a, q = self.bits, 0
        db = other.degree
        while a.bit_length() - 1 >= db:
            shift = a.bit_length() - 1 - db
            q |= 1 << shift
            a ^= other.bits << shift
        return Gf2Poly(q), Gf2Poly(a)

    def __mod__(self, other: Gf2Poly) -> Gf2Poly:
        return divmod(self, other)[1]

    def divides(self, other: Gf2Poly) -> bool:
        return not self.is_zero and (other % self).is_zero

    def coeff_hex(self) -> str:
        """Hex string of the coefficient mask, LSB = constant term."""
        return format(self.bits, "x")


X_PLUS_1 = Gf2Poly(0b11)


def x_pow_minus_1(p: int) -> Gf2Poly:
    """x^p - 1, which over GF(2) is x^p + 1."""
    return Gf2Poly((1 << p) | 1)


def poly_gcd(a: Gf2Poly, b: Gf2Poly) -> Gf2Poly:
    """Monic gcd by the Euclidean algorithm (every nonzero GF(2) poly is monic)."""
    if a.is_zero and b.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    x, y = a, b
    while not y.is_zero:
        x, y = y, x % y
    return x


def quadratic_residues(p: int) -> tuple[frozenset[int], frozenset[int]]:
    """The residue set Q = {a^2 mod p} and its nonzero complement N."""
    require_qr_prime(p)
    q = frozenset((a * a) % p for a in range(1, p))
    n = frozenset(range(1, p)) - q
    if 2 not in q:
        raise InvariantViolation("2 must be a quadratic residue for p = +-1 mod 8")
    return q, n


def cyclic_generator_matrix(gen: Gf2Poly, p: int) -> BitMatrix:
    """k x p generator matrix with rows x^i * gen(x), k = p - deg(gen)."""
    k = p - gen.degree
    return BitMatrix(p, tuple(gen.bits << i for i in range(k)))


def extend_with_parity(m: BitMatrix) -> BitMatrix:
    """Append an overall parity coordinate as the last column."""
    n = m.cols
    return BitMatrix(n + 1, tuple(r | ((r.bit_count() & 1) << n) for r in m.rows))


@dataclass(frozen=True)
class QrCodeFamily:
    """The four QR codes of prime p plus the extended code.

    Coordinates of the cyclic codes are 0..p-1; the extended code appends the
    parity coordinate (the projective point at infinity) as column p, so a
    permutation of {infinity, 0, .., p-1} indexed with infinity last acts
    directly on extended-matrix columns.
    """

    p: int
    m: int | None
    residues: frozenset[int]
    nonresidues: frozenset[int]
    gen_q: Gf2Poly
    gen_n: Gf2Poly
    gen_qbar: Gf2Poly
    gen_nbar: Gf2Poly
    augmented: BitMatrix
    expurgated: BitMatrix
    extended: BitMatrix

    @property
    def k(self) -> int:
        return (self.p + 1) // 2

    @property
    def n_extended(self) -> int:
        return self.p + 1

    def code_digest(self) -> str:
        payload = f"p={self.p};gen_q={self.gen_q.coeff_hex()}"
        return hashlib.sha256(payload.encode()).hexdigest()


def build_family(p: int) -> QrCodeFamily:
    """Construct and validate the QR code family of prime p."""
    q_set, n_set = quadratic_residues(p)
    modulus = x_pow_minus_1(p)
    e_q = Gf2Poly.from_exponents(q_set)
    e_n = Gf2Poly.from_exponents(n_set)
    candidates = [poly_gcd(modulus, Gf2Poly(e.bits ^ flip)) for e in (e_q, e_n) for flip in (0, 1)]
    aug = [c for c in candidates if c.degree == (p - 1) // 2]
    exp = [c for c in candidates if c.degree == (p + 1) // 2]
    if len(aug) != 2 or len(exp) != 2:
        raise InvariantViolation(
            f"candidate degrees {sorted(c.degree for c in candidates)} do not split 2/2"
        )
    pairs = []
    for a in aug:
        partners = [e for e in exp if a.divides(e)]
        if len(partners) != 1 or (a * X_PLUS_1) != partners[0]:
            raise InvariantViolation("divisibility pairing failed")
        pairs.append((a, partners[0]))
    gcd_q = poly_gcd(modulus, e_q)
    q_pairs = [pair for pair in pairs if pair[0].divides(gcd_q)]
    if len(q_pairs) != 1:
        raise InvariantViolation("Q-side labeling is ambiguous")
    gen_q, gen_qbar = q_pairs[0]
    gen_n, gen_nbar = next(pair for pair in pairs if pair[0] != gen_q)

    family = QrCodeFamily(
        p=p,
        m=(p - 1) // 8 if p % 8 == 1 else None,
        residues=q_set,
        nonresidues=n_set,
        gen_q=gen_q,
        gen_n=gen_n,
        gen_qbar=gen_qbar,
        gen_nbar=gen_nbar,
        augmented=cyclic_generator_matrix(gen_q, p),
        expurgated=cyclic_generator_matrix(gen_qbar, p),
        extended=extend_with_parity(cyclic_generator_matrix(gen_q, p)),
    )
    _validate_family(family)
    return family


def _validate_family(f: QrCodeFamily) -> None:
    p = f.p
    checks = [
        ("residue set sizes", len(f.residues) == len(f.nonresidues) == (p - 1) // 2),
        ("residue sets partition", f.residues | f.nonresidues == frozenset(range(1, p))),
        ("gen degrees", f.gen_q.degree == (p - 1) // 2 and f.gen_qbar.degree == (p + 1) // 2),
        ("divisibility pairing", f.gen_q * X_PLUS_1 == f.gen_qbar and f.gen_n * X_PLUS_1 == f.gen_nbar),
        ("gen_q | x^p-1", f.gen_q.divides(x_pow_minus_1(p))),
        ("gen_n | x^p-1", f.gen_n.divides(x_pow_minus_1(p))),
        ("augmented dim", rank(f.augmented) == (p + 1) // 2),
        ("expurgated dim", rank(f.expurgated) == (p - 1) // 2),
        ("extended dim", rank(f.extended) == (p + 1) // 2),
        ("extended rows even", all(r.bit_count() % 2 == 0 for r in f.extended.rows)),
    ]
    if p % 8 == 1:
        nbar = cyclic_generator_matrix(f.gen_nbar, p)
        checks.append(("dual(Q) = Nbar", same_row_space(dual_basis(f.augmented), nbar)))
    else:
        qbar = cyclic_generator_matrix(f.gen_qbar, p)
        checks.append(("dual(Q) = Qbar", same_row_space(dual_basis(f.augmented), qbar)))
    for name, ok in checks:
        if not ok:
            raise InvariantViolation(f"family p={p}: check failed: {name}")

