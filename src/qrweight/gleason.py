"""Exact weight-enumerator reconstruction for formally self-dual even codes.

For p = 8m + 1 the extended QR enumerator is an integer combination of the
basis phi_j(z) = (1+z^2)^(4m-4j+1) * (z^2 (1-z^2)^2)^j, j = 0..m. The basis
is triangular (phi_j starts at z^(2j) with coefficient 1), so the first m+1
even counts determine the combination by forward substitution. The top
coefficient can instead be pinned without its count: the derivative of every
basis term except the last vanishes at z = i, the hull argument limits the
augmented enumerator at i to one of two values, and the weight congruence
rejects one of the two resulting candidates.

Everything here is exact integer or Gaussian-integer arithmetic; no floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Mapping, Sequence

from . import qrcodes
from .bitlinalg import hull_dimension
from .congruence import CongruenceConstraint, Reject, check_candidate
from .errors import CheckFailure, InvariantViolation, SignUnresolved


@dataclass(frozen=True)
class GaussianInt:
    """Exact Gaussian integer re + im*i."""

    re: int
    im: int

    def __add__(self, other: GaussianInt) -> GaussianInt:
        return GaussianInt(self.re + other.re, self.im + other.im)

    def __sub__(self, other: GaussianInt) -> GaussianInt:
        return GaussianInt(self.re - other.re, self.im - other.im)

    def __mul__(self, other: GaussianInt | int) -> GaussianInt:
        if isinstance(other, int):
            return GaussianInt(self.re * other, self.im * other)
        return GaussianInt(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def conjugate(self) -> GaussianInt:
        return GaussianInt(self.re, -self.im)

    def norm(self) -> int:
        return self.re * self.re + self.im * self.im

    def divide_exact(self, other: GaussianInt) -> GaussianInt:
        """Exact quotient; raises if self is not a Gaussian-integer multiple."""
        n = other.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian integer")
        num = self * other.conjugate()
        if num.re % n or num.im % n:
            raise InvariantViolation(f"{self} is not divisible by {other}")
        return GaussianInt(num.re // n, num.im // n)

    def __str__(self) -> str:
        return f"{self.re}{self.im:+d}i"


I_UNIT = GaussianInt(0, 1)


@dataclass(frozen=True)
class BigPoly:
    """Dense integer polynomial; coeffs[i] multiplies z^i, trailing zeros trimmed."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if self.coeffs and self.coeffs[-1] == 0:
            trimmed = list(self.coeffs)
            while trimmed and trimmed[-1] == 0:
                trimmed.pop()
            object.__setattr__(self, "coeffs", tuple(trimmed))

    @classmethod
    def zero(cls) -> BigPoly:
        return cls(())

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __mul__(self, other: BigPoly | int) -> BigPoly:
        if isinstance(other, int):
            return BigPoly(tuple(c * other for c in self.coeffs))
        if not self.coeffs or not other.coeffs:
            return BigPoly.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return BigPoly(tuple(out))

    __rmul__ = __mul__

    def pow(self, e: int) -> BigPoly:
        result = BigPoly((1,))
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def derivative(self) -> BigPoly:
        return BigPoly(tuple(i * self.coeffs[i] for i in range(1, len(self.coeffs))))

    def eval_gaussian(self, x: GaussianInt) -> GaussianInt:
        acc = GaussianInt(0, 0)
        for c in reversed(self.coeffs):
            acc = acc * x + GaussianInt(c, 0)
        return acc


ONE_PLUS_Z2 = BigPoly((1, 0, 1))
CORE = BigPoly((0, 0, 1, 0, -2, 0, 1))  # z^2 (1 - z^2)^2


@lru_cache(maxsize=None)
def gleason_basis(m: int) -> tuple[BigPoly, ...]:
    """phi_j = (1+z^2)^(4m-4j+1) * (z^2 (1-z^2)^2)^j for j = 0..m.

    Cached: the basis depends on m alone, and BigPoly is frozen.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    return tuple(ONE_PLUS_Z2.pow(4 * m - 4 * j + 1) * CORE.pow(j) for j in range(m + 1))


def _solve_prefix(basis: Sequence[BigPoly], known: Mapping[int, int], upto_j: int) -> list[int]:
    ks: list[int] = []
    for j in range(upto_j + 1):
        if j not in known:
            raise CheckFailure(f"A_{2 * j} (j={j}) is required")
        acc = known[j]
        for l in range(j):
            acc -= ks[l] * basis[l].coeff(2 * j)
        ks.append(acc)
    return ks


def solve_coefficients(m: int, known: Mapping[int, int]) -> list[int]:
    """Forward substitution: K_j = A_2j - sum_{l<j} K_l [z^2j] phi_l.

    ``known`` maps j to A_2j for j = 0..m, with known[0] = 1.
    """
    if known.get(0) != 1:
        raise ValueError("A_0 must be 1")
    return _solve_prefix(gleason_basis(m), known, m)


def reconstruct(ks: Sequence[int], m: int) -> BigPoly:
    """Sum of K_j * phi_j; coefficient of z^2j reproduces the input A_2j."""
    if len(ks) != m + 1:
        raise ValueError(f"need {m + 1} coefficients, got {len(ks)}")
    basis = gleason_basis(m)
    acc = [0] * max(len(phi.coeffs) for phi in basis)
    for k_j, phi in zip(ks, basis):
        if k_j:
            for idx, c in enumerate(phi.coeffs):
                acc[idx] += k_j * c
    return BigPoly(tuple(acc))


@lru_cache(maxsize=None)
def derivative_at_i(m: int) -> GaussianInt:
    """The factor c with dA/dz at z=i equal to c * K_m.

    Every basis derivative except the top one vanishes at i because it keeps
    a positive power of (1+z^2); the survivor evaluates to 2i*(-4)^m. Both
    the symbolic evaluation and the closed form are computed and compared,
    once per m: the result depends on m alone and GaussianInt is frozen.
    """
    basis = gleason_basis(m)
    for j in range(m):
        val = basis[j].derivative().eval_gaussian(I_UNIT)
        if val != GaussianInt(0, 0):
            raise InvariantViolation(f"basis derivative j={j} does not vanish at i")
    symbolic = basis[m].derivative().eval_gaussian(I_UNIT)
    closed = GaussianInt(0, 2) * ((-4) ** m)
    if symbolic != closed:
        raise InvariantViolation(f"derivative factor mismatch: {symbolic} vs {closed}")
    return closed


def hull_sign_candidates(p: int, family: qrcodes.QrCodeFamily) -> tuple[GaussianInt, GaussianInt]:
    """The two possible values +-2^((p-1)/4) * (1+i) of the augmented enumerator at i.

    Requires p = 1 mod 8 and a zero-dimensional hull of the expurgated code;
    the two bracketed mod-4 weight sums then share one unknown sign because
    the all-ones word lies in the augmented code.
    """
    if p % 8 != 1:
        raise ValueError(f"p={p} must be 1 mod 8 for the sign method")
    hull = hull_dimension(family.expurgated)
    if hull != 0:
        raise InvariantViolation(f"expurgated hull has dimension {hull}")
    mag = 1 << ((p - 1) // 4)
    return GaussianInt(mag, mag), GaussianInt(-mag, -mag)


@dataclass(frozen=True)
class SignCandidate:
    sign: int
    k_top: int
    a_top: int
    accepted: bool
    detail: str


@dataclass(frozen=True)
class SignCertificate:
    """Record of the top-coefficient disambiguation, both candidates included."""

    candidates: tuple[SignCandidate, SignCandidate]
    chosen_sign: int
    orbit_quotient: int


def resolve_top_coefficient(
    p: int,
    m: int,
    partial: Mapping[int, int],
    constraint: CongruenceConstraint,
    family: qrcodes.QrCodeFamily,
) -> tuple[int, int, SignCertificate]:
    """Determine K_m and A_2m without counting weight-2m codewords.

    ``partial`` maps j to A_2j for j < m. Equating the augmented enumerator at
    z=i (which is (1-i)/(p+1) times the derivative factor times K_m, since the
    extended enumerator vanishes at i) with each hull sign candidate gives two
    integer K_m candidates; the weight-2m congruence must accept exactly one.
    """
    if constraint.j != 2 * m:
        raise ValueError(f"constraint is for weight {constraint.j}, need {2 * m}")
    if partial.get(0) != 1:
        raise ValueError("A_0 must be 1")
    basis = gleason_basis(m)
    prefix = _solve_prefix(basis, partial, m - 1)
    base_top = sum(prefix[l] * basis[l].coeff(2 * m) for l in range(m))
    factor = derivative_at_i(m)
    denominator = GaussianInt(1, -1) * factor  # (1-i) * c_m
    outcomes, winners = [], []
    for sign, hull_value in zip((1, -1), hull_sign_candidates(p, family)):
        quotient = (hull_value * (p + 1)).divide_exact(denominator)
        if quotient.im != 0:
            raise InvariantViolation("K_m candidate is not a rational integer")
        k_top = quotient.re
        a_top = base_top + k_top
        if a_top < 0:
            verdict: int | Reject = Reject(f"negative count {a_top}")
        else:
            verdict = check_candidate(constraint, a_top)
        accepted = not isinstance(verdict, Reject)
        detail = f"n={verdict}" if accepted else verdict.reason
        outcomes.append(SignCandidate(sign=sign, k_top=k_top, a_top=a_top, accepted=accepted, detail=detail))
        if accepted:
            winners.append((outcomes[-1], verdict))
    if len(winners) == 2:
        cert = SignCertificate(tuple(outcomes), chosen_sign=0, orbit_quotient=-1)
        raise SignUnresolved("congruence cannot discriminate the sign candidates", cert)
    if not winners:
        cert = SignCertificate(tuple(outcomes), chosen_sign=0, orbit_quotient=-1)
        raise SignUnresolved("congruence rejected both sign candidates", cert)
    winner, quotient_n = winners[0]
    certificate = SignCertificate(
        candidates=tuple(outcomes), chosen_sign=winner.sign, orbit_quotient=quotient_n
    )
    return winner.k_top, winner.a_top, certificate


def augmented_enumerator(ext: BigPoly, p: int) -> BigPoly:
    """A_aug(z) = A_ext(z) + (1-z)/(p+1) * dA_ext/dz, checked exact.

    Double-transitivity of the automorphism group makes every division exact
    and forces the per-weight identities aug[2j-1]*(p+1) = 2j*ext[2j] and
    aug[2j]*(p+1) = (p+1-2j)*ext[2j]; both are re-checked coefficientwise.
    """
    n = p + 1
    der = ext.derivative()
    one_minus_z = BigPoly((1, -1))
    combo = one_minus_z * der
    out = []
    for idx in range(max(len(ext.coeffs), len(combo.coeffs))):
        value = ext.coeff(idx) * n + combo.coeff(idx)
        if value % n:
            raise InvariantViolation(f"coefficient of z^{idx} is not divisible by {n}")
        out.append(value // n)
    aug = BigPoly(tuple(out))
    for j2 in range(0, n + 1, 2):
        if j2 and aug.coeff(j2 - 1) * n != j2 * ext.coeff(j2):
            raise InvariantViolation(f"odd-weight identity fails at {j2 - 1}")
        if aug.coeff(j2) * n != (n - j2) * ext.coeff(j2):
            raise InvariantViolation(f"even-weight identity fails at {j2}")
    return aug


def macwilliams_transform(dist: Sequence[int], n: int, k: int) -> list[int]:
    """Weight distribution of the dual code, exactly.

    Expands T(z) = sum_i A_i (1-z)^i (1+z)^(n-i) and divides by 2^k, which must
    be exact when sum(dist) = 2^k. T is built by the Horner-like recurrence

        S_0 = A_0,    S_i = (1+z) S_(i-1) + A_i (1-z)^i,    T = S_n,

    run on single integers at z = 2^B (Kronecker substitution), so each step
    is a few shifts and additions of big integers.

    The digits are exact because of the width B, a multiple of 8 with
    2^(B-2) > sum_i |A_i| * 2^n. The coefficients of (1-z)^i (1+z)^(n-i)
    have absolute sum at most 2^n, so every coefficient T_j of T has
    |T_j| < 2^(B-2). Adding 2^(B-1) to each makes it a digit in [0, 2^B), and
    T(2^B) plus those offsets has exactly these n + 1 base-2^B digits, read
    back as bytes.
    """
    if len(dist) != n + 1:
        raise ValueError(f"distribution must have {n + 1} entries")
    if sum(dist) != 1 << k:
        raise ValueError(f"distribution sums to {sum(dist)}, expected 2^{k}")
    width = -(-(sum(map(abs, dist)).bit_length() + n + 2) // 8)  # B / 8 bytes
    shift = 8 * width
    acc = 0  # S_i(2^B)
    minus = 1  # (1 - 2^B)^i
    for i, a in enumerate(dist):
        if i:
            acc += acc << shift
            minus -= minus << shift
        if a:
            acc += a * minus
    half = 1 << (shift - 1)
    offsets = int.from_bytes(half.to_bytes(width, "little") * (n + 1), "little")
    digits = (acc + offsets).to_bytes(width * (n + 1), "little")
    low = (1 << k) - 1
    out = []
    for start in range(0, len(digits), width):
        v = int.from_bytes(digits[start : start + width], "little") - half
        if v & low:
            raise InvariantViolation("transform is not divisible by 2^k")
        out.append(v >> k)
    return out


def macwilliams_check(dist: Sequence[int], n: int, k: int) -> bool:
    """True iff the distribution equals its own MacWilliams transform."""
    return macwilliams_transform(dist, n, k) == list(dist)


@dataclass(frozen=True)
class GleasonSolution:
    """Exact basis coefficients plus both full weight distributions."""

    p: int
    m: int
    coefficients: tuple[int, ...]
    extended: tuple[int, ...]
    augmented: tuple[int, ...]
    sign_certificate: SignCertificate | None


def pair_design_remainder(count: int, weight: int, n: int) -> int:
    """A_w w (w - 1) mod n (n - 1), which is 0 at every weight w of a code whose
    automorphism group is 2-transitive on its n coordinates.

    The supports of the weight-w words then form a 2-design: every pair of
    coordinates lies in the same number lambda_w of them, and counting the
    pairs inside supports both ways gives A_w w (w - 1) = lambda_w n (n - 1).
    PSL2(p) acts so on the p + 1 coordinates of the extended QR code
    (MacWilliams & Sloane, ch. 16).
    """
    return count * weight * (weight - 1) % (n * (n - 1))


def validate_solution(sol: GleasonSolution) -> None:
    """Re-run every structural invariant; raises InvariantViolation on failure."""
    p = sol.p
    n = p + 1
    k = (p + 1) // 2
    ext = sol.extended
    aug = sol.augmented
    # the lengths first: every check below indexes both sequences
    for name, seq, length in (("extended", ext, n + 1), ("augmented", aug, n)):
        if len(seq) != length:
            raise InvariantViolation(f"solution p={p}: check failed: {name} length")
    checks = [
        ("A_0 = 1", ext[0] == 1),
        ("odd extended weights vanish", all(ext[j] == 0 for j in range(1, n + 1, 2))),
        ("extended symmetry", all(ext[j] == ext[n - j] for j in range(n + 1))),
        ("2-design divisibility", all(pair_design_remainder(ext[j], j, n) == 0 for j in range(n + 1))),
        ("extended sum", sum(ext) == 1 << k),
        ("augmented sum", sum(aug) == 1 << k),
        ("augmented symmetry", all(aug[j] == aug[p - j] for j in range(p + 1))),
        (
            "vanishing at i",
            sum(ext[j] for j in range(0, n + 1, 4)) == sum(ext[j] for j in range(2, n + 1, 4)),
        ),
    ]
    for j2 in range(2, n + 1, 2):
        aug_even = aug[j2] if j2 < n else 0
        if aug[j2 - 1] * n != j2 * ext[j2] or aug_even * n != (n - j2) * ext[j2]:
            checks.append((f"per-weight identity at {j2}", False))
            break
    for name, ok in checks:
        if not ok:
            raise InvariantViolation(f"solution p={p}: check failed: {name}")
    if not macwilliams_check(ext, n, k):
        raise InvariantViolation(f"solution p={p}: MacWilliams self-transform failed")


def solve_distribution(
    p: int,
    counts: Mapping[int, int],
    constraint: CongruenceConstraint | None = None,
    *,
    family: qrcodes.QrCodeFamily,
) -> GleasonSolution:
    """Build the full distribution from censused counts (and a top constraint).

    ``counts`` maps even weights to exact codeword counts of the extended code
    (weight 0 implied). When all of A_0..A_2m are present the coefficients are
    solved directly; if a constraint for weight 2m is supplied the
    sign-resolution route runs as well and must agree. When A_2m is absent the
    constraint is required and the sign route determines it. Any supplied
    count beyond weight 2m must match the reconstruction, which is 0 above
    weight p + 1; a negative weight is a ValueError.
    """
    if p % 8 != 1:
        raise ValueError(f"p={p} must be 1 mod 8 for this reconstruction")
    m = (p - 1) // 8
    known = {0: 1}
    for w, c in counts.items():
        if w < 0:
            raise ValueError(f"weight {w} is negative")
        if w % 2:
            if c:
                raise InvariantViolation(f"odd weight {w} has nonzero count")
            continue
        if w == 0:
            if c != 1:
                raise InvariantViolation("count of weight 0 must be 1")
            continue
        known[w // 2] = c
    missing = [j for j in range(m) if j not in known]
    if missing:
        raise CheckFailure(f"A_{2 * missing[0]} is required but absent")
    certificate = None
    if constraint is not None:
        _, a_top, certificate = resolve_top_coefficient(p, m, {j: known[j] for j in range(m)}, constraint, family)
        if known.setdefault(m, a_top) != a_top:
            raise CheckFailure(f"sign route A_{2 * m}={a_top} disagrees with censused A_{2 * m}={known[m]}")
    elif m not in known:
        raise CheckFailure(f"A_{2 * m} absent and no congruence constraint supplied")
    ks = solve_coefficients(m, known)
    poly = reconstruct(ks, m)
    n = p + 1
    ext = tuple(poly.coeff(j) for j in range(n + 1))
    for w, c in counts.items():
        rebuilt = ext[w] if w <= n else 0
        if rebuilt != c:
            raise CheckFailure(f"censused A_{w}={c} but reconstruction gives {rebuilt}")
    aug_poly = augmented_enumerator(BigPoly(ext), p)
    aug = tuple(aug_poly.coeff(j) for j in range(n))
    solution = GleasonSolution(
        p=p,
        m=m,
        coefficients=tuple(ks),
        extended=ext,
        augmented=aug,
        sign_certificate=certificate,
    )
    validate_solution(solution)
    return solution
