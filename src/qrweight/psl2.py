"""Moebius maps over F_p and their permutation action on the projective line.

The p+1 points are indexed 0..p with index p standing for the point at
infinity, matching the extended-code column layout (parity column last).
Only the subgroup structure the congruence method needs is provided: one
element of each required order, the dihedral generator pair (P, T), and the
order-2 and order-4 subgroups built from them.

The integer arithmetic behind it (primality and the factorization of the
group order) is one trial-division helper,
``prime_factors``; every number it factors is at most p + 1. ``require_qr_prime``
is the one check of which primes are supported.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import lcm

from .errors import InvariantViolation


@dataclass(frozen=True)
class MoebiusMap:
    """y -> (a*y + b) / (c*y + d) with ad - bc = 1 mod p.

    M and -M are the same group element; the stored representative is the
    lexicographically smaller of the two coefficient tuples.
    """

    p: int
    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        p = self.p
        a, b, c, d = self.a % p, self.b % p, self.c % p, self.d % p
        if (a * d - b * c) % p != 1 % p:
            raise ValueError(f"det != 1 for {(self.a, self.b, self.c, self.d)} mod {p}")
        neg = ((-a) % p, (-b) % p, (-c) % p, (-d) % p)
        rep = min((a, b, c, d), neg)
        object.__setattr__(self, "a", rep[0])
        object.__setattr__(self, "b", rep[1])
        object.__setattr__(self, "c", rep[2])
        object.__setattr__(self, "d", rep[3])

    @classmethod
    def identity(cls, p: int) -> MoebiusMap:
        return cls(p, 1, 0, 0, 1)

    @classmethod
    def translation(cls, p: int, amount: int = 1) -> MoebiusMap:
        """y -> y + amount."""
        return cls(p, 1, amount, 0, 1)

    @classmethod
    def inversion(cls, p: int) -> MoebiusMap:
        """y -> -1/y; swaps 0 and infinity, has order 2."""
        return cls(p, 0, -1, 1, 0)

    def __mul__(self, other: MoebiusMap) -> MoebiusMap:
        """Matrix product; the right factor acts first."""
        p = self.p
        return MoebiusMap(
            p,
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> MoebiusMap:
        return MoebiusMap(self.p, self.d, -self.b, -self.c, self.a)

    def power(self, e: int) -> MoebiusMap:
        if e < 0:
            return self.inverse().power(-e)
        result = MoebiusMap.identity(self.p)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def matrix_str(self) -> str:
        return f"[[{self.a}, {self.b}], [{self.c}, {self.d}]]"


@dataclass(frozen=True)
class CoordPermutation:
    """Permutation of the p+1 projective points; image[p] is the image of infinity."""

    p: int
    image: tuple[int, ...]

    def __post_init__(self):
        if len(self.image) != self.p + 1 or sorted(self.image) != list(range(self.p + 1)):
            raise ValueError("image is not a bijection on 0..p")

    @classmethod
    def identity(cls, p: int) -> CoordPermutation:
        return cls(p, tuple(range(p + 1)))

    def __mul__(self, other: CoordPermutation) -> CoordPermutation:
        """Composition with the right factor applied first."""
        return CoordPermutation(self.p, tuple(self.image[other.image[i]] for i in range(self.p + 1)))

    def inverse(self) -> CoordPermutation:
        inv = [0] * (self.p + 1)
        for i, v in enumerate(self.image):
            inv[v] = i
        return CoordPermutation(self.p, tuple(inv))

    def cycles(self) -> list[tuple[int, ...]]:
        seen = [False] * (self.p + 1)
        out = []
        for start in range(self.p + 1):
            if seen[start]:
                continue
            cyc = []
            j = start
            while not seen[j]:
                seen[j] = True
                cyc.append(j)
                j = self.image[j]
            out.append(tuple(cyc))
        return out

    def order(self) -> int:
        return lcm(*(len(c) for c in self.cycles()))


@lru_cache(maxsize=16)
def _inverses(p: int) -> tuple[int, ...]:
    """1/y mod p at index y, for y = 1..p-1 (index 0 holds 0); the last 16
    primes' tables are kept."""
    inv = [0, 1] + [0] * (p - 2)
    for y in range(2, p):
        inv[y] = -(p // y) * inv[p % y] % p  # p = (p // y) y + p % y, so 1/y = -(p // y)/(p % y)
    return tuple(inv)


def to_permutation(m: MoebiusMap) -> CoordPermutation:
    """Realize the Moebius map on {0..p-1, infinity} with x/0 = infinity."""
    p = m.p
    if (m.a * m.d - m.b * m.c) % p != 1 % p:
        raise ValueError("determinant not normalized")
    inv = _inverses(p)
    a, b, c, d = m.a, m.b, m.c, m.d
    image = [p if (den := (c * y + d) % p) == 0 else (a * y + b) * inv[den] % p for y in range(p)]
    image.append(p if c % p == 0 else a * inv[c % p] % p)
    return CoordPermutation(p, tuple(image))


def prime_factors(n: int) -> dict[int, int]:
    """Prime factorization {q: e} of n by trial division; {} for n < 2."""
    factors: dict[int, int] = {}
    q = 2
    while q * q <= n:
        while n % q == 0:
            factors[q] = factors.get(q, 0) + 1
            n //= q
        q += 1 if q == 2 else 2
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def require_qr_prime(p: int) -> None:
    """Raise ValueError unless p is a prime = +-1 mod 8 (so also p >= 7)."""
    if p % 8 not in (1, 7) or prime_factors(p) != {p: 1}:
        raise ValueError(f"p={p} is not a prime congruent to +-1 mod 8")


def group_order(p: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """|PSL2(p)| = p(p^2-1)/2 and its prime factorization.

    The order is p * (p-1)/2 * (p+1); their factorizations are merged by
    adding exponents, since (p-1)/2 and p+1 share a factor 2 when p = 1 mod 8.
    """
    require_qr_prime(p)
    fac: dict[int, int] = {}
    for part in (p, (p - 1) // 2, p + 1):
        for q, e in prime_factors(part).items():
            fac[q] = fac.get(q, 0) + e
    return p * (p * p - 1) // 2, tuple(sorted(fac.items()))


@dataclass(frozen=True)
class SylowPlan:
    """Generators pinning down the Sylow structure used by the congruence method.

    P has order 2^(s-1) and is inverted by conjugation with T (order 2), so
    <P, T> is the dihedral Sylow-2 subgroup. odd_generators maps each odd
    prime q dividing the group order to an element of order exactly q.
    """

    p: int
    group_order: int
    factorization: tuple[tuple[int, int], ...]
    s: int
    odd_generators: dict[int, MoebiusMap]
    P: MoebiusMap
    T: MoebiusMap

    def central_involution(self) -> MoebiusMap:
        return self.P.power(2 ** (self.s - 2))

    def h2_elements(self) -> tuple[MoebiusMap, ...]:
        return (MoebiusMap.identity(self.p), self.central_involution())

    def g4_elements(self, i: int) -> tuple[MoebiusMap, ...]:
        if i not in (0, 1):
            raise ValueError("i must be 0 or 1")
        z = self.central_involution()
        flip = self.P.power(i) * self.T
        return (MoebiusMap.identity(self.p), z, flip, z * flip)


def _has_order(m: MoebiusMap, n: int) -> bool:
    """Whether m has order exactly n, from its 2 x 2 matrix powers mod p: by
    Cayley-Hamilton m^e = u_e m - u_(e-1) I, u_0 = 0, u_1 = 1 and u_(e+1) =
    trace * u_e - u_(e-1), so m^e = +-I for m != +-I iff u_e = 0."""
    if m == MoebiusMap.identity(m.p):
        return n == 1
    trace, u = (m.a + m.d) % m.p, [0, 1]
    while len(u) <= n:
        u.append((trace * u[-1] - u[-2]) % m.p)
    return u[n] == 0 and 0 not in u[1:n]


def _element_of_order(p: int, target: int) -> MoebiusMap:
    """Scan companion forms [[0, 1], [-1, t]] for an element of the given order."""
    for t in range(p):
        m = MoebiusMap(p, 0, 1, -1, t)
        if _has_order(m, target):
            return m
    raise InvariantViolation(f"no companion-form element of order {target} mod {p}")


def _symmetric_element_of_order(p: int, target: int) -> MoebiusMap:
    """Scan symmetric matrices (b = c), which are exactly the maps inverted by T."""
    for a in range(p):
        for b in range(p):
            if a == 0:
                if (-b * b) % p != 1 % p:
                    continue
                ds: range | list[int] = range(p)
            else:
                ds = [((1 + b * b) * pow(a, -1, p)) % p]
            for d in ds:
                if (a * d - b * b) % p != 1 % p:
                    continue
                m = MoebiusMap(p, a, b, b, d)
                if _has_order(m, target):
                    return m
    raise InvariantViolation(f"no symmetric element of order {target} mod {p}")


def find_sylow_plan(p: int) -> SylowPlan:
    """Find order-q generators for odd q != p, plus the dihedral pair (P, T).

    The Sylow-p subgroup is left out: it is generated by the translation
    y -> y + 1, and the subcode it fixes is just {0, all-ones}, so it is
    handled directly downstream.
    """
    order, fac = group_order(p)
    s = dict(fac)[2]
    odd = {}
    for q, _ in fac:
        if q == 2 or q == p:
            continue
        odd[q] = _element_of_order(p, q)
    big_t = MoebiusMap.inversion(p)
    big_p = _symmetric_element_of_order(p, 2 ** (s - 1))
    if big_t * big_p * big_t.inverse() != big_p.inverse():
        raise InvariantViolation("found P is not inverted by T")  # symmetric form should preclude this
    plan = SylowPlan(
        p=p,
        group_order=order,
        factorization=fac,
        s=s,
        odd_generators=odd,
        P=big_p,
        T=big_t,
    )
    for q, g in odd.items():
        if to_permutation(g).order() != q:
            raise InvariantViolation(f"generator for q={q} has wrong order")
    if to_permutation(big_p).order() != 2 ** (s - 1) or to_permutation(big_t).order() != 2:
        raise InvariantViolation("dihedral pair has wrong orders")
    return plan

