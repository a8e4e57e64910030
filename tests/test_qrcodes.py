import pytest

from qrweight.bitlinalg import dual_basis, same_row_space
from qrweight.qrcodes import (
    Gf2Poly,
    build_family,
    cyclic_generator_matrix,
    poly_gcd,
    quadratic_residues,
    x_pow_minus_1,
)

from conftest import exhaustive_distribution, span_words


def test_residues_p17():
    q, n = quadratic_residues(17)
    assert q == frozenset((a * a) % 17 for a in range(1, 17))
    assert q == frozenset({1, 2, 4, 8, 9, 13, 15, 16})
    assert n == frozenset(range(1, 17)) - q


def test_residues_p7():
    q, n = quadratic_residues(7)
    assert q == frozenset({1, 2, 4})
    assert n == frozenset({3, 5, 6})


@pytest.mark.parametrize("p", [11, 13, 9, 2])
def test_residues_rejects_bad_primes(p):
    with pytest.raises(ValueError, match="is not a prime congruent to"):
        quadratic_residues(p)


def test_poly_gcd_small():
    # x^2 + 1 = (x + 1)^2 over GF(2)
    assert poly_gcd(Gf2Poly(0b101), Gf2Poly(0b11)) == Gf2Poly(0b11)


def test_poly_gcd_with_zero():
    f = Gf2Poly(0b1011)
    assert poly_gcd(f, Gf2Poly(0)) == f
    assert poly_gcd(Gf2Poly(0), f) == f
    with pytest.raises(ValueError, match=r"gcd\(0, 0\) is undefined"):
        poly_gcd(Gf2Poly(0), Gf2Poly(0))


def test_residue_indicator_gcd_degree():
    q, _ = quadratic_residues(17)
    g = poly_gcd(x_pow_minus_1(17), Gf2Poly.from_exponents(q))
    assert g.degree in (8, 9)


def test_family_p17_dimensions(family17):
    f = family17
    assert f.m == 2
    assert (f.augmented.nrows, f.expurgated.nrows, f.extended.nrows) == (9, 8, 9)
    assert f.extended.cols == 18
    # rank oracle: span sizes
    assert len(span_words(f.augmented.rows)) == 2**9
    assert len(span_words(f.expurgated.rows)) == 2**8
    assert len(span_words(f.extended.rows)) == 2**9


def test_family_p137_parameters(family137):
    f = family137
    assert f.augmented.nrows == 69 and f.augmented.cols == 137
    assert f.extended.nrows == 69 and f.extended.cols == 138
    assert f.m == 17


def test_family_p7_extended_self_dual(family7):
    g = family7.extended
    assert same_row_space(dual_basis(g), g)
    assert family7.m is None


@pytest.mark.parametrize("p", [7, 17, 23, 41])
def test_family_generator_invariants(p):
    f = build_family(p)
    assert f.gen_q.degree == (p - 1) // 2
    assert f.gen_n.degree == (p - 1) // 2
    assert f.gen_qbar.degree == (p + 1) // 2
    assert f.gen_qbar == f.gen_q * Gf2Poly(0b11)
    assert f.gen_nbar == f.gen_n * Gf2Poly(0b11)
    assert f.gen_q.divides(x_pow_minus_1(p))
    assert f.gen_nbar.divides(x_pow_minus_1(p))


@pytest.mark.parametrize("p", [7, 17, 23, 31, 41])
def test_extended_code_even_exhaustive(p):
    f = build_family(p)
    word = 0
    rows = f.extended.rows
    for i in range(1, 1 << len(rows)):
        word ^= rows[(i & -i).bit_length() - 1]
        assert word.bit_count() % 2 == 0


def test_formal_self_duality_p17(family17):
    g = family17.extended
    d = dual_basis(g)
    assert not same_row_space(g, d)
    dist_code = exhaustive_distribution(g.rows, 18)
    dist_dual = exhaustive_distribution(d.rows, 18)
    assert dist_code == dist_dual


@pytest.mark.parametrize("p", [17, 41])
def test_duality_relation(p):
    f = build_family(p)
    nbar = cyclic_generator_matrix(f.gen_nbar, p)
    assert same_row_space(dual_basis(f.augmented), nbar)


def test_build_family_rejects_non_qr_prime():
    with pytest.raises(ValueError, match="is not a prime congruent to"):
        build_family(13)
