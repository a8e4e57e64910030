import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import factorint, n_order, primerange, primitive_root

from qrweight.qrcodes import quadratic_residues
from qrweight.psl2 import (
    CoordPermutation,
    MoebiusMap,
    _has_order,
    find_sylow_plan,
    group_order,
    prime_factors,
    to_permutation,
)

from conftest import apply_to_bits, moebius_images, row_space_contains, verify_scaling_word


def random_map(rng: random.Random, p: int) -> MoebiusMap:
    while True:
        a, b, c = rng.randrange(p), rng.randrange(p), rng.randrange(p)
        if a:
            return MoebiusMap(p, a, b, c, (1 + b * c) * pow(a, -1, p))
        if (b * c) % p == p - 1:
            return MoebiusMap(p, 0, b, c, rng.randrange(p))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([3, 5, 7, 17, 41, 73, 137, 1009]), st.integers(0, 2**32))
def test_to_permutation_matches_the_pointwise_formula(p, seed):
    # small primes make c = 0 and a pole c y + d = 0 at a finite point common
    m = random_map(random.Random(seed), p)
    assert to_permutation(m).image == moebius_images(m)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([7, 17, 23, 41, 73, 137]), st.integers(0, 2**32))
def test_order_from_matrix_powers_is_the_permutation_order(p, seed):
    m = random_map(random.Random(seed), p)
    order = to_permutation(m).order()
    group = group_order(p)[0]
    divisors = [n for n in range(1, p + 2) if group % n == 0]
    assert order in divisors
    for n in divisors + [2 * order, 3 * order]:
        assert _has_order(m, n) == (n == order), (m, n, order)


def test_translation_permutation_p137():
    perm = to_permutation(MoebiusMap.translation(137))
    assert perm.image[137] == 137  # fixes infinity
    for y in range(137):
        assert perm.image[y] == (y + 1) % 137
    assert perm.order() == 137


def test_inversion_swaps_zero_and_infinity():
    t = to_permutation(MoebiusMap.inversion(17))
    assert t.image[0] == 17 and t.image[17] == 0
    assert t.order() == 2


def test_identity_map():
    assert to_permutation(MoebiusMap.identity(17)) == CoordPermutation.identity(17)


def test_bad_determinant():
    with pytest.raises(ValueError, match="det != 1"):
        MoebiusMap(17, 1, 0, 0, 2)


def test_group_orders():
    order, fac = group_order(137)
    assert order == 1285608
    assert fac == ((2, 3), (3, 1), (17, 1), (23, 1), (137, 1))
    assert group_order(7)[0] == 168
    order17, fac17 = group_order(17)
    assert order17 == 2448
    assert fac17 == ((2, 4), (3, 2), (17, 1))


def test_prime_factors_matches_sympy():
    for n in range(1, 20001):
        assert prime_factors(n) == factorint(n), n


def test_group_order_matches_sympy():
    for p in primerange(7, 3000):
        if p % 8 in (1, 7):
            order, fac = group_order(p)
            assert order == p * (p * p - 1) // 2
            assert dict(fac) == factorint(order), p


@pytest.mark.parametrize("p", [-7, 0, 1, 2, 3, 5, 9, 11, 13, 49, 119])
def test_one_check_rejects_unsupported_p(p):
    for call in (group_order, quadratic_residues, find_sylow_plan):
        with pytest.raises(ValueError, match="is not a prime congruent to"):
            call(p)


def test_published_generators_p137():
    for mat, expected in [((0, 1, 136, 1), 3), ((0, 1, 136, 6), 17), ((0, 1, 136, 11), 23)]:
        assert to_permutation(MoebiusMap(137, *mat)).order() == expected
    assert to_permutation(MoebiusMap(137, 0, 37, 37, 31)).order() == 4


def test_sylow_plan_p137():
    plan = find_sylow_plan(137)
    assert plan.s == 3
    assert sorted(plan.odd_generators) == [3, 17, 23]
    for q, g in plan.odd_generators.items():
        assert to_permutation(g).order() == q
    assert to_permutation(plan.P).order() == 4
    assert to_permutation(plan.T).order() == 2


def test_sylow_plan_p17_has_order8_element():
    plan = find_sylow_plan(17)
    assert plan.s == 4
    assert to_permutation(plan.P).order() == 8


def test_sylow_plan_rejects_bad_prime():
    with pytest.raises(ValueError, match="is not a prime congruent to"):
        find_sylow_plan(13)


@pytest.mark.parametrize("p", [17, 137])
def test_dihedral_relation(p):
    plan = find_sylow_plan(p)
    pt = to_permutation(plan.P)
    tt = to_permutation(plan.T)
    assert tt * pt * tt == pt.inverse()


@pytest.mark.parametrize("p", [17, 137])
def test_to_permutation_is_homomorphism(p):
    rng = random.Random(p * 1000 + 7)
    for _ in range(100):
        m1, m2 = random_map(rng, p), random_map(rng, p)
        assert to_permutation(m1 * m2) == to_permutation(m1) * to_permutation(m2)


@pytest.mark.parametrize("p", [17, 137])
def test_subgroups_closed(p):
    plan = find_sylow_plan(p)
    for elements in (plan.h2_elements(), plan.g4_elements(0), plan.g4_elements(1)):
        group = set(elements)
        assert len(group) == len(elements)
        for x in elements:
            assert x.inverse() in group
            for y in elements:
                assert x * y in group


def test_permutation_order_divides_group_order():
    order, _ = group_order(17)
    rng = random.Random(99)
    for _ in range(50):
        assert order % to_permutation(random_map(rng, 17)).order() == 0


def test_psl2_preserves_extended_code_p17(family17):
    g = family17.extended
    rng = random.Random(1717)
    maps = [random_map(rng, 17) for _ in range(10)]
    words = []
    for _ in range(1000):
        word = 0
        for row in g.rows:
            if rng.getrandbits(1):
                word ^= row
        words.append(word)
    for m in maps:
        perm = to_permutation(m)
        for word in words[:100]:
            assert row_space_contains(g, apply_to_bits(perm, word))
    perm = to_permutation(maps[0])
    for word in words:
        assert row_space_contains(g, apply_to_bits(perm, word))


def test_psl2_preserves_extended_code_p137(family137):
    g = family137.extended
    plan = find_sylow_plan(137)
    for m in [plan.P, plan.T, *plan.odd_generators.values()]:
        perm = to_permutation(m)
        for row in g.rows:
            assert row_space_contains(g, apply_to_bits(perm, row))


def test_scaling_word_p17():
    assert verify_scaling_word(17, 3) is True


def test_scaling_word_p137():
    assert verify_scaling_word(137, primitive_root(137)) is True


def test_scaling_word_rejects_non_primitive_root():
    with pytest.raises(ValueError, match="does not generate"):
        verify_scaling_word(17, 2)  # 2 has order 8 mod 17
    with pytest.raises(ValueError, match="does not generate"):
        verify_scaling_word(17, 17)  # 0 mod 17 is no unit at all


@pytest.mark.parametrize("p", [17, 41])
def test_scaling_word_accepts_exactly_the_primitive_roots(p):
    for rho in range(1, p):
        if n_order(rho, p) == p - 1:
            assert verify_scaling_word(p, rho) is True
        else:
            with pytest.raises(ValueError, match="does not generate"):
                verify_scaling_word(p, rho)


def test_canonical_representative():
    m = MoebiusMap(7, 6, 0, 0, 6)  # -I is normalized to I
    assert m == MoebiusMap.identity(7)


def test_apply_to_bits_roundtrip():
    perm = to_permutation(MoebiusMap.translation(17, 5))
    bits = 0b1011001
    assert apply_to_bits(perm.inverse(), apply_to_bits(perm, bits)) == bits
