import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrweight.bitlinalg import BitMatrix, dual_basis, rref
from qrweight.congruence import CongruenceConstraint, compute_bundle
from qrweight.errors import CheckFailure, InvariantViolation, SignUnresolved
from qrweight.fixtures import load_p137
from qrweight.gleason import (
    BigPoly,
    GaussianInt,
    GleasonSolution,
    I_UNIT,
    augmented_enumerator,
    derivative_at_i,
    gleason_basis,
    hull_sign_candidates,
    macwilliams_check,
    macwilliams_transform,
    pair_design_remainder,
    reconstruct,
    resolve_top_coefficient,
    solve_coefficients,
    solve_distribution,
    validate_solution,
)
from qrweight.psl2 import find_sylow_plan

from conftest import eval_int, exhaustive_distribution, macwilliams_expansion


@pytest.fixture(scope="session")
def fx137():
    return load_p137()


@pytest.fixture(scope="session")
def census137(fx137):
    counts = {w: 0 for w in range(2, 22, 2)}
    counts.update(fx137["partial_census"])
    return counts


@pytest.fixture(scope="session")
def constraint34(family137, fx137):
    plan = find_sylow_plan(137)
    bundle = compute_bundle(
        family137, plan, [34], h2_counts_fixture=fx137["subgroup_counts"]["H2"]
    )
    return bundle.constraints[34]


def test_gaussian_int_arithmetic():
    a = GaussianInt(2, 3)
    b = GaussianInt(1, -1)
    assert a * b == GaussianInt(5, 1)
    assert a + b == GaussianInt(3, 2)
    assert a - b == GaussianInt(1, 4)
    assert I_UNIT * I_UNIT == GaussianInt(-1, 0)
    assert (a * b).divide_exact(b) == a
    with pytest.raises(InvariantViolation, match=r"1\+0i is not divisible by 2\+0i"):
        GaussianInt(1, 0).divide_exact(GaussianInt(2, 0))


def test_bigpoly_basics():
    p = BigPoly((1, 2, 3))
    q = BigPoly((0, 1))
    assert (p * q).coeffs == (0, 1, 2, 3)
    assert p.derivative().coeffs == (2, 6)
    assert eval_int(p, 2) == 17
    assert p.eval_gaussian(I_UNIT) == GaussianInt(-2, 2)
    assert BigPoly((1, 0, 0)).coeffs == (1,)  # trailing zeros trimmed


def test_basis_top_term_m17():
    basis = gleason_basis(17)
    core = BigPoly((0, 0, 1, 0, -2, 0, 1))
    assert basis[17] == BigPoly((1, 0, 1)) * core.pow(17)


def test_basis_head_and_degree():
    for m in (1, 2, 5):
        phi0 = gleason_basis(m)[0]
        assert phi0.coeff(0) == 1
        assert phi0.degree == 2 * (4 * m + 1)


def test_basis_degrees_m2():
    assert [phi.degree for phi in gleason_basis(2)] == [18, 16, 14]


@pytest.mark.parametrize("m", range(1, 21))
def test_basis_triangular(m):
    basis = gleason_basis(m)
    for j, phi in enumerate(basis):
        assert phi.coeff(2 * j) == 1
        for l in range(j + 1, m + 1):
            assert basis[l].coeff(2 * j) == 0
        assert all(phi.coeff(i) == 0 for i in range(1, phi.degree + 1, 2))


def test_solve_coefficients_p137(fx137, census137):
    known = {0: 1}
    known.update({w // 2: c for w, c in census137.items()})
    known[17] = fx137["accepted_a34"]
    ks = solve_coefficients(17, known)
    assert ks[17] == 69
    assert ks[0] == 1


def test_solve_coefficients_basis_reproduction():
    phi0 = gleason_basis(3)[0]
    known = {j: phi0.coeff(2 * j) for j in range(4)}
    assert solve_coefficients(3, known) == [1, 0, 0, 0]


def test_solve_coefficients_missing_term():
    with pytest.raises(CheckFailure, match=r"A_4 \(j=2\) is required"):
        solve_coefficients(3, {0: 1, 1: 0, 3: 0})


def test_solve_roundtrip_p17(dist17):
    ks = solve_coefficients(2, {0: 1, 1: 0, 2: 0})
    poly = reconstruct(ks, 2)
    assert [poly.coeff(j) for j in range(19)] == dist17


def test_reconstruct_top_coefficient_base_p137(census137):
    known = {0: 1}
    known.update({w // 2: c for w, c in census137.items()})
    known[17] = 0
    ks = solve_coefficients(17, known)
    poly = reconstruct(ks[:17] + [0], 17)  # prefix coefficients, K_17 zeroed
    assert poly.coeff(34) == 771068968296  # adding K_17 gives the final count


def test_reconstruct_zero():
    assert reconstruct([0, 0, 0], 2) == BigPoly.zero()


def test_reconstruct_table_entries_p137(fx137, census137):
    known = {0: 1}
    known.update({w // 2: c for w, c in census137.items()})
    known[17] = fx137["accepted_a34"]
    poly = reconstruct(solve_coefficients(17, known), 17)
    assert poly.coeff(36) == 6551964560395
    assert poly.coeff(68) == 78897731337990186714


def test_derivative_factor_m17():
    assert derivative_at_i(17) == GaussianInt(0, -(2**35))


def test_derivative_factor_m1():
    assert derivative_at_i(1) == GaussianInt(0, -8)


@pytest.mark.parametrize("m", range(1, 18))
def test_derivative_factor_matches_full_polynomial(m):
    rng = random.Random(m)
    ks = [rng.randrange(-100, 100) for _ in range(m + 1)]
    poly = reconstruct(ks, m)
    assert poly.derivative().eval_gaussian(I_UNIT) == derivative_at_i(m) * ks[m]


def test_hull_sign_candidates_p137(family137):
    plus, minus = hull_sign_candidates(137, family137)
    assert plus == GaussianInt(2**34, 2**34)
    assert minus == GaussianInt(-(2**34), -(2**34))


def test_hull_sign_candidates_p17_brute_force(family17):
    plus, minus = hull_sign_candidates(17, family17)
    assert {plus, minus} == {GaussianInt(16, 16), GaussianInt(-16, -16)}
    dist = exhaustive_distribution(family17.augmented.rows, 17)
    value = GaussianInt(0, 0)
    for j, a in enumerate(dist):
        value = value + GaussianInt(a, 0) * I_UNIT_POW[j % 4]
    assert value in (plus, minus)
    assert value == GaussianInt(-16, -16)


I_UNIT_POW = [GaussianInt(1, 0), GaussianInt(0, 1), GaussianInt(-1, 0), GaussianInt(0, -1)]


def test_hull_sign_candidates_wrong_residue_class(family7):
    with pytest.raises(ValueError, match="must be 1 mod 8 for the sign method"):
        hull_sign_candidates(7, family7)


def test_resolve_top_coefficient_p137(fx137, census137, constraint34, family137):
    partial = {0: 1}
    partial.update({w // 2: c for w, c in census137.items()})
    k_top, a_top, cert = resolve_top_coefficient(137, 17, partial, constraint34, family137)
    assert k_top == 69
    assert a_top == fx137["accepted_a34"]
    assert cert.orbit_quotient == 599769
    losers = [c for c in cert.candidates if not c.accepted]
    assert len(losers) == 1
    assert losers[0].a_top == fx137["rejected_a34"]
    assert losers[0].k_top == -69
    assert {c.k_top for c in cert.candidates} == {69, -69}


def test_resolve_top_coefficient_p17(family17, dist17):
    plan = find_sylow_plan(17)
    bundle = compute_bundle(family17, plan, [4])
    k_top, a_top, cert = resolve_top_coefficient(17, 2, {0: 1, 1: 0}, bundle.constraints[4], family17)
    assert a_top == dist17[4] == 0
    direct = solve_coefficients(2, {0: 1, 1: 0, 2: 0})
    assert k_top == direct[2]
    assert cert.chosen_sign in (1, -1)


def test_resolve_degenerate_modulus_both_accepted(family17):
    constraint = CongruenceConstraint(j=4, residue=0, modulus=1, parts=())
    with pytest.raises(SignUnresolved, match="cannot discriminate the sign candidates") as exc:
        resolve_top_coefficient(17, 2, {0: 1, 1: 0}, constraint, family17)
    assert exc.value.certificate is not None
    assert all(c.accepted for c in exc.value.certificate.candidates)


def test_resolve_perturbed_residue_both_rejected(family17, constraint34, family137, fx137, census137):
    bad = CongruenceConstraint(
        j=34,
        residue=(constraint34.residue + 1) % constraint34.modulus,
        modulus=constraint34.modulus,
        parts=constraint34.parts,
    )
    partial = {0: 1}
    partial.update({w // 2: c for w, c in census137.items()})
    with pytest.raises(SignUnresolved, match="rejected both sign candidates") as exc:
        resolve_top_coefficient(137, 17, partial, bad, family137)
    assert len(exc.value.certificate.candidates) == 2


def test_augmented_enumerator_p137(fx137, census137):
    known = {0: 1}
    known.update({w // 2: c for w, c in census137.items()})
    known[17] = fx137["accepted_a34"]
    ext = reconstruct(solve_coefficients(17, known), 17)
    aug = augmented_enumerator(ext, 137)
    assert aug.coeff(21) == 51238
    assert aug.coeff(22) == 270164
    assert aug.coeff(68) == 40020588359850094710


def test_augmented_enumerator_degenerate():
    p = 137
    ext = BigPoly((1,) + (0,) * p + (1,))  # 1 + z^(p+1)
    aug = augmented_enumerator(ext, p)
    assert aug.coeff(0) == 1 and aug.coeff(p) == 1
    assert sum(abs(c) for c in aug.coeffs) == 2


def test_augmented_enumerator_rejects_bad_input():
    with pytest.raises(InvariantViolation, match="coefficient of z\\^1 is not divisible by 138"):
        augmented_enumerator(BigPoly((1, 0, 1)), 137)


def test_macwilliams_p17(dist17):
    assert macwilliams_check(dist17, 18, 9)


def test_macwilliams_non_self_dual():
    # [4,3] single parity check code; its dual is the repetition code
    dist = [1, 0, 6, 0, 1]
    assert macwilliams_transform(dist, 4, 3) == [1, 0, 0, 0, 1]
    assert not macwilliams_check(dist, 4, 3)


def test_macwilliams_bad_sum():
    with pytest.raises(ValueError, match="distribution sums to 7, expected 2\\^3"):
        macwilliams_check([1, 0, 5, 0, 1], 4, 3)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_macwilliams_transform_matches_the_term_by_term_expansion(data):
    n = data.draw(st.integers(1, 40))
    k = data.draw(st.integers(0, 20))
    shape = data.draw(st.sampled_from(("split", "small", "large")))
    if shape == "split":
        # 2^k split over the n + 1 weights: the division by 2^k mostly fails
        cuts = sorted(data.draw(st.lists(st.integers(0, 1 << k), min_size=n, max_size=n)))
        dist = [b - a for a, b in zip([0, *cuts], [*cuts, 1 << k])]
    else:
        # 2^k times integers summing to 1: the division is always exact; large
        # multipliers widen the packed digits of the transform
        bound = 5 if shape == "small" else 1 << 100
        c = data.draw(st.lists(st.integers(-bound, bound), min_size=n, max_size=n))
        dist = data.draw(st.permutations([(1 - sum(c)) << k] + [x << k for x in c]))
    try:
        expected = macwilliams_expansion(dist, n, k)
    except InvariantViolation as exc:
        assert str(exc) == "transform is not divisible by 2^k"
        with pytest.raises(InvariantViolation, match=r"^transform is not divisible by 2\^k$"):
            macwilliams_transform(dist, n, k)
    else:
        assert macwilliams_transform(dist, n, k) == expected


def _p137_extended(fx137) -> list[int]:
    """The published extended distribution; the fixture lists weights up to 69."""
    return [fx137["distribution_extended"].get(min(w, 138 - w), 0) for w in range(139)]


def test_macwilliams_transform_at_full_size_p137(fx137):
    ext = _p137_extended(fx137)
    assert macwilliams_transform(ext, 138, 69) == macwilliams_expansion(ext, 138, 69) == ext


def test_macwilliams_transform_at_full_size_with_the_widest_digits():
    # entries near +-2^200 that sum to 2^69: sum |A_i| * 2^n sets the digit width
    n, k = 138, 69
    c = [(-1) ** i * ((1 << 131) - i) for i in range(1, n + 1)]
    dist = [(1 - sum(c)) << k] + [x << k for x in c]
    assert sum(dist) == 1 << k
    assert all(abs(a).bit_length() in (200, 201) for a in dist[1:])
    assert macwilliams_transform(dist, n, k) == macwilliams_expansion(dist, n, k)


def test_macwilliams_transform_at_full_size_rejects_a_word_moved(fx137):
    # one word moved from weight 22 to weight 24 keeps the sum but changes
    # T_1 by (138 - 44) - (138 - 48) = 4, which 2^69 does not divide
    ext = _p137_extended(fx137)
    ext[22] += 1
    ext[24] -= 1
    for transform in (macwilliams_transform, macwilliams_expansion):
        with pytest.raises(InvariantViolation, match=r"^transform is not divisible by 2\^k$"):
            transform(ext, 138, 69)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_macwilliams_transform_gives_the_dual_distribution(data):
    n = data.draw(st.integers(1, 12))
    rows = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=n))
    code = rref(BitMatrix(n, tuple(rows)))[0]
    dist = exhaustive_distribution(code.rows, n)
    dual = exhaustive_distribution(dual_basis(code).rows, n)
    assert macwilliams_transform(dist, n, code.nrows) == dual


def test_solve_distribution_p17_direct(family17, dist17):
    solution = solve_distribution(17, {2: 0, 4: 0}, family=family17)
    assert list(solution.extended) == dist17
    assert solution.sign_certificate is None
    validate_solution(solution)


def test_solve_distribution_p17_with_cross_check(family17, dist17):
    plan = find_sylow_plan(17)
    bundle = compute_bundle(family17, plan, [2, 4])
    counts = {w: dist17[w] for w in range(2, 9, 2)}
    solution = solve_distribution(17, counts, constraint=bundle.constraints[4], family=family17)
    assert list(solution.extended) == dist17
    assert solution.sign_certificate is not None


def test_solve_distribution_refuses_absent_or_disagreeing_counts(family17):
    constraint = compute_bundle(family17, find_sylow_plan(17), [2, 4]).constraints[4]
    with pytest.raises(CheckFailure, match=r"A_2 is required but absent"):
        solve_distribution(17, {4: 0}, constraint=constraint, family=family17)
    with pytest.raises(CheckFailure, match=r"A_4 absent and no congruence constraint supplied"):
        solve_distribution(17, {2: 0}, family=family17)
    with pytest.raises(CheckFailure, match=r"sign route A_4=0 disagrees with censused A_4=2"):
        solve_distribution(17, {2: 0, 4: 2}, constraint=constraint, family=family17)


def test_solve_distribution_detects_inconsistent_census(family17, dist17):
    counts = {w: dist17[w] for w in range(2, 9, 2)}
    counts[6] += 1  # corrupt a censused value beyond 2m
    with pytest.raises(CheckFailure):
        solve_distribution(17, counts, family=family17)


def test_solve_distribution_checks_counts_above_the_length(family17, dist17):
    # the reconstruction is 0 above n = 18, so a count there must be 0
    solution = solve_distribution(17, {2: 0, 4: 0, 20: 0, 40: 0}, family=family17)
    assert list(solution.extended) == dist17
    with pytest.raises(CheckFailure, match=r"censused A_40=7 but reconstruction gives 0"):
        solve_distribution(17, {2: 0, 4: 0, 40: 7}, family=family17)


@pytest.mark.parametrize("weight", [-2, -1])
def test_solve_distribution_rejects_a_negative_weight(family17, weight):
    with pytest.raises(ValueError, match=f"weight {weight} is negative"):
        solve_distribution(17, {2: 0, 4: 0, weight: 0}, family=family17)


def test_solve_distribution_resolves_missing_top(fx137, census137, constraint34, family137):
    solution = solve_distribution(137, census137, constraint=constraint34, family=family137)
    assert solution.coefficients[17] == 69
    assert solution.extended[34] == fx137["accepted_a34"]
    for j, v in fx137["distribution_extended"].items():
        assert solution.extended[j] == v
    for j, v in fx137["distribution_augmented"].items():
        assert solution.augmented[j] == v


def test_the_p137_fixture_distribution_is_a_2_design_at_every_weight(fx137):
    for w, count in fx137["distribution_extended"].items():
        assert pair_design_remainder(count, w, 138) == 0, w
    assert fx137["distribution_extended"][34] == fx137["accepted_a34"]


def test_the_2_design_check_rejects_the_rejected_top_candidate(fx137):
    n = 138
    assert pair_design_remainder(fx137["accepted_a34"], 34, n) == 0
    assert pair_design_remainder(fx137["rejected_a34"], 34, n) == 15318
    # the fixture lists the weights up to half the length; the rest mirror them
    ext = [fx137["distribution_extended"].get(min(w, n - w), 0) for w in range(n + 1)]
    aug = tuple(fx137["distribution_augmented"].get(min(w, n - 1 - w), 0) for w in range(n))
    solution = GleasonSolution(137, 17, (), tuple(ext), aug, None)
    validate_solution(solution)
    # the rejected candidate at 34 and 104, with the difference moved to 36 and
    # 102: the sum, the symmetry and the vanishing at i still hold
    delta = fx137["accepted_a34"] - fx137["rejected_a34"]
    assert delta == 138
    for w, change in ((34, -delta), (104, -delta), (36, delta), (102, delta)):
        ext[w] += change
    with pytest.raises(InvariantViolation, match="2-design divisibility"):
        validate_solution(GleasonSolution(137, 17, (), tuple(ext), aug, None))


@pytest.mark.parametrize("p", [17, 41])
def test_small_distributions_are_2_designs_at_every_weight(request, p):
    dist = request.getfixturevalue(f"dist{p}")
    assert len(dist) == p + 2
    for w, count in enumerate(dist):
        assert pair_design_remainder(count, w, p + 1) == 0, w
    # one word fewer at the first nonzero weight breaks it
    d = next(w for w in range(1, p + 2) if dist[w])
    assert pair_design_remainder(dist[d] - 1, d, p + 1) != 0
