"""Acceptance suite: one test per acceptance criterion, exact tolerances.

Each test prints a single pass line (visible with pytest -s) and asserts the
stated runtime limit.
"""

import json
import time
from math import comb

import pytest

from qrweight import census
from qrweight.census import census_work_units, run_census
from qrweight.cli import main
from qrweight.congruence import check_candidate, compute_bundle
from qrweight.errors import BudgetExceeded
from qrweight.fixtures import load_p137
from qrweight.gleason import reconstruct, solve_coefficients, solve_distribution
from qrweight.psl2 import find_sylow_plan

from conftest import exhaustive_distribution, rd_rank, rd_successor, rd_unrank


@pytest.fixture(scope="module")
def fx137():
    return load_p137()


@pytest.fixture(scope="module")
def bundle137(family137, fx137):
    plan = find_sylow_plan(137)
    return compute_bundle(
        family137,
        plan,
        list(range(22, 35, 2)),
        h2_counts_fixture=fx137["subgroup_counts"]["H2"],
    )


def report(criterion: int, detail: str, elapsed: float, limit: float) -> None:
    print(f"criterion {criterion} PASS: {detail} ({elapsed:.2f}s < {limit:.0f}s)")
    assert elapsed < limit, f"criterion {criterion} exceeded {limit}s ({elapsed:.2f}s)"


def test_criterion_1_p17_end_to_end(tmp_path):
    t0 = time.perf_counter()
    rc = main(["pipeline", "--p", "17", "--t", "4", "--out", str(tmp_path)])
    assert rc == 0
    solution = json.loads((tmp_path / "solution.json").read_text())["payload"]
    pipeline_ext = [c for _, c in solution["extended"]]

    from qrweight import build_family

    family = build_family(17)
    oracle = exhaustive_distribution(family.extended.rows, 18)
    assert pipeline_ext == oracle

    ks = solve_coefficients(2, {0: 1, 1: 0, 2: 0})
    poly = reconstruct(ks, 2)
    assert [poly.coeff(j) for j in range(19)] == oracle
    report(1, "p=17 oracle == pipeline; reconstruction from {1,0,0} == oracle",
           time.perf_counter() - t0, 1.0)


def test_criterion_2_p41_end_to_end(family41):
    t0 = time.perf_counter()
    oracle = exhaustive_distribution(family41.extended.rows, 42)
    censused = run_census(family41, 6)
    for w in range(0, 13, 2):
        assert censused.counts[w] == oracle[w]
    plan = find_sylow_plan(41)
    bundle = compute_bundle(family41, plan, list(range(2, 11, 2)))
    solution = solve_distribution(
        41, censused.counts, constraint=bundle.constraints[10], family=family41
    )
    assert list(solution.extended) == oracle
    cert = solution.sign_certificate
    assert cert is not None and cert.chosen_sign in (1, -1)
    accepted = [c for c in cert.candidates if c.accepted]
    assert len(accepted) == 1 and accepted[0].a_top == oracle[10]
    report(2, "p=41 oracle == census+reconstruction; sign route agrees with censused A_10",
           time.perf_counter() - t0, 60.0)


def test_criterion_3_p137_congruence_suite(family137, fx137):
    t0 = time.perf_counter()
    plan = find_sylow_plan(137)
    bundle = compute_bundle(
        family137,
        plan,
        list(range(22, 35, 2)),
        h2_counts_fixture=fx137["subgroup_counts"]["H2"],
    )
    assert bundle.dims == fx137["subgroup_dims"]
    for label, row in fx137["subgroup_counts"].items():
        if label == "H2":
            assert bundle.h2_source == "fixture"
            continue
        assert {w: bundle.counts[label].get(w, 0) for w in row} == row, label
    assert bundle.sylow2 == fx137["sylow2"]
    assert {w: c.residue for w, c in bundle.constraints.items()} == fx137["crt_residues"]
    assert all(c.modulus == 1285608 for c in bundle.constraints.values())
    report(3, "p=137 subcode dims, counts, dihedral residues and CRT residues recomputed",
           time.perf_counter() - t0, 1800.0)


def test_criterion_4_p137_finish(family137, fx137, bundle137):
    t0 = time.perf_counter()
    counts = {w: 0 for w in range(2, 22, 2)}
    counts.update(fx137["partial_census"])
    solution = solve_distribution(
        137, counts, constraint=bundle137.constraints[34], family=family137
    )
    assert solution.coefficients[17] == 69
    assert solution.extended[34] == 771068968365
    cert = solution.sign_certificate
    assert cert is not None and cert.orbit_quotient == 599769
    rejected = [c for c in cert.candidates if not c.accepted]
    assert len(rejected) == 1 and rejected[0].a_top == 771068968227
    for j, v in fx137["distribution_extended"].items():
        assert solution.extended[j] == v, f"extended j={j}"
    for j, v in fx137["distribution_augmented"].items():
        assert solution.augmented[j] == v, f"augmented j={j}"
    assert sum(solution.extended) == 1 << 69
    assert all(solution.extended[j] == solution.extended[138 - j] for j in range(139))
    # MacWilliams equality, augmented identities and exact division are
    # enforced inside solve_distribution; reaching here means they held
    report(4, "p=137 finish: K_17=69, A_34 resolved, both table columns exact",
           time.perf_counter() - t0, 10.0)


def test_criterion_5_revolving_door_suite():
    t0 = time.perf_counter()
    for s in range(0, 11):
        for t in range(0, s + 1):
            walk = []
            c = rd_unrank(0, s, t) if comb(s, t) else None
            while c is not None:
                walk.append(c.elements)
                c = rd_successor(c)
            assert len(walk) == comb(s, t)
            assert len(set(walk)) == comb(s, t)
            for a, b in zip(walk, walk[1:]):
                assert len(set(a) - set(b)) == 1 and len(set(b) - set(a)) == 1
    for s in range(0, 13):
        for t in range(0, s + 1):
            for r in range(comb(s, t)):
                assert rd_rank(rd_unrank(r, s, t)) == r
    for block in (1, 7, 50):
        seen = []
        for _, matrix, size, start, count in census_work_units(10, 4, block):
            if (matrix, size) != (1, 4):
                continue
            c = rd_unrank(start, 10, 4)
            for _ in range(count):
                seen.append(c.elements)
                c = rd_successor(c)
        assert len(seen) == comb(10, 4) == len(set(seen))
    report(5, "single-exchange s<=10, rank/unrank bijection s<=12, shard coverage C(10,4)",
           time.perf_counter() - t0, 10.0)


def test_criterion_6_census_determinism(family41, monkeypatch):
    t0 = time.perf_counter()
    monkeypatch.setattr(census, "CHILD_SHARE_BITS", 1)  # so small a census starts children all the same
    results = {}
    for block in (1000, 100000):
        for workers in (1, 2, 7):
            results[(block, workers)] = run_census(family41, 6, workers=workers, block_size=block)
    reference = results[(1000, 1)].counts
    for result in results.values():
        assert result.counts == reference
    for block in (1000, 100000):
        same_block = [results[(block, w)] for w in (1, 2, 7)]
        assert same_block[0] == same_block[1] == same_block[2]  # provenance included
    report(6, "p=41 t=6 censuses identical for workers {1,2,7} x block sizes {1e3,1e5}",
           time.perf_counter() - t0, 120.0)


def test_criterion_7_desk_scale_declaration(family137, family41, monkeypatch):
    t0 = time.perf_counter()
    with pytest.raises(BudgetExceeded):
        run_census(family137, 11)
    rc = main(["paper-regression"])
    assert rc == 0
    # the long-run override takes the same code path at any scale; exercise it
    # where an oracle exists: under a one-pattern budget the p=41 census is
    # refused, and with long_run it runs and matches the unpatched counts
    reference = run_census(family41, 6).counts
    monkeypatch.setattr(census, "DEFAULT_PATTERN_BUDGET", 1)
    with pytest.raises(BudgetExceeded):
        run_census(family41, 6)
    assert run_census(family41, 6, long_run=True).counts == reference
    report(7, "p=137 full enumeration declared out of desk scale: budget gate + "
              "fixture regression + long-run path verified against the p=41 oracle",
           time.perf_counter() - t0, 600.0)
