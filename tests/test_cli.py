import hashlib
import json
import os
import shlex
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from qrweight import census, cli, fixtures
from qrweight.census import shard_digest
from qrweight.cli import _digest, main
from qrweight.fixtures import load_p137

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv) -> tuple[int, str]:
    rc = main(list(argv))
    return rc, capsys.readouterr().out


def run_err(capsys, *argv) -> tuple[int, str]:
    rc = main(list(argv))
    return rc, capsys.readouterr().err


def test_construct_json(capsys):
    rc, out = run(capsys, "construct", "--p", "17")
    assert rc == 0
    payload = json.loads(out)
    assert payload["p"] == 17
    assert payload["m"] == 2
    assert payload["residues"] == [1, 2, 4, 8, 9, 13, 15, 16]
    assert payload["codes"]["extended"] == [18, 9]
    assert int(payload["generators_hex_lsb_x0"]["q"], 16).bit_length() == 9  # degree 8


def test_construct_table_format(capsys):
    rc, out = run(capsys, "construct", "--p", "17", "--format", "table")
    assert rc == 0
    assert "p = 17" in out


def test_construct_artifacts_byte_identical(tmp_path, capsys):
    rc1, _ = run(capsys, "construct", "--p", "17", "--out", str(tmp_path / "a"))
    rc2, _ = run(capsys, "construct", "--p", "17", "--out", str(tmp_path / "b"))
    assert rc1 == rc2 == 0
    a = (tmp_path / "a" / "construct.json").read_bytes()
    b = (tmp_path / "b" / "construct.json").read_bytes()
    assert a == b


def test_group_json(capsys):
    rc, out = run(capsys, "group", "--p", "137", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["order"] == 1285608
    assert payload["factorization"] == [[2, 3], [3, 1], [17, 1], [23, 1], [137, 1]]
    assert payload["generators"]["T_order_2"]


def test_group_table(capsys):
    rc, out = run(capsys, "group", "--p", "17")
    assert rc == 0
    assert "|PSL2(17)| = 2448" in out


def test_congruence_command(capsys):
    rc, out = run(capsys, "congruence", "--p", "17", "--weights", "2..4")
    assert rc == 0
    payload = json.loads(out)
    assert payload["constraints"]["4"]["modulus"] == 2448
    assert payload["h2_source"] == "computed"


def test_congruence_counts_a_half_rate_fold_by_its_census(capsys):
    # H2 at p = 127 has k = 32; its census walks 284,274 lanes, under the budget
    rc, out = run(capsys, "congruence", "--p", "127", "--weights", "2..20")
    assert rc == 0
    assert json.loads(out)["dims"]["H2"] == 32


def test_shard_plan_output(capsys):
    rc, out = run(capsys, "shard-plan", "--p", "17", "--t", "2", "--block-size", "10")
    assert rc == 0
    lines = out.strip().splitlines()
    # index matrix size start_rank count: C(9, 2) = 36 patterns split 10+10+10+6
    assert lines[0] == "1 1 0 0 1"
    assert lines[4] == "5 1 2 20 10"
    assert lines[-1] == "12 2 2 30 6"
    rc, out = run(capsys, "census", "--p", "17", "--t", "2", "--block-size", "10")
    assert json.loads(out)["provenance"]["total_shards"] == len(lines)


def test_shard_plan_into_closed_pipe_is_quiet():
    # about 300 kB of plan lines, far more than a pipe buffers before head exits
    cmd = (
        f"{shlex.quote(sys.executable)} -c 'import sys; from qrweight.cli import main; sys.exit(main())' "
        "shard-plan --p 41 --t 6 --block-size 10 | head -1"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(cmd, shell=True, capture_output=True, text=True, env=env, timeout=120)
    assert proc.stdout == "1 1 0 0 1\n"
    assert "Traceback" not in proc.stderr
    assert "BrokenPipeError" not in proc.stderr


def test_census_and_solve_and_verify(tmp_path, capsys):
    out_dir = str(tmp_path)
    rc, _ = run(capsys, "census", "--p", "17", "--t", "4", "--out", out_dir)
    assert rc == 0
    rc, _ = run(capsys, "congruence", "--p", "17", "--weights", "2..4", "--out", out_dir)
    assert rc == 0
    rc, out = run(
        capsys,
        "solve", "--p", "17",
        "--census", str(tmp_path / "census.json"),
        "--constraint", str(tmp_path / "congruence.json"),
        "--out", out_dir,
    )
    assert rc == 0
    payload = json.loads(out)
    ext = dict((j, c) for j, c in payload["extended"])
    assert ext[6] == 102 and ext[18] == 1
    assert payload["sign_certificate"]["chosen_sign"] in (1, -1)
    assert (tmp_path / "table.txt").exists()
    rc, out = run(capsys, "verify", "--p", "17", "--table", str(tmp_path / "solution.json"))
    assert rc == 0
    assert "ok" in out


def test_verify_rejects_wrong_prime(tmp_path, capsys):
    out_dir = str(tmp_path)
    assert run(capsys, "census", "--p", "17", "--t", "2", "--out", out_dir)[0] == 0
    assert run(capsys, "solve", "--p", "17", "--census", str(tmp_path / "census.json"),
               "--out", out_dir)[0] == 0
    rc, _ = run(capsys, "verify", "--p", "41", "--table", str(tmp_path / "solution.json"))
    assert rc == 1


def test_verify_rejects_tampered_artifact(tmp_path, capsys):
    out_dir = str(tmp_path)
    assert run(capsys, "census", "--p", "17", "--t", "2", "--out", out_dir)[0] == 0
    assert run(capsys, "solve", "--p", "17", "--census", str(tmp_path / "census.json"),
               "--out", out_dir)[0] == 0
    path = tmp_path / "solution.json"
    artifact = json.loads(path.read_text())
    artifact["payload"]["extended"][6][1] += 1
    path.write_text(json.dumps(artifact))
    rc, _ = run(capsys, "verify", "--p", "17", "--table", str(path))
    assert rc == 1


@pytest.mark.parametrize("mutate", [
    lambda payload: payload.update(extended=payload["extended"][:-3]),
    lambda payload: payload.pop("m"),
    lambda payload: payload.update(m="2"),
    lambda payload: payload.update(m=2.0),
    lambda payload: payload.update(m=100),
    lambda payload: payload.update(extended=[[99, c] for _, c in payload["extended"]]),
    lambda payload: payload["coefficients"].__setitem__(1, payload["coefficients"][1] + 1),
    lambda payload: payload["augmented"][5].__setitem__(1, payload["augmented"][5][1] + 1),
    lambda payload: payload["extended"].insert(0, [-2, 0]),
], ids=["short-extended", "no-m", "string-m", "float-m", "m-off-the-family", "wrong-weight-index",
        "edited-coefficient", "edited-augmented", "negative-weight"])
def test_verify_rejects_malformed_solution(tmp_path, capsys, mutate):
    out_dir = str(tmp_path)
    assert run(capsys, "census", "--p", "17", "--t", "2", "--out", out_dir)[0] == 0
    assert run(capsys, "solve", "--p", "17", "--census", str(tmp_path / "census.json"),
               "--out", out_dir)[0] == 0
    path = tmp_path / "solution.json"
    _edit_payload(path, mutate, redigest_record=False)
    rc, err = run_err(capsys, "verify", "--p", "17", "--table", str(path))
    assert rc == 1
    assert "check failed" in err


def _emit_fragments(tmp_path, capsys) -> list[str]:
    """The 12 fragments of the p = 17, t = 2, block size 10 census, one per unit."""
    paths = []
    for index in range(1, 13):
        out_dir = tmp_path / "run" / f"shard-{index}"
        rc, _ = run(capsys, "census", "--p", "17", "--t", "2", "--block-size", "10",
                    "--shard-index", str(index), "--out", str(out_dir))
        assert rc == 0
        paths.append(str(out_dir / "census.json"))
    return paths


def _edit_payload(path, mutate, *, redigest_record=True, redigest_payload=True) -> None:
    """Edit a census artifact's payload, optionally re-sealing its digests as a forger would."""
    artifact = json.loads(Path(path).read_text())
    payload = artifact["payload"]
    mutate(payload)
    if redigest_record:
        (rec,) = payload["provenance"]["shards"]
        tallies = [(w, c) for w, c in payload["counts"] if c]
        unit = [rec[f] for f in ("index", "matrix", "size", "start_rank", "count")]
        rec["sha256"] = shard_digest(unit, tallies)
    if redigest_payload:
        artifact["manifest"]["payload_sha256"] = _digest(payload)
    Path(path).write_text(json.dumps(artifact))


def test_fragment_emit_and_merge(tmp_path, capsys):
    fragments = _emit_fragments(tmp_path, capsys)
    artifact = json.loads(Path(fragments[4]).read_text())
    assert set(artifact) == {"payload", "manifest"}
    assert [rec["index"] for rec in artifact["payload"]["provenance"]["shards"]] == [5]
    rc, whole = run(capsys, "census", "--p", "17", "--t", "2", "--block-size", "10")
    assert rc == 0
    rc, merged = run(capsys, "census-merge", *reversed(fragments), "--out", str(tmp_path / "merged"))
    assert rc == 0
    assert merged == whole
    rc, _ = run(capsys, "solve", "--p", "17", "--census", str(tmp_path / "merged" / "census.json"))
    assert rc == 0


def test_merge_rejects_record_moved_off_the_plan(tmp_path, capsys):
    fragments = _emit_fragments(tmp_path, capsys)

    def mutate(payload):
        payload["provenance"]["shards"][0]["start_rank"] += 3
        payload["counts"] = [[4, 999]]

    _edit_payload(fragments[4], mutate)
    rc, err = run_err(capsys, "census-merge", *fragments)
    assert rc == 1
    assert "shard 5:" in err


def test_merge_rejects_payload_edited_without_digest(tmp_path, capsys):
    fragments = _emit_fragments(tmp_path, capsys)

    def mutate(payload):
        payload["counts"][2][1] += 1

    _edit_payload(fragments[4], mutate, redigest_record=False, redigest_payload=False)
    rc, err = run_err(capsys, "census-merge", *fragments)
    assert rc == 1
    assert "payload digest mismatch" in err


@pytest.mark.parametrize("text", [b'{"payload": {}, "manifest": []}', b"[]", b'{"payload": ', b"\xff\xfe{}"])
def test_merge_rejects_non_artifact(tmp_path, capsys, text):
    fragments = _emit_fragments(tmp_path, capsys)
    Path(fragments[4]).write_bytes(text)
    rc, err = run_err(capsys, "census-merge", *fragments)
    assert rc == 1
    assert "is not an artifact" in err


def test_merge_rejects_record_digest_mismatch(tmp_path, capsys):
    fragments = _emit_fragments(tmp_path, capsys)

    def mutate(payload):
        payload["counts"][2][1] += 1

    _edit_payload(fragments[4], mutate, redigest_record=False)
    rc, err = run_err(capsys, "census-merge", *fragments)
    assert rc == 1
    assert "shard 5: sha256" in err


@pytest.mark.parametrize("counts", [[[4, 11]], [[3, 1]], [[6, 1]], [[4, -1]]])
def test_merge_rejects_impossible_counts(tmp_path, capsys, counts):
    # shard 5 walks 10 patterns; t = 2 makes the census complete up to weight 4
    fragments = _emit_fragments(tmp_path, capsys)

    def mutate(payload):
        payload["counts"] = counts

    _edit_payload(fragments[4], mutate)
    rc, err = run_err(capsys, "census-merge", *fragments)
    assert rc == 1
    assert "shard 5:" in err


def test_merge_rejects_fragments_of_two_codes(tmp_path, capsys):
    fragments = _emit_fragments(tmp_path, capsys)
    other = tmp_path / "p41"
    assert run(capsys, "census", "--p", "41", "--t", "2", "--block-size", "10",
               "--shard-index", "1", "--out", str(other))[0] == 0
    assert run(capsys, "census-merge", str(other / "census.json"), *fragments[1:])[0] == 1


def test_merge_rejects_code_digest_not_of_the_family(tmp_path, capsys):
    fragments = _emit_fragments(tmp_path, capsys)

    def mutate(payload):
        payload["provenance"]["code_digest"] = "0" * 64

    for path in fragments:
        _edit_payload(path, mutate)
    rc, err = run_err(capsys, "census-merge", *fragments)
    assert rc == 1
    assert "different code" in err


def test_solve_refuses_a_lone_fragment(tmp_path, capsys):
    fragments = _emit_fragments(tmp_path, capsys)
    rc, err = run_err(capsys, "solve", "--p", "17", "--census", fragments[0])
    assert rc == 1
    assert "missing shards" in err


def test_pipeline_p17(tmp_path, capsys):
    rc, out = run(capsys, "pipeline", "--p", "17", "--t", "4", "--out", str(tmp_path))
    assert rc == 0
    assert "all checks passed" in out
    for name in ("construct.json", "congruence.json", "census.json", "solution.json", "table.txt"):
        assert (tmp_path / name).exists()


PIPELINE_P41_SHA256 = {
    "census.json": "23f339d97bc9913092ffa7c9a299caf02350548308d558dc464c16444a6b82a8",
    "congruence.json": "83ab63555a8c5a5bcfe9e44d08e273492eaca73306bfa3ebaa0beb2c46c3d571",
    "construct.json": "fe7ecb37fc66b957749113c829e4362f19521e960e717034efc1dc63ef96d99e",
    "solution.json": "100acc54c537e948c3553a4b281c9112b645c7495551ba84cc15bba966b4c511",
    "table.txt": "4dde62ddcb1e2aa2c123dc18d5da50af54b191f91f3a7bc8af1e62718bd35919",
}


def test_pipeline_p41_matches_brute_force(tmp_path, capsys, family41, dist41):
    rc, _ = run(capsys, "pipeline", "--p", "41", "--t", "6", "--out", str(tmp_path))
    assert rc == 0
    solution = json.loads((tmp_path / "solution.json").read_text())["payload"]
    assert [c for _, c in solution["extended"]] == dist41
    # every file is byte-identical to the recorded run
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in tmp_path.iterdir()}
    assert written == PIPELINE_P41_SHA256


def test_pipeline_fails_a_census_count_that_breaks_its_congruence(tmp_path, capsys, monkeypatch):
    honest = census.run_census

    def miscount(*args, **kwargs):
        result = honest(*args, **kwargs)
        return replace(result, counts={**result.counts, 4: result.counts[4] + 1})

    monkeypatch.setattr(census, "run_census", miscount)
    rc, err = run_err(capsys, "pipeline", "--p", "17", "--t", "4", "--out", str(tmp_path))
    assert rc == 1
    assert "FAIL at stage congruence-check" in err
    assert not (tmp_path / "solution.json").exists()


def test_pipeline_budget_gate(capsys):
    rc, err = run_err(capsys, "pipeline", "--p", "137", "--t", "16")
    assert rc == 3 and "FAIL at stage census" in err


def test_pipeline_budget_counts_live_patterns(capsys, monkeypatch):
    live = census.pattern_cost(9, 8)  # p = 17, t = 4: 386 of the 512 planned patterns walked
    monkeypatch.setattr(census, "DEFAULT_PATTERN_BUDGET", live)
    assert run(capsys, "pipeline", "--p", "17", "--t", "4")[0] == 0
    # one pattern short, the pipeline is refused before its congruence stage
    monkeypatch.setattr(census, "DEFAULT_PATTERN_BUDGET", live - 1)
    monkeypatch.setattr(cli, "_compute_bundle", lambda *args: pytest.fail("congruence stage reached"))
    rc, err = run_err(capsys, "pipeline", "--p", "17", "--t", "4")
    assert rc == 3 and "FAIL at stage census" in err


def test_pipeline_rejects_wrong_residue_class(capsys):
    rc, _ = run(capsys, "pipeline", "--p", "7", "--t", "2")
    assert rc == 2


def test_pipeline_refuses_a_census_short_of_2m_minus_2_before_counting(capsys, monkeypatch):
    # p = 41 has m = 5: A_2..A_8 must be counted, so t = 3 leaves A_8 to nobody
    monkeypatch.setattr(census, "run_census", lambda *args, **kwargs: pytest.fail("census run"))
    rc, err = run_err(capsys, "pipeline", "--p", "41", "--t", "3")
    assert rc == 2
    assert "census t=3 too small: need t >= 4" in err


def test_pipeline_prints_both_sign_candidates_when_the_sign_route_fails(tmp_path, capsys, monkeypatch):
    # at t = m - 1 the sign route fixes A_10; a wrong weight-10 residue rejects both candidates
    honest = cli._compute_bundle

    def wrong_top_residue(family, weights, long_run):
        bundle = honest(family, weights, long_run)
        top = bundle.constraints[10]
        bad = replace(top, residue=(top.residue + 1) % top.modulus)
        return replace(bundle, constraints={**bundle.constraints, 10: bad})

    monkeypatch.setattr(cli, "_compute_bundle", wrong_top_residue)
    rc = main(["pipeline", "--p", "41", "--t", "4", "--out", str(tmp_path)])
    out, err = capsys.readouterr()
    assert rc == 1
    assert "candidate sign +1" in out and "candidate sign -1" in out
    assert "FAIL at stage solve" in err
    assert not (tmp_path / "solution.json").exists()


def test_paper_regression_passes(capsys):
    rc, out = run(capsys, "paper-regression")
    assert rc == 0
    assert "regression suite passed" in out
    assert "ok: top_coefficient" in out


def test_paper_regression_compares_every_fixture_key_once(capsys):
    rc, out = run(capsys, "paper-regression")
    assert rc == 0
    compared = [line[len("ok: "):] for line in out.splitlines() if line.startswith("ok: ")]
    assert sorted(compared) == sorted(load_p137())
    assert "FAIL" not in out


def _perturb_fixture(monkeypatch, mutate) -> None:
    """Have the CLI load an edited copy of the published fixture."""
    fx = load_p137()
    mutate(fx)
    monkeypatch.setattr(fixtures, "load_p137", lambda: fx)


@pytest.mark.parametrize("key, value", [
    ("p", 139),
    ("group_order", 1285609),
    ("minimum_distance_extended", 24),
    ("crt_modulus", 1285609),
    ("top_coefficient", 70),
    ("rejected_a34", 771068968228),
])
def test_paper_regression_detects_a_perturbed_scalar(capsys, monkeypatch, key, value):
    _perturb_fixture(monkeypatch, lambda fx: fx.update({key: value}))
    rc, out = run(capsys, "paper-regression")
    assert rc == 1
    assert f"FAIL: {key} " in out


def test_paper_regression_detects_perturbed_census(capsys, monkeypatch):
    def mutate(fx):
        fx["partial_census"][32] += 1

    _perturb_fixture(monkeypatch, mutate)
    rc, err = run_err(capsys, "paper-regression")
    assert rc == 1
    assert "FAIL at stage congruence-check" in err
    assert "borrowed A_32=" in err


def test_paper_regression_detects_perturbed_residue(capsys, monkeypatch):
    def mutate(fx):
        fx["crt_residues"][34] += 1

    _perturb_fixture(monkeypatch, mutate)
    rc, out = run(capsys, "paper-regression")
    assert rc == 1
    assert "FAIL" in out


def test_paper_regression_both_rejected_certificate(capsys, monkeypatch):
    # damaging a subgroup count changes the weight-34 congruence so that
    # neither sign candidate survives: the certificate must be printed
    def mutate(fx):
        fx["subgroup_counts"]["H2"][34] += 1

    _perturb_fixture(monkeypatch, mutate)
    rc = main(["paper-regression"])
    out, err = capsys.readouterr()
    assert rc == 1
    assert "candidate sign" in out
    assert "FAIL at stage solve: congruence rejected both sign candidates" in err


def test_paper_regression_writes_the_pipeline_artifacts(tmp_path, capsys):
    rc, out = run(capsys, "paper-regression", "--out", str(tmp_path))
    assert rc == 0
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(PIPELINE_P41_SHA256)
    assert json.loads((tmp_path / "congruence.json").read_text())["payload"]["h2_source"] == "fixture"
    # the record's bytes, pinned so that the shared stage runner cannot change them
    assert hashlib.sha256((tmp_path / "solution.json").read_bytes()).hexdigest() == (
        "f40b158dad8086df88b5615233ca465bbe5af9f76586dc5ad9174ddabf0d7f1c")
    assert hashlib.sha256((tmp_path / "table.txt").read_bytes()).hexdigest() == (
        "b1327d11d80a6a3a81630f1d6673d02071735652ddd5a3ffee9a77b5083dcfac")
    rc, out = run(capsys, "verify", "--p", "137", "--table", str(tmp_path / "solution.json"))
    assert rc == 0 and "ok: p=137" in out


def test_usage_errors(capsys):
    assert main(["no-such-command"]) == 2
    assert main([]) == 2
    assert main(["solve", "--p", "17"]) == 2  # nothing to solve from


@pytest.mark.parametrize(
    "argv",
    [
        ["census", "--p", "17", "--t", "-1"],
        ["census", "--p", "17", "--t", "2", "--workers", "0"],
        ["pipeline", "--p", "17", "--t", "4", "--workers", "-3"],
        ["pipeline", "--p", "17", "--t", "-1"],
        ["shard-plan", "--p", "17", "--t", "-1"],
    ],
    ids=["census-t", "census-workers", "pipeline-workers", "pipeline-t", "shard-plan-t"],
)
def test_rejects_negative_t_and_workers_below_one(tmp_path, capsys, argv):
    out_dir = [] if argv[0] == "shard-plan" else ["--out", str(tmp_path)]
    assert main(argv + out_dir) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "must be >=" in captured.err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("p", ["15", "25"])
@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "--out"],
        ["group"],
        ["congruence", "--weights", "2..4", "--out"],
        ["shard-plan", "--t", "1"],
        ["census", "--t", "1", "--out"],
        ["pipeline", "--t", "3", "--out"],
    ],
    ids=lambda argv: argv[0],
)
def test_an_unsupported_prime_is_a_usage_error(tmp_path, capsys, argv, p):
    out_dir = [str(tmp_path)] if argv[-1] == "--out" else []
    assert main([argv[0], "--p", p, *argv[1:], *out_dir]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "usage error" in captured.err
    assert not any(tmp_path.iterdir())


def test_solve_from_injections_only(capsys):
    rc, out = run(capsys, "solve", "--p", "17", "--inject-a", "2=0", "--inject-a", "4=0")
    assert rc == 0
    payload = json.loads(out)
    assert payload["coefficients"] == [1, -9, -9]


def test_solve_rejects_a_nonzero_count_above_the_length(capsys):
    rc, err = run_err(capsys, "solve", "--p", "17", "--inject-a", "2=0", "--inject-a", "4=0",
                      "--inject-a", "40=7")
    assert rc == 1
    assert "censused A_40=7 but reconstruction gives 0" in err


def test_solve_rejects_a_negative_weight(capsys):
    # "-2=0" alone would be read as an option, so the value is attached with "="
    rc, err = run_err(capsys, "solve", "--p", "17", "--inject-a", "2=0", "--inject-a", "4=0",
                      "--inject-a=-2=0")
    assert rc == 2
    assert "usage error: weight -2 is negative" in err


def test_solve_rejects_a_constraint_of_another_code(tmp_path, capsys):
    assert run(capsys, "congruence", "--p", "41", "--weights", "2..10", "--out", str(tmp_path))[0] == 0
    rc, err = run_err(capsys, "solve", "--p", "17", "--inject-a", "2=0",
                      "--constraint", str(tmp_path / "congruence.json"))
    assert rc == 1
    assert "different code" in err


@pytest.mark.parametrize("mutate", [
    lambda payload: payload["constraints"]["4"].update(modulus=2448 * 2),
    lambda payload: payload["constraints"]["4"].update(residue=str(payload["constraints"]["4"]["residue"])),
    lambda payload: payload["constraints"]["4"].pop("parts"),
    lambda payload: payload["constraints"].pop("4"),
    lambda payload: payload.update(constraints=[]),
], ids=["modulus", "string-residue", "no-parts", "no-entry", "not-a-map"])
def test_solve_rejects_a_malformed_constraint(tmp_path, capsys, mutate):
    assert run(capsys, "congruence", "--p", "17", "--weights", "2..4", "--out", str(tmp_path))[0] == 0
    path = tmp_path / "congruence.json"
    _edit_payload(path, mutate, redigest_record=False)
    rc, err = run_err(capsys, "solve", "--p", "17", "--inject-a", "2=0", "--constraint", str(path))
    assert rc == 1
    assert "check failed" in err


def test_census_rejects_unknown_shard(capsys):
    rc, out = run(capsys, "census", "--p", "17", "--t", "4", "--shard-index", "999")
    assert rc == 2 and out == ""


@pytest.mark.parametrize("index", ["-4", "0", "13"], ids=["negative", "zero", "one-past-the-last"])
def test_census_shard_index_outside_the_plan_is_a_usage_error(tmp_path, capsys, index):
    # the p = 17, t = 2, block size 10 plan has the units 1..12
    rc = main(["census", "--p", "17", "--t", "2", "--block-size", "10",
               "--shard-index", index, "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == "" and "usage error: no such shard indices" in captured.err
    assert not any(tmp_path.iterdir())



def test_pipeline_runs_without_sympy():
    # sympy is a test oracle only: the package must run with it unimportable
    code = (
        "import sys; sys.modules['sympy'] = None; from qrweight.cli import main; "
        "sys.exit(main(['pipeline', '--p', '17', '--t', '4']))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "all checks passed" in proc.stdout
