"""Command-line front end for the whole pipeline.

Stages exchange self-describing JSON artifacts: a payload plus a manifest
carrying the command line, the code identity (prime and generator digest)
and the payload digest. Identical inputs produce byte-identical files, so
timing is logged, never serialized.

``pipeline`` and ``paper-regression`` share one stage runner: census to 2t,
congruences, a check of every count against its congruence, solve, then four
artifacts; a failing stage prints ``FAIL at stage <name>``. paper-regression
runs it at p = 137, t = 0 with A_2..A_32 borrowed from the fixture.

Exit codes: 0 success, 1 check failure, 2 usage, 3 budget exceeded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
import time
from pathlib import Path

from . import __version__, census as census_mod, congruence as congruence_mod, fixtures, gleason
from .errors import BudgetExceeded, CheckFailure, QrWeightError, SignUnresolved
from .psl2 import find_sylow_plan, group_order
from .qrcodes import build_family

log = logging.getLogger("qrweight")


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def _code_identity(family) -> dict:
    return {
        "p": family.p,
        "n": family.n_extended,
        "k": family.k,
        "generator_sha256": family.code_digest(),
    }


def _emit(args, family, name: str, payload: dict, inputs: dict | None = None) -> None:
    """Write the artifact ``name`` into the --out directory, if one was given.

    The manifest records the command line without --out, the code identity,
    the digests of any input files and the payload digest. A solution also
    gets its human-readable table.txt next to it.
    """
    if not args.out:
        return
    out = Path(args.out)
    artifact = {
        "payload": payload,
        "manifest": {
            "tool": f"qrweight {__version__}",
            "command": _command_line(args),
            "code": _code_identity(family),
            "inputs": inputs or {},
            "payload_sha256": _digest(payload),
        },
    }
    out.mkdir(parents=True, exist_ok=True)
    (out / name).write_text(_canonical(artifact), encoding="utf-8")
    log.info("wrote %s", out / name)
    if name == "solution.json":
        (out / "table.txt").write_text(_solution_table(payload), encoding="utf-8")


def _read_artifact(path: Path) -> dict:
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8 or not JSON, truncated for one
        raise CheckFailure(f"{path} is not an artifact: {exc}") from exc
    if not isinstance(data, dict) or "payload" not in data or not isinstance(data.get("manifest"), dict):
        raise CheckFailure(f"{path} is not an artifact (payload/manifest missing)")
    stored = data["manifest"].get("payload_sha256")
    actual = _digest(data["payload"])
    if stored != actual:
        raise CheckFailure(f"{path}: payload digest mismatch ({actual} != {stored})")
    return data


def _weight_pairs(counts: dict[int, int]) -> list[list[int]]:
    return [[w, counts[w]] for w in sorted(counts)]


def _file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------- construct


def _construct_payload(family) -> dict:
    return {
        "p": family.p,
        "m": family.m,
        "residues": sorted(family.residues),
        "nonresidues": sorted(family.nonresidues),
        "generators_hex_lsb_x0": {
            "q": family.gen_q.coeff_hex(),
            "n": family.gen_n.coeff_hex(),
            "qbar": family.gen_qbar.coeff_hex(),
            "nbar": family.gen_nbar.coeff_hex(),
        },
        "codes": {
            "augmented": [family.p, family.k],
            "expurgated": [family.p, (family.p - 1) // 2],
            "extended": [family.n_extended, family.k],
        },
    }


def cmd_construct(args) -> int:
    family = build_family(args.p)
    payload = _construct_payload(family)
    if args.format == "table":
        print(f"p = {family.p} (m = {family.m})")
        for name, dims in payload["codes"].items():
            print(f"  {name:10s} [{dims[0]}, {dims[1]}]")
        print(f"  residues: {payload['residues']}")
    else:
        print(_canonical(payload), end="")
    _emit(args, family, "construct.json", payload)
    return 0


# ---------------------------------------------------------------- group


def cmd_group(args) -> int:
    order, fac = group_order(args.p)
    plan = find_sylow_plan(args.p)
    payload = {
        "p": args.p,
        "order": order,
        "factorization": [[q, e] for q, e in fac],
        "s": plan.s,
        "generators": {
            **{f"order_{q}": g.matrix_str() for q, g in sorted(plan.odd_generators.items())},
            f"P_order_{2 ** (plan.s - 1)}": plan.P.matrix_str(),
            "T_order_2": plan.T.matrix_str(),
        },
    }
    if args.format == "table":
        factored = " * ".join(f"{q}^{e}" if e > 1 else f"{q}" for q, e in fac)
        print(f"|PSL2({args.p})| = {order} = {factored}")
        for name, mat in payload["generators"].items():
            print(f"  {name}: {mat}")
    else:
        print(_canonical(payload), end="")
    return 0


# ---------------------------------------------------------------- congruence


def _parse_weights(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo_i, hi_i = int(lo), int(hi)
    else:
        lo_i = hi_i = int(text)
    if lo_i < 0 or hi_i < lo_i:
        raise ValueError(f"bad weight range {text!r}")
    return [w for w in range(lo_i, hi_i + 1) if w % 2 == 0]


def _compute_bundle(family, weights, long_run: bool):
    """Congruence bundle; at p = 137 ``compute_bundle`` is offered the published
    H2 row, which it uses only when the budget refuses the 2^35-word H2 count."""
    plan = find_sylow_plan(family.p)
    h2_fixture = fixtures.load_p137()["subgroup_counts"]["H2"] if family.p == 137 else None
    return congruence_mod.compute_bundle(
        family, plan, weights, long_run=long_run, h2_counts_fixture=h2_fixture
    )


def _bundle_payload(bundle) -> dict:
    return {
        "p": bundle.p,
        "s": bundle.s,
        "h2_source": bundle.h2_source,
        "dims": dict(sorted(bundle.dims.items())),
        "counts": {label: _weight_pairs(row) for label, row in sorted(bundle.counts.items())},
        "sylow2_mod_2s": _weight_pairs(bundle.sylow2),
        "constraints": {
            str(w): {
                "residue": c.residue,
                "modulus": c.modulus,
                "parts": [[pp, r, label] for pp, r, label in c.parts],
            }
            for w, c in sorted(bundle.constraints.items())
        },
    }


def cmd_congruence(args) -> int:
    weights = _parse_weights(args.weights)
    if not weights:
        raise ValueError("weight range contains no even weight")
    family = build_family(args.p)
    bundle = _compute_bundle(family, weights, args.long_run)
    payload = _bundle_payload(bundle)
    print(_canonical(payload), end="")
    _emit(args, family, "congruence.json", payload)
    return 0


# ---------------------------------------------------------------- shard-plan


def cmd_shard_plan(args) -> int:
    family = build_family(args.p)
    for unit in census_mod.census_work_units(family.k, args.t, args.block_size):
        print(*unit)
    return 0


# ---------------------------------------------------------------- census


def cmd_census(args) -> int:
    family = build_family(args.p)
    result = census_mod.run_census(
        family,
        args.t,
        workers=args.workers,
        block_size=args.block_size,
        long_run=args.long_run,
        shard_indices=None if args.shard_index is None else [args.shard_index],
    )
    payload = census_mod.census_payload(result)
    print(_canonical(payload), end="")
    _emit(args, family, "census.json", payload)
    return 0


def _read_census(paths: list[str], family=None):
    """Merge census artifacts after checking their digests, shard plan and code.

    A single complete census goes through the same one-part merge, so a lone
    fragment is refused rather than taken for the whole census. Returns the
    merged census and the family it was checked against.
    """
    parts = [census_mod.census_from_payload(_read_artifact(Path(name))["payload"]) for name in paths]
    merged = census_mod.merge_censuses(parts)
    family = family or build_family(merged.p)
    claimed = {"p": merged.p, "n": merged.n, "k": merged.k, "generator_sha256": merged.provenance.code_digest}
    if claimed != _code_identity(family):
        raise CheckFailure(f"census was computed for a different code than the p={family.p} family")
    return merged, family


def cmd_census_merge(args) -> int:
    merged, family = _read_census(args.fragments)
    payload = census_mod.census_payload(merged)
    print(_canonical(payload), end="")
    _emit(args, family, "census.json", payload, {name: _file_digest(Path(name)) for name in args.fragments})
    return 0


# ---------------------------------------------------------------- solve


def _require_ints(what: str, values) -> None:
    bad = [v for v in values if type(v) is not int]
    if bad:
        raise CheckFailure(f"malformed {what}: {bad[0]!r} is not an integer")


def _constraint_from_artifact(artifact: dict, family, weight: int) -> congruence_mod.CongruenceConstraint:
    """The weight's constraint, once the artifact is shown to be of this code and group."""
    if artifact["manifest"].get("code") != _code_identity(family):
        raise CheckFailure(f"constraint artifact was computed for a different code than the p={family.p} family")
    try:
        entry = artifact["payload"]["constraints"][str(weight)]
        constraint = congruence_mod.CongruenceConstraint(
            j=weight,
            residue=entry["residue"],
            modulus=entry["modulus"],
            parts=tuple((pp, r, label) for pp, r, label in entry["parts"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckFailure(f"constraint artifact has no well-formed entry for weight {weight}: {exc!r}") from exc
    _require_ints("constraint artifact", [constraint.residue, constraint.modulus,
                                          *(x for pp, r, _ in constraint.parts for x in (pp, r))])
    order = group_order(family.p)[0]
    if constraint.modulus != order:
        raise CheckFailure(f"constraint modulus {constraint.modulus} is not |PSL2({family.p})| = {order}")
    return constraint


def _solution_payload(solution) -> dict:
    cert = None
    if solution.sign_certificate is not None:
        cert = {
            "chosen_sign": solution.sign_certificate.chosen_sign,
            "orbit_quotient": solution.sign_certificate.orbit_quotient,
            "candidates": [
                {
                    "sign": c.sign,
                    "k_top": c.k_top,
                    "a_top": c.a_top,
                    "accepted": c.accepted,
                    "detail": c.detail,
                }
                for c in solution.sign_certificate.candidates
            ],
        }
    return {
        "p": solution.p,
        "m": solution.m,
        "coefficients": list(solution.coefficients),
        "extended": [[j, c] for j, c in enumerate(solution.extended)],
        "augmented": [[j, c] for j, c in enumerate(solution.augmented)],
        "sign_certificate": cert,
    }


def _solution_table(payload: dict) -> str:
    """The nonzero rows j <= (p + 1) / 2 of a solution payload, and row 0."""
    lines = [f"{'j':>5s} {'augmented':>24s} {'extended':>24s}"]
    augmented = dict(payload["augmented"])
    for j, ext in payload["extended"][: (payload["p"] + 1) // 2 + 1]:
        aug = augmented.get(j, 0)
        if aug or ext or j == 0:
            lines.append(f"{j:5d} {aug:24d} {ext:24d}")
    return "\n".join(lines) + "\n"


def cmd_solve(args) -> int:
    family = build_family(args.p)
    counts: dict[int, int] = {}
    inputs = {}
    if args.census:
        counts.update(_read_census([args.census], family)[0].counts)
        inputs["census"] = _file_digest(Path(args.census))
    for item in args.inject_a or []:
        w, _, c = item.partition("=")
        counts[int(w)] = int(c)
    if not counts:
        raise ValueError("nothing to solve from: give --census and/or --inject-a")
    constraint = None
    if args.constraint:
        m = (args.p - 1) // 8
        constraint = _constraint_from_artifact(_read_artifact(Path(args.constraint)), family, 2 * m)
        inputs["constraint"] = _file_digest(Path(args.constraint))
    solution = gleason.solve_distribution(args.p, counts, constraint=constraint, family=family)
    payload = _solution_payload(solution)
    print(_solution_table(payload) if args.format == "table" else _canonical(payload), end="")
    _emit(args, family, "solution.json", payload, inputs)
    return 0


# ---------------------------------------------------------------- verify


def cmd_verify(args) -> int:
    """Solve the stored A_0..A_2m again and require the whole payload, bar the
    sign certificate, to be that solution's."""
    artifact = _read_artifact(Path(args.table))
    claimed = artifact["manifest"].get("code")
    if not isinstance(claimed, dict) or claimed.get("p") != args.p:
        raise CheckFailure(f"artifact is not for p={args.p}")
    family = build_family(args.p)
    if claimed != _code_identity(family):
        raise CheckFailure("artifact code identity does not match the constructed family")
    payload = artifact["payload"]
    try:
        # any other entry is left to the comparison of the whole payload below
        counts = {w: c for w, c in payload["extended"] if 0 <= w <= 2 * family.m}
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckFailure(f"malformed solution payload: {exc!r}") from exc
    _require_ints("solution payload", [*counts, *counts.values()])
    solution = gleason.solve_distribution(args.p, counts, family=family)
    # compared as canonical JSON, so that 1.0 or true does not pass for 1
    if _digest({**payload, "sign_certificate": None}) != _digest(_solution_payload(solution)):
        raise CheckFailure("stored solution is not the one its A_0..A_2m re-derive")
    print(f"ok: p={args.p} artifact passes all checks")
    return 0


# ---------------------------------------------------------------- pipeline


def _run_stages(args, family, t: int, weights, borrowed: dict[int, int], *, workers: int, block_size: int):
    """The stages of the module docstring; the census and ``borrowed`` must hold
    A_2t+2..A_2m-2. Returns the bundle, the checked counts' quotients and the solution."""
    p, m = family.p, family.m
    if any(w not in borrowed for w in range(2 * t + 2, 2 * m - 1, 2)):
        raise ValueError(f"census t={t} too small: need t >= {m - 1}")
    stage = "census"
    try:
        t0 = time.perf_counter()
        result = census_mod.run_census(family, t, workers=workers, block_size=block_size, long_run=args.long_run)
        stage = "congruence"
        bundle = _compute_bundle(family, weights, args.long_run)
        lent = ["H2 subcode counts"] if bundle.h2_source == "fixture" else []
        lent += [f"A_{w}" for w in sorted(borrowed)]
        if lent:
            print(f"borrowed: {', '.join(lent)}")
        stage = "congruence-check"
        counts = {**borrowed, **result.counts}
        quotients = {}
        for w in sorted(counts.keys() & bundle.constraints.keys()):
            verdict = congruence_mod.check_candidate(bundle.constraints[w], counts[w])
            if isinstance(verdict, congruence_mod.Reject):
                source = "censused" if w in result.counts else "borrowed"
                raise CheckFailure(f"{source} A_{w}={counts[w]} fails congruence: {verdict.reason}")
            quotients[w] = verdict
        stage = "solve"
        try:
            solution = gleason.solve_distribution(p, counts, constraint=bundle.constraints[2 * m], family=family)
        except SignUnresolved as exc:
            for cand in exc.certificate.candidates:
                print(f"  candidate sign {cand.sign:+d}: K={cand.k_top} A={cand.a_top}: {cand.detail}")
            raise
        log.info("stages of p=%d t=%d finished in %.2fs", p, t, time.perf_counter() - t0)
    except QrWeightError as exc:
        print(f"FAIL at stage {stage}: {exc}", file=sys.stderr)
        raise
    _emit(args, family, "construct.json", _construct_payload(family))
    _emit(args, family, "congruence.json", _bundle_payload(bundle))
    _emit(args, family, "census.json", census_mod.census_payload(result))
    _emit(args, family, "solution.json", _solution_payload(solution))
    return bundle, quotients, solution


def cmd_pipeline(args) -> int:
    if args.p % 8 != 1:
        raise ValueError("pipeline reconstruction requires p = 1 mod 8")
    family = build_family(args.p)
    weights = list(range(2, 2 * family.m + 1, 2))
    _run_stages(args, family, args.t, weights, {}, workers=args.workers, block_size=args.block_size)
    print(f"ok: pipeline p={args.p} t={args.t}: all checks passed")
    return 0


# ---------------------------------------------------------------- paper regression


def _compare(key: str, derived, expected) -> bool:
    """Print ``ok: key``, or ``FAIL: key`` with the derived value; of a map,
    only the entries that differ from the expected ones."""
    if derived == expected:
        print(f"ok: {key}")
        return True
    if isinstance(derived, dict) and isinstance(expected, dict):
        derived = {w: derived.get(w) for w in sorted(derived.keys() | expected.keys())
                   if derived.get(w) != expected.get(w)}
    print(f"FAIL: {key} {derived}")
    return False


def cmd_paper_regression(args) -> int:
    """Derive the published p = 137 record again through the stage runner, A_34
    by the sign route, and compare it with the fixture key by key."""
    fx = fixtures.load_p137()
    family = build_family(137)
    p, m = family.p, family.m
    weights = list(range(22, 2 * m + 1, 2))  # the published H2 row starts at 22
    borrowed = {w: fx["partial_census"].get(w, 0) for w in range(2, 2 * m, 2)}
    bundle, quotients, solution = _run_stages(
        args, family, 0, weights, borrowed, workers=1, block_size=census_mod.DEFAULT_BLOCK_SIZE
    )
    derived = {
        "p": p,
        "group_order": group_order(p)[0],
        "crt_modulus": bundle.constraints[2 * m].modulus,
        "subgroup_dims": bundle.dims,
        "subgroup_counts": {label: {w: row.get(w, 0) for w in weights} for label, row in bundle.counts.items()},
        "sylow2": bundle.sylow2,
        "crt_residues": {w: c.residue for w, c in bundle.constraints.items()},
        "minimum_distance_extended": next(w for w in range(1, p + 2) if solution.extended[w]),
        "partial_census": {w: solution.extended[w] for w in weights[:-1]},
        "orbit_quotients": {**quotients, 2 * m: solution.sign_certificate.orbit_quotient},
        "top_coefficient": solution.coefficients[m],
        "accepted_a34": solution.extended[2 * m],
        "rejected_a34": next(c.a_top for c in solution.sign_certificate.candidates if not c.accepted),
        "distribution_extended": {j: solution.extended[j] for j in fx["distribution_extended"]},
        "distribution_augmented": {j: solution.augmented[j] for j in fx["distribution_augmented"]},
    }
    failures = [key for key, value in derived.items() if not _compare(key, value, fx[key])]
    if failures:
        print(f"{len(failures)} check(s) failed", file=sys.stderr)
        return 1
    print("regression suite passed")
    return 0


# ---------------------------------------------------------------- parser


def _command_line(args) -> list[str]:
    """Command line with the --out destination stripped, so artifact bytes
    do not depend on where they are written."""
    raw = list(args._raw_argv)
    out = []
    skip = False
    for token in raw:
        if skip:
            skip = False
            continue
        if token == "--out":
            skip = True
            continue
        if token.startswith("--out="):
            continue
        out.append(token)
    return out


def _at_least(minimum: int):
    """argparse type: an integer >= minimum, else a usage error."""

    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrweight",
        description="Weight distributions of binary quadratic residue codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    long_run_help = "lift the budget of 10^8 lanes (census patterns or subcode words) per count"

    def add(name: str, func, help_: str):
        sp = sub.add_parser(name, help=help_)
        sp.set_defaults(func=func)
        return sp

    sp = add("construct", cmd_construct, "build the QR code family of a prime")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--out", default=None)
    sp.add_argument("--format", choices=("json", "table"), default="json")

    sp = add("group", cmd_group, "group order, factorization and generators")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--format", choices=("json", "table"), default="table")

    sp = add("congruence", cmd_congruence, "per-weight congruence constraints")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--weights", required=True, help="range a..b (even weights used)")
    sp.add_argument("--long-run", action="store_true", help=long_run_help)
    sp.add_argument("--out", default=None)

    sp = add("shard-plan", cmd_shard_plan, "print the census work units: index matrix size start_rank count")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--t", type=_at_least(0), required=True)
    sp.add_argument("--block-size", type=int, default=census_mod.DEFAULT_BLOCK_SIZE)

    sp = add("census", cmd_census, "partial weight census by information patterns")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--t", type=_at_least(0), required=True, help="max information-pattern size")
    sp.add_argument("--workers", type=_at_least(1), default=1)
    sp.add_argument("--block-size", type=int, default=census_mod.DEFAULT_BLOCK_SIZE)
    sp.add_argument("--long-run", action="store_true", help=long_run_help)
    sp.add_argument("--shard-index", type=int, default=None, help="compute only this unit of shard-plan")
    sp.add_argument("--out", default=None)

    sp = add("census-merge", cmd_census_merge, "merge census fragments written by census --shard-index")
    sp.add_argument("fragments", nargs="+")
    sp.add_argument("--out", default=None)

    sp = add("solve", cmd_solve, "reconstruct the full distribution")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--census", default=None)
    sp.add_argument("--inject-a", action="append", default=None, metavar="W=COUNT")
    sp.add_argument("--constraint", default=None)
    sp.add_argument("--out", default=None)
    sp.add_argument("--format", choices=("json", "table"), default="json")

    sp = add("verify", cmd_verify, "re-check a stored solution artifact")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--table", required=True)

    sp = add("pipeline", cmd_pipeline, "construct, census, congruence, solve, verify")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--t", type=_at_least(0), required=True)
    sp.add_argument("--workers", type=_at_least(1), default=1)
    sp.add_argument("--block-size", type=int, default=census_mod.DEFAULT_BLOCK_SIZE)
    sp.add_argument("--long-run", action="store_true", help=long_run_help)
    sp.add_argument("--out", default=None)

    sp = add("paper-regression", cmd_paper_regression, "replay the prime-137 derivation")
    sp.add_argument("--long-run", action="store_true", help=long_run_help)
    sp.add_argument("--out", default=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    raw = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(raw)
    except SystemExit as exc:
        code = exc.code
        return 2 if code not in (0, None) else 0
    args._raw_argv = raw
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s", stream=sys.stderr)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader went away (e.g. `| head`): silence the flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (ValueError, FileNotFoundError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except QrWeightError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
