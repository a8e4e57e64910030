"""Loader for the published reference values shipped with the package.

The fixture file keeps cited data cleanly separated from anything this
package computes; every section carries a source label. Weight-indexed maps
are parsed back to int keys.
"""

from __future__ import annotations

import json
from importlib import resources


def _intkeys(d: dict) -> dict[int, int]:
    return {int(k): int(v) for k, v in d.items()}


def load_p137() -> dict:
    """Published reference values for the prime-137 run."""
    raw = json.loads(resources.files("qrweight").joinpath("data/p137.json").read_text(encoding="utf-8"))
    return {
        "p": raw["p"],
        "group_order": raw["group_order"],
        "minimum_distance_extended": raw["minimum_distance_extended"],
        "subgroup_dims": {k: int(v) for k, v in raw["subgroup_table"]["dims"].items()},
        "subgroup_counts": {
            label: _intkeys(row) for label, row in raw["subgroup_table"]["counts"].items()
        },
        "sylow2": _intkeys(raw["sylow2_combination"]["values"]),
        "crt_modulus": raw["crt_residues"]["modulus"],
        "crt_residues": _intkeys(raw["crt_residues"]["values"]),
        "partial_census": _intkeys(raw["partial_census"]["values"]),
        "orbit_quotients": _intkeys(raw["orbit_quotients"]["values"]),
        "top_coefficient": raw["top_coefficient"]["value"],
        "accepted_a34": raw["top_coefficient"]["accepted_a34"],
        "rejected_a34": raw["top_coefficient"]["rejected_a34"],
        "distribution_augmented": _intkeys(raw["distribution"]["augmented"]),
        "distribution_extended": _intkeys(raw["distribution"]["extended"]),
    }
