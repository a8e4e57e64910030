"""Weight distributions of binary quadratic residue codes.

Combines three exact techniques: modular congruences on the coefficients
from the code's Moebius-map automorphisms, partial codeword enumeration over
disjoint information sets driven by the revolving-door combination order
(shardable and mergeable), and triangular polynomial reconstruction that
pins the final coefficient by a sign argument instead of enumeration.
"""

__version__ = "0.1.0"

from .bitlinalg import (
    BitMatrix,
    disjoint_information_systematizations,
    dual_basis,
    hull_dimension,
    intersect_rowspaces,
    rank,
    rref,
)
from .census import WeightCensus, merge_censuses, run_census
from .congruence import (
    CongruenceConstraint,
    InvariantSubcode,
    Reject,
    assemble_constraint,
    check_candidate,
    compute_bundle,
    invariant_subcode,
    subcode_weight_counts,
    sylow2_count,
)
from .gleason import (
    BigPoly,
    GaussianInt,
    GleasonSolution,
    augmented_enumerator,
    derivative_at_i,
    gleason_basis,
    hull_sign_candidates,
    macwilliams_check,
    macwilliams_transform,
    reconstruct,
    resolve_top_coefficient,
    solve_coefficients,
    solve_distribution,
)
from .psl2 import (
    CoordPermutation,
    MoebiusMap,
    SylowPlan,
    find_sylow_plan,
    group_order,
    to_permutation,
)
from .qrcodes import (
    Gf2Poly,
    QrCodeFamily,
    build_family,
    cyclic_generator_matrix,
    poly_gcd,
    quadratic_residues,
)

__all__ = [
    "__version__",
    "BigPoly",
    "BitMatrix",
    "CongruenceConstraint",
    "CoordPermutation",
    "GaussianInt",
    "Gf2Poly",
    "GleasonSolution",
    "InvariantSubcode",
    "MoebiusMap",
    "QrCodeFamily",
    "Reject",
    "SylowPlan",
    "WeightCensus",
    "assemble_constraint",
    "augmented_enumerator",
    "build_family",
    "check_candidate",
    "compute_bundle",
    "cyclic_generator_matrix",
    "derivative_at_i",
    "disjoint_information_systematizations",
    "dual_basis",
    "find_sylow_plan",
    "gleason_basis",
    "group_order",
    "hull_dimension",
    "hull_sign_candidates",
    "intersect_rowspaces",
    "invariant_subcode",
    "macwilliams_check",
    "macwilliams_transform",
    "merge_censuses",
    "poly_gcd",
    "quadratic_residues",
    "rank",
    "reconstruct",
    "resolve_top_coefficient",
    "rref",
    "run_census",
    "solve_coefficients",
    "solve_distribution",
    "subcode_weight_counts",
    "sylow2_count",
    "to_permutation",
]
