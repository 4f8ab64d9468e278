"""Strongly minimal linear system matrices.

Reduction of linear system quadruples to strongly minimal form by unitary
transformations, diagonal balancing of rectangular pencils, and extraction
of the complete pole/zero/minimal-index structure of the rational transfer
function, cross-validated against an exact-arithmetic oracle.
"""

from .linalg import (
    DEFAULT_TOL,
    RankDecision,
    col_compress,
    matrix_rank,
    rank_revealing,
    row_compress,
)
from .pencil import (
    Pencil,
    Rotation,
    RotationError,
    SingularPencilError,
    SystemQuadruple,
    choose_rotation,
    constant_pencil,
    default_lambda_scale,
    generalized_eigenvalues,
    hstack_pencils,
    lambda_scale,
    mobius_rotate,
    normal_rank,
    quadruple_from_constants,
    state_space_quadruple,
    system_pencil,
    transfer_eval,
    validate_regular,
    vstack_pencils,
    zero_pencil,
)
from .staircase import (
    KroneckerReport,
    StaircaseError,
    StaircaseForm,
    infinity_mcmillan_indices,
    kronecker_structure,
    separate_regular_right,
    split_infinite,
)
from .minreal import (
    MinimalityReport,
    ReductionError,
    ReductionRecord,
    is_strongly_irreducible,
    is_strongly_minimal,
    reduce_controllable,
    reduce_observable,
    strongly_minimal_reduce,
)
from .scaling import (
    BalanceProblem,
    ScalingDivergence,
    ScalingResult,
    apply_scaling,
    balance_pencil,
    build_M,
    build_M_alpha,
    quantize_pow2,
    scale_approach1,
    scale_approach2,
    sinkhorn_knopp,
)
from .mcmillan import (
    McMillanStructure,
    NotStronglyMinimal,
    degree_sum_check,
    mcmillan_degree,
    rational_structure,
)

__version__ = "0.1.0"
