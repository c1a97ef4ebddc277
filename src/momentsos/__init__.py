"""Moment-SOS hierarchies for polynomial optimization and moment problems.

The package is organized bottom-up:

* polynomials: sparse multivariate polynomials and the shared monomial order
* moments: truncated moment sequences, moment/localizing matrices
* sdp: a self-contained primal-dual interior-point SDP solver
* symmetry: the signed variable permutations a problem is invariant under
* relaxations: problem models and compilers from problems to SDPs
* certificates: flat truncation, atom extraction, local optimality checks
* hierarchy: the order sweep driving relaxation + certification
* cli: command-line front end over JSON problem files
"""

from .polynomials import MonomialBasis, Polynomial, basis_size, monomial_basis
from .moments import (
    AtomicMeasure,
    Tms,
    localizing_matrix,
    localizing_vector,
    moment_matrix,
    pair,
    tms_from_atoms,
)
from .sdp import (
    PsdBlock,
    SdpProblem,
    SdpSolution,
    SdpStatus,
    compute_residuals,
    read_sparse_sdp,
    solve_sdp,
    write_sparse_sdp,
)
from .relaxations import (
    CompiledRelaxation,
    GmpProblem,
    PopProblem,
    SemialgebraicSet,
    SosCertificate,
    Variant,
    build_subproblem,
    compile_relaxation,
    constraint_half_degree,
    denominator_relaxation,
    homogenize_gmp,
    homogenize_set,
    homogenized_relaxation,
    minimum_order,
    moment_relaxation,
    problem_from_json,
    problem_to_json,
    variant_minimum_order,
)
from .certificates import (
    ExtractionError,
    FlatTruncation,
    MomentCertificate,
    OptimalityReport,
    VerificationReport,
    certify_relaxation,
    check_optimality,
    dehomogenize_atoms,
    extract_atoms,
    flat_truncation,
    numerical_rank,
    verify_atoms,
)
from .hierarchy import HierarchyResult, OrderRecord, solve_hierarchy

__version__ = "0.1.0"
