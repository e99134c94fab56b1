"""sobolevlab: finite-section numerics for Sobolev moment-matrix pencils.

The package builds Hermitian moment matrices from planar measures,
assembles the Gram matrices of the induced Sobolev inner products, and
decides boundedness criteria (point evaluations, Wirtinger inequalities,
dominance, comparability, multiplication-operator norms) on sections of
controlled size, with deterministic JSON/CSV reporting.
"""

from .criteria import (
    CenterNotBoundedEvaluation,
    CriterionReport,
    bpe_decide,
    bpe_weighted_circles_report,
    comparability_bounds,
    dominance_check,
    eigen_limit_report,
    gamma_index,
    gamma_sequence,
    gamma_via_kernel,
    sobolev_domination_bound,
    toeplitz_rigidity,
    weight_grid_extremes,
    wirtinger_psd_check,
)
from .measures import (
    Atomic,
    CircleLebesgue,
    MeasureFormatError,
    MeasureSum,
    WeightedCircle,
    from_json,
    moment,
    moment_quadrature,
    moment_section,
    to_json,
)
from .momentmatrix import (
    MomentMatrix,
    delete_first,
    derivative_conjugate,
    factor,
    is_toeplitz,
    of_measure,
    section,
    toeplitz_rule,
    zero_matrix,
)
from .numkernel import (
    ConvergenceFailure,
    HermEig,
    NotPositiveDefinite,
    cholesky,
    companion_roots,
    gen_eig_definite,
    herm_eig,
)
from .sobolev import (
    NormSequence,
    SobolevOPs,
    SobolevPencil,
    gram_section,
    mult_op_norm,
    norm_sequence,
    orthonormal_polys,
    pencil_of_measures,
    plateau,
    sobolev_zeros,
)

__version__ = "0.1.0"
