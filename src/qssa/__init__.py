"""Numerical checks for entropy inequalities of measured quantum states."""

from .linalg import (
    DensityMatrix,
    hermitian_eig,
    kron,
    kron_state,
    matrix_log,
    partial_trace,
    sqrtm_psd,
)
from .entropy import (
    classical_quantum_entropy,
    mutual_information,
    relative_entropy,
    shannon,
    von_neumann,
)
from .measurement import (
    KrausSet,
    Povm,
    cpt_phi,
    povm_to_kraus,
)
from .randgen import (
    random_cq_state,
    random_density,
    random_kraus,
    random_povm,
    random_unitary,
    rng_for,
)
from .checks import (
    check_classical_mutual_info,
    check_concave_map,
    check_convexity_cl_minus_q,
    check_cpt_monotonicity,
    check_cq_chain,
    check_cqq,
    check_gibbs_variational,
    check_holevo,
    check_improved_subadd,
    check_sandwich,
    check_ssa,
    check_stronger_ssa,
    counterexample_two_sided,
)
from .report import InequalityReport
from .wehrl import (
    BlochGrid,
    check_wehrl_convexity,
    check_wehrl_dominates,
    check_wehrl_mutual_info,
    make_grid,
    resolution_residual,
    wehrl_entropy,
    wehrl_min_scan,
)

__version__ = "0.1.0"
