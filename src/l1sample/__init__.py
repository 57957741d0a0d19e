"""Recovery of multivariate functions from point samples by l1 minimization
over bounded orthonormal systems."""

from .bpdn import (
    BpdnProblem,
    BpdnSolution,
    bpdn_orthonormal_oracle,
    soft_threshold_complex,
    solve_bpdn,
    solve_bpdn_batch,
)
from .classes import (
    CoefficientExpansion,
    FunctionClass,
    analytic_best_term_bound,
    analytic_tail_bound,
    class_norm,
    default_system,
    evaluate_function,
    index_weight,
    poly_wiener,
    quadrature_l2_norm,
    random_unit_function,
    sobolev_mixed,
    truncation_error_bound,
    wiener_iso,
    wiener_mixed,
)
from .estimator import (
    FunctionRecovery,
    NotFittedError,
    check_sample_points,
    check_sample_values,
)
from .harness import (
    ExperimentConfig,
    RateReport,
    RateRow,
    RateTransferResult,
    box_parameter,
    fit_slope,
    m_rule_exponent,
    predicted_rate,
    rate_transfer,
    report_text,
    run_phase_experiment,
    run_rate_experiment,
)
from .oracles import (
    DiagonalSpec,
    ProductBoundResult,
    best_n_term_l2,
    best_n_term_weighted,
    geometric_decay,
    pietsch_diag_an,
    power_decay,
    product_bound_check,
    sigma_s_l1,
    stechkin_bound,
)
from .recovery import (
    RecoveryConfig,
    RecoveryResult,
    build_matrix,
    choose_eta,
    l2_error,
    legendre_truncation,
    recover,
    sample_count,
    search_set,
)
from .systems import (
    IndexSet,
    SamplePlan,
    System,
    UnboundedSystemError,
    basis_matrix,
    chebyshev_system,
    draw_points,
    fourier_system,
    gram_matrix,
    legendre_preconditioned_system,
    legendre_raw_system,
    make_index_set,
    uniform_bound,
)
from .vallee_poussin import (
    DlvpSpec,
    apply_quasi_projection,
    chebyshev_lift,
    chebyshev_unlift,
    dlvp_coeff,
    kernel_l1_norm,
)

__version__ = "0.1.0"
