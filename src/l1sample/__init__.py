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
    poly_wiener,
    random_unit_function,
    sobolev_mixed,
    wiener_iso,
    wiener_mixed,
)
from .estimator import (
    FunctionRecovery,
    NotFittedError,
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
    best_n_term_l2,
    geometric_decay,
    pietsch_diag_an,
    power_decay,
    sigma_s_l1,
    stechkin_bound,
)
from .recovery import (
    RecoveryConfig,
    RecoveryResult,
    build_matrix,
    choose_eta,
    l2_error,
    recover,
    sample_count,
    search_set,
)
from .systems import (
    IndexSet,
    SamplePlan,
    System,
    basis_matrix,
    chebyshev_system,
    draw_points,
    fourier_system,
    gram_matrix,
    legendre_preconditioned_system,
    legendre_raw_system,
    make_index_set,
)
from .vallee_poussin import (
    DlvpSpec,
    apply_quasi_projection,
    chebyshev_lift,
    dlvp_coeff,
    kernel_l1_norm,
)

__version__ = "0.1.0"
