"""Sampling-strategy error probabilities, quantum projection distances,
min-entropy accounting, and desk-scale OT/QKD simulations."""

from .sampling import (
    BOUND_KINDS,
    STRATEGY_KINDS,
    BudgetExceededError,
    ErrorEstimate,
    SamplingStrategy,
    SubsetIndex,
    SymbolString,
    analytic_bound,
    complement,
    custom_strategy,
    deviation,
    eps_class_exact,
    eps_class_mc,
    error_estimate_to_json,
    estimate,
    failure_probability,
    in_accept_set,
    make_strategy,
    mc_halfwidth,
    pair_position,
    rel_weight,
    resolve_budget,
    restrict,
)

from .quantum import (
    BasisSpec,
    CqState,
    DensityMatrix,
    MeasurementBranch,
    PureState,
    apply_cnot_pairs,
    apply_unitary,
    cq_distance,
    make_epr_pairs,
    measure,
    random_pure_state,
    sample_measurement,
    state_from_json,
    state_to_json,
    trace_distance,
)
from .qsampling import (
    NotSymmetricError,
    PermutationGroup,
    SubspaceWeight,
    accept_set,
    check_sqrt_bound,
    ideal_distance,
    is_g_symmetric,
    pair_symmetry_group,
    project_onto_accept,
    symmetric_group,
    symmetric_ideal_distance,
    symmetric_worst_state,
)
from .entropy import (
    EntropyCertificate,
    HashFamily,
    binary_entropy,
    check_certificate,
    classical_env_min_entropy,
    hash_eval,
    lemma2_operator_check,
    pa_exact_check,
    pad_input,
)

from .protocols import (
    AdversaryModel,
    EccModel,
    LinearCode,
    QkdParams,
    QotParams,
    SecurityReport,
    asymptotic_qkd_rate,
    make_linear_code,
    qkd_bound,
    qkd_key_length,
    qkd_max_len,
    qkd_rate_threshold,
    qkd_sampling_view,
    qot_bound,
    qot_bound_optimize,
    qot_catch_probability,
    rate_curve_csv,
    security_report_to_json,
    simulate_qkd,
    simulate_qot,
    transcript_to_json,
)

from .verify import (
    lemma2_batch,
    pa_batch,
    run_verify,
)

__version__ = "0.1.0"

