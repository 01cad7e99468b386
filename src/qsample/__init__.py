"""Sampling-strategy error probabilities, quantum projection distances,
min-entropy accounting, and desk-scale OT/QKD simulations.

Each layer module loads on first use.  ``import qsample`` registers
``draws``, ``sampling``, ``quantum``, ``qsampling``, ``entropy``,
``protocols`` and ``verify`` as lazy modules (``importlib.util.LazyLoader``)
and runs none of them; the first attribute read from a layer runs it, and the
layers it imports.  A public name such as ``qsample.eps_class_exact`` is read
from the module that defines it, through ``_EXPORTS``.

Before Python 3.12.3 a lazy module's first load is not thread-safe: a program
that first uses qsample from several threads at once reads a name from each
layer it needs (``from qsample.protocols import simulate_qkd``) before it
starts them; ``import qsample.protocols`` alone does not load the layer.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# each layer's names that qsample re-exports; a subset of the layer's __all__
_EXPORTS = {
    "sampling": (
        "BOUND_KINDS",
        "STRATEGY_KINDS",
        "BudgetExceededError",
        "ErrorEstimate",
        "SamplingStrategy",
        "SubsetIndex",
        "SymbolString",
        "analytic_bound",
        "complement",
        "custom_strategy",
        "deviation",
        "eps_class_exact",
        "eps_class_mc",
        "error_estimate_to_json",
        "estimate",
        "failure_probability",
        "in_accept_set",
        "make_strategy",
        "mc_halfwidth",
        "pair_position",
        "rel_weight",
        "resolve_budget",
        "restrict",
    ),
    "quantum": (
        "BasisSpec",
        "CqState",
        "DensityMatrix",
        "MeasurementBranch",
        "PureState",
        "apply_cnot_pairs",
        "apply_unitary",
        "cq_distance",
        "make_epr_pairs",
        "measure",
        "random_pure_state",
        "sample_measurement",
        "state_from_json",
        "state_to_json",
        "trace_distance",
    ),
    "qsampling": (
        "NotSymmetricError",
        "PermutationGroup",
        "SubspaceWeight",
        "accept_set",
        "check_sqrt_bound",
        "ideal_distance",
        "is_g_symmetric",
        "pair_symmetry_group",
        "project_onto_accept",
        "symmetric_group",
        "symmetric_ideal_distance",
        "symmetric_worst_state",
    ),
    "entropy": (
        "EntropyCertificate",
        "HashFamily",
        "binary_entropy",
        "check_certificate",
        "classical_env_min_entropy",
        "hash_eval",
        "lemma2_operator_check",
        "pa_exact_check",
        "pad_input",
    ),
    "protocols": (
        "AdversaryModel",
        "EccModel",
        "LinearCode",
        "QkdParams",
        "QotParams",
        "SecurityReport",
        "asymptotic_qkd_rate",
        "make_linear_code",
        "qkd_bound",
        "qkd_key_length",
        "qkd_max_len",
        "qkd_rate_threshold",
        "qkd_sampling_view",
        "qot_bound",
        "qot_bound_optimize",
        "qot_catch_probability",
        "rate_curve_csv",
        "security_report_to_json",
        "simulate_qkd",
        "simulate_qot",
        "transcript_to_json",
    ),
    "verify": (
        "lemma2_batch",
        "pa_batch",
        "run_verify",
    ),
}
_HOME = {name: layer for layer, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def _lazy(layer: str):
    """Register ``qsample.<layer>`` in ``sys.modules`` without running it."""
    spec = importlib.util.find_spec(f"{__name__}.{layer}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _layer in ("draws", *_EXPORTS):  # draws re-exports nothing but loads on first use too
    globals()[_layer] = _lazy(_layer)
del _layer


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)


def __dir__():
    return sorted({*globals(), *_HOME})
