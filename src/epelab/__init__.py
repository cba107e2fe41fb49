"""Policy-evaluation lab: backward, bidirectional, forward, and baseline
estimators of a Markov chain's discounted value function under a
draw-counting sampling model, plus the experiment harness that measures
their sample complexity."""

from .backward import backward_epe
from .baselines import approx_contributions, backward_epe_alternative, plug_in_estimate
from .bidirectional import BidirectionalConfig, bidirectional_epe, geometric_length
from .errors import ContractViolation, GenerationError, IterationLimitExceeded
from .forward import ForwardConfig, forward_epe
from .guarantees import sample_size_backward, sample_size_backward_bd, sample_size_forward, sample_size_forward_bd
from .harness import (
    AlgorithmSpec,
    ExperimentConfig,
    TrialRecord,
    bound_report,
    fig1_config,
    fig2_config,
    headline_config,
    read_csv,
    run_experiment,
    summarize,
    write_csv,
)
from .instances import EnsembleSpec, density_for_case, generate_binary_cost, generate_instance
from .model import (
    CountingSampler,
    EstimateReport,
    ProblemInstance,
    Supergraph,
    Violation,
    exact_value,
    exact_value_power_series,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    save_instance,
    validate_instance,
)
from .oracles import (
    ErrorProcessSample,
    build_q_over,
    build_q_under,
    discounted_occupancy,
    error_process,
    replay_invariant,
    value_function,
)
from .push import PushRecord, PushTrace

__all__ = [
    "AlgorithmSpec",
    "BidirectionalConfig",
    "ContractViolation",
    "CountingSampler",
    "EnsembleSpec",
    "ErrorProcessSample",
    "EstimateReport",
    "ExperimentConfig",
    "ForwardConfig",
    "GenerationError",
    "IterationLimitExceeded",
    "ProblemInstance",
    "PushRecord",
    "PushTrace",
    "Supergraph",
    "TrialRecord",
    "Violation",
    "approx_contributions",
    "backward_epe",
    "backward_epe_alternative",
    "bidirectional_epe",
    "bound_report",
    "build_q_over",
    "build_q_under",
    "density_for_case",
    "discounted_occupancy",
    "error_process",
    "exact_value",
    "exact_value_power_series",
    "fig1_config",
    "fig2_config",
    "forward_epe",
    "generate_binary_cost",
    "generate_instance",
    "geometric_length",
    "headline_config",
    "instance_from_dict",
    "instance_to_dict",
    "load_instance",
    "plug_in_estimate",
    "read_csv",
    "replay_invariant",
    "run_experiment",
    "sample_size_backward",
    "sample_size_backward_bd",
    "sample_size_forward",
    "sample_size_forward_bd",
    "save_instance",
    "summarize",
    "validate_instance",
    "value_function",
    "write_csv",
]
