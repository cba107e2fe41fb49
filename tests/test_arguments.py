"""One rule per kind of argument of the Python API.

Counts, numbers (the push threshold among them), discounts and state
indices are each checked by one rule in :mod:`epelab.model`. An argument
that the config reader would refuse in a document (a bool, a value that is
no number, a count with a fractional part) is refused with a
ContractViolation naming it, before anything is drawn; an accepted form
(a numpy int, a whole float) gives the int's result.
"""

import math

import numpy as np
import pytest

from epelab import (
    AlgorithmSpec,
    BidirectionalConfig,
    ContractViolation,
    CountingSampler,
    EnsembleSpec,
    ExperimentConfig,
    ForwardConfig,
    ProblemInstance,
    approx_contributions,
    backward_epe,
    backward_epe_alternative,
    exact_value_power_series,
    forward_epe,
    generate_binary_cost,
    geometric_length,
    plug_in_estimate,
)
from epelab.bidirectional import dynamic_stop_threshold, walk_step_cap
from epelab.harness import eval_param
from epelab.model import certified_value
from conftest import random_instance

INSTANCE = random_instance(S=30, p=4, alpha=0.6, seed="arguments")
COUNT = "per-state sample count"


def config_with_trials(trials):
    ensembles = (EnsembleSpec(S=20, p=4, alpha=0.5),)
    return ExperimentConfig(ensembles, (AlgorithmSpec("plug_in", {"n": 2}),), trials=trials, master_seed=1)


# (argument, the name its refusal gives, a call of the entry point with a value for it)
COUNTS = [
    ("backward_epe.n", COUNT, lambda sampler, v: backward_epe(sampler, 0.2, v)),
    ("backward_epe_alternative.n", COUNT, lambda sampler, v: backward_epe_alternative(sampler, 0.2, v)),
    ("plug_in_estimate.n", COUNT, lambda sampler, v: plug_in_estimate(sampler, v)),
    ("sample_empirical_row.n", COUNT, lambda sampler, v: sampler.sample_empirical_row(3, v)),
    ("sample_empirical_column.n", COUNT, lambda sampler, v: sampler.sample_empirical_column(3, v)),
    ("ForwardConfig.T", "T", lambda sampler, v: ForwardConfig(T=v, m=2)),
    ("ForwardConfig.m", "m", lambda sampler, v: ForwardConfig(T=3, m=v)),
    ("BidirectionalConfig.n_B", "n_B", lambda sampler, v: BidirectionalConfig(0.2, v, 3)),
    ("BidirectionalConfig.n_F", "n_F", lambda sampler, v: BidirectionalConfig(0.2, 3, v)),
    ("ExperimentConfig.trials", "trials", lambda sampler, v: config_with_trials(v)),
    ("exact_value_power_series.T", "T", lambda sampler, v: exact_value_power_series(sampler.instance, v)),
    ("generate_binary_cost.H", "H", lambda sampler, v: generate_binary_cost(5, v, 0)),
]
THRESHOLDS = [
    ("backward_epe", lambda sampler, v: backward_epe(sampler, v, 5)),
    ("backward_epe_alternative", lambda sampler, v: backward_epe_alternative(sampler, v, 5)),
    ("approx_contributions", lambda sampler, v: approx_contributions(sampler.instance, v, sampler.derive("tie"))),
    ("BidirectionalConfig", lambda sampler, v: BidirectionalConfig(v, 3, 3)),
]
STATES = [
    ("sample_next", lambda sampler, v: sampler.sample_next(v)),
    ("sample_next_batch", lambda sampler, v: sampler.sample_next_batch([v])),
    ("sample_next_batch.second", lambda sampler, v: sampler.sample_next_batch([0, v])),
    ("sample_empirical_row", lambda sampler, v: sampler.sample_empirical_row(v, 4)),
    ("sample_empirical_column", lambda sampler, v: sampler.sample_empirical_column(v, 4)),
]
DISCOUNTS = [
    ("EnsembleSpec", lambda v: EnsembleSpec(S=20, p=4, alpha=v)),
    ("geometric_length", lambda v: geometric_length(v, np.array([0.5]))),
    ("walk_step_cap", lambda v: walk_step_cap(v)),
    ("dynamic_stop_threshold", lambda v: dynamic_stop_threshold(30, 5, 5, v)),
    ("certified_value", lambda v: certified_value(*INSTANCE.q_entries(), INSTANCE.cost, v)),
]

REFUSALS = (
    [
        (f"{arg}={value!r}", call, value, f"^{name} must be (a whole number|>= 1), got ")
        for arg, name, call in COUNTS
        for value in (2.5, True, math.nan, math.inf, "3", None, 0, -2.0)
    ]
    + [
        (f"{arg}.epsilon={value!r}", call, value, "termination threshold must be a number|fixed mode needs epsilon")
        for arg, call in THRESHOLDS
        for value in (True, "0.1", None)
    ]
    + [(f"{arg}.state={v!r}", call, v, "^state index ") for arg, call in STATES for v in (2.5, True, "3", 30, -1)]
    # A batch is one-dimensional, as a nested list or as an array.
    + [(f"sample_next_batch.states={v!r}", lambda sampler, v: sampler.sample_next_batch(v), v, "^state index ")
       for v in ([[0, 1]], np.array([[0, 1]]))]
)


@pytest.mark.parametrize("call, value, message", [case[1:] for case in REFUSALS], ids=[case[0] for case in REFUSALS])
def test_an_argument_of_the_wrong_kind_is_refused_before_any_draw(call, value, message):
    sampler, reference = CountingSampler(INSTANCE, 5), CountingSampler(INSTANCE, 5)
    with pytest.raises(ContractViolation, match=message):
        call(sampler, value)
    assert sampler.draw_count == 0
    assert sampler.rng.random() == reference.rng.random()


@pytest.mark.parametrize("arg, call", DISCOUNTS, ids=[arg for arg, _ in DISCOUNTS])
@pytest.mark.parametrize("alpha", [0.0, 1.0, True, "0.5", None, math.nan], ids=repr)
def test_a_discount_outside_the_open_unit_interval_is_refused(arg, call, alpha):
    with pytest.raises(ContractViolation, match=r"^alpha must lie in \(0, 1\), got "):
        call(alpha)


@pytest.mark.parametrize("alpha", ["0.5", None, True])
def test_an_instance_alpha_must_be_a_number(alpha):
    # An alpha outside (0, 1) still builds, for validate_instance to report.
    with pytest.raises(ContractViolation, match="^alpha must be a number, got "):
        ProblemInstance(INSTANCE.S, alpha, INSTANCE.cost, INSTANCE.supergraph, INSTANCE.q_values)


def test_an_int_past_float_range_is_refused_naming_its_field():
    with pytest.raises(ContractViolation, match="^p must be a number in float range, got an int of 1329 bits$"):
        EnsembleSpec(S=20, p=10**400, alpha=0.5)


@pytest.mark.parametrize("params", [None, [("epsilon", 0.2), ("n", 5)]], ids=repr)
def test_algorithm_params_must_be_a_dict(params):
    with pytest.raises(ContractViolation, match="^backward: params must be a dict, got "):
        AlgorithmSpec("backward", params)


@pytest.mark.parametrize("n", [np.int64(20), np.float64(20.0), 20.0, np.uint8(20)], ids=repr)
def test_a_numpy_or_whole_float_count_gives_the_ints_result(n):
    def run(n):
        sampler = CountingSampler(INSTANCE, 9)
        report = backward_epe(sampler, 0.05, n)
        return report.estimate.tobytes(), report.samples_used, type(report.samples_used), sampler.draw_count

    assert run(n) == run(20)
    state, row = CountingSampler(INSTANCE, 2), CountingSampler(INSTANCE, 2)
    assert state.sample_empirical_row(np.int32(3), n) == row.sample_empirical_row(3, 20)
    forward = [forward_epe(CountingSampler(INSTANCE, 3), config) for config in (ForwardConfig(6.0, n), ForwardConfig(6, 20))]
    assert forward[0].estimate.tobytes() == forward[1].estimate.tobytes()
    assert forward[0].samples_used == forward[1].samples_used


def test_accepted_edge_forms_still_run():
    sampler = CountingSampler(INSTANCE, 4)
    assert backward_epe(sampler, math.inf, 5).samples_used == 0
    for empty in ([], np.array([], dtype=float), np.empty(0, dtype=np.int32)):
        out = sampler.sample_next_batch(empty)
        assert out.dtype == np.int64 and out.size == 0
    assert sampler.draw_count == 0
    assert sampler.rng.random() == CountingSampler(INSTANCE, 4).rng.random()
    # A numpy int is a number: eval_param took np.float64 but refused np.int64.
    assert eval_param(np.int64(5), 10) == 5.0 and eval_param(np.float64(0.5), 10) == 0.5
