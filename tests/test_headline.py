"""The paper's headline at tier-1 scale: with the cost on a few states,
backward's draws grow like log S; with cost on a fixed share of states,
they grow like S. Forward's draws are S * m * (T - 1) by construction, so
it runs only for coverage.

The configs come from ``harness.headline_config``: binary costs, p 10,
alpha 0.5, epsilon 0.15, delta 0.1, and H = 5 (sparse) or H = S // 8
(dense). The schedules are the guarantee's own sample sizes, written as
expressions in S.

The trial counts and master seed were fixed from seed runs before the
asserts were written. Over master seeds 1..20, the sparse slope at 40
trials spread over 0.073..0.141 and the dense slope at 5 trials over
1.080..1.097; every trial of every cell was within 2 * epsilon.
"""

import numpy as np
import pytest

from epelab import (
    ContractViolation,
    bound_report,
    headline_config,
    run_experiment,
    sample_size_backward,
    sample_size_forward,
    summarize,
)
from epelab.harness import count_param

EPSILON, DELTA, ALPHA, C_INF = 0.15, 0.1, 0.5, 1.0
SIZES = (200, 800, 3200)
MASTER_SEED = 7

# (support, algorithms, trials, bounds on backward's log-log slope of mean draws)
RUNS = [
    ("sparse", ("backward",), 40, (-np.inf, 0.15)),
    ("dense", ("backward", "forward"), 5, (0.8, np.inf)),
]


@pytest.mark.parametrize("S", [200, 800, 3200, 12800, 100000, 1000000])
def test_schedules_are_the_guarantee_sample_sizes(S):
    cfg = headline_config("sparse", (S,), 1)
    (ensemble,) = cfg.ensembles
    assert (ensemble.p, ensemble.alpha, ensemble.cost_model, ensemble.H) == (10.0, ALPHA, "binary", 5)
    assert headline_config("dense", (S,), 1).ensembles[0].H == S // 8
    backward, forward = (spec.params for spec in cfg.algorithms)
    assert backward["epsilon"] == EPSILON
    assert count_param(backward["n"], S) == sample_size_backward(EPSILON, DELTA, ALPHA, C_INF, S)
    T, m = sample_size_forward(EPSILON, DELTA, ALPHA, C_INF, S)
    assert (count_param(forward["T"], S), count_param(forward["m"], S)) == (T, m)


def test_headline_config_refuses_other_supports_and_algorithms():
    with pytest.raises(ContractViolation, match="^support must be 'sparse' or 'dense', got 'mixed'$"):
        headline_config("mixed", SIZES, 1)
    with pytest.raises(ContractViolation, match="^the headline runs backward and forward only, got 'bidirectional'$"):
        headline_config("sparse", SIZES, 1, ("backward", "bidirectional"))


@pytest.mark.parametrize("support,algorithms,trials,slope_range", RUNS, ids=[run[0] for run in RUNS])
def test_backward_draws_scale_with_where_the_cost_sits(support, algorithms, trials, slope_range):
    cfg = headline_config(support, SIZES, trials, algorithms, master_seed=MASTER_SEED)
    records = run_experiment(cfg)

    assert [row["passed"] for row in bound_report(records, cfg)] == [True] * len(SIZES)

    slopes = {row["algorithm"]: row["loglog_slope"] for row in summarize(records)}
    low, high = slope_range
    assert low <= slopes["backward"] <= high

    # Coverage: the share of trials with sup error within 2 * epsilon.
    cells = {}
    for rec in records:
        cells.setdefault((rec.S, rec.algorithm), []).append(rec.linf_error <= 2 * EPSILON)
    assert len(cells) == len(SIZES) * len(algorithms)
    for cell, covered in cells.items():
        assert np.mean(covered) >= 1.0 - DELTA, cell
