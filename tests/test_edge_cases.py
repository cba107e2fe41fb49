"""Every algorithm ends, in bounded time, on the edge cases of a valid instance.

Seeded small chains with absorbing states, cost only on states no other
state reaches, point-mass rows, alpha near 0 and near 1, and S in
{1, 2, 3}. Each of the six algorithms must return a report whose
``samples_used`` equals the sampler's tally, or raise one of the
package's typed errors, within a per-case wall-clock bound.
"""

import time

import numpy as np
import pytest

from epelab import errors
from epelab.harness import AlgorithmSpec, algorithm_run
from epelab.model import CountingSampler, exact_value, validate_instance
from conftest import instance_from

ALGORITHMS = (
    AlgorithmSpec("forward", {"T": 6, "m": 3}),
    AlgorithmSpec("backward", {"epsilon": 0.05, "n": 4}),
    AlgorithmSpec("bidirectional", {"epsilon": 0.1, "n_B": 4, "n_F": 3}),
    AlgorithmSpec("bidirectional", {"n_B": 4, "n_F": 3, "termination_mode": "dynamic"}),
    AlgorithmSpec("approx_contributions", {"epsilon": 0.05}),
    AlgorithmSpec("backward_alternative", {"epsilon": 0.05, "n": 3}),
    AlgorithmSpec("plug_in", {"n": 4}),
)
CASE_SECONDS = 20.0
TYPED_ERRORS = (errors.ContractViolation, errors.IterationLimitExceeded, errors.GenerationError)


def _random_rows(rng, S, columns):
    """S random rows supported on ``columns``, each summing to one."""
    Q = np.zeros((S, S))
    Q[:, columns] = rng.random((S, len(columns))) + 0.05
    return Q / Q.sum(axis=1, keepdims=True)


def edge_chain(shape, S, rng):
    if shape == "absorbing":
        # The last state absorbs; the others move anywhere.
        Q = _random_rows(rng, S, list(range(S)))
        Q[S - 1] = 0.0
        Q[S - 1, S - 1] = 1.0
        cost = rng.random(S)
    elif shape == "unreachable_cost":
        # Only state 0 has cost, and no state moves into it (S > 1).
        Q = _random_rows(rng, S, list(range(1, S)) or [0])
        cost = np.zeros(S)
        cost[0] = 1.0
    elif shape == "point_mass":
        Q = np.zeros((S, S))
        Q[np.arange(S), rng.integers(0, S, S)] = 1.0
        cost = rng.random(S)
    else:
        Q = _random_rows(rng, S, list(range(S)))
        cost = rng.random(S) * (rng.random(S) < 0.7)
    return Q, cost


SHAPES = ("absorbing", "unreachable_cost", "point_mass", "random")
CASES = [(shape, S, alpha) for S in (1, 2, 3) for alpha in (1e-3, 0.999) for shape in SHAPES]


@pytest.mark.parametrize("shape,S,alpha", CASES, ids=[f"{sh}-S{S}-a{a}" for sh, S, a in CASES])
def test_every_algorithm_ends_typed_and_accounted(shape, S, alpha):
    rng = np.random.default_rng((7, CASES.index((shape, S, alpha))))
    Q, cost = edge_chain(shape, S, rng)
    inst = instance_from(alpha, cost, Q)
    assert validate_instance(inst) == []
    truth = exact_value(inst)
    started = time.perf_counter()
    for k, spec in enumerate(ALGORITHMS):
        sampler = CountingSampler(inst, ("edge", shape, S, alpha, k))
        try:
            report = algorithm_run(spec, S)(sampler)
        except TYPED_ERRORS:
            continue
        assert report.samples_used == sampler.draw_count, spec
        assert report.estimate.shape == (S,) and np.all(np.isfinite(report.estimate)), spec
        assert np.all(np.abs(report.estimate - truth) <= 10.0 * max(1.0, float(cost.max()))), spec
    assert time.perf_counter() - started <= CASE_SECONDS
