"""Backward value estimation with sampled transition rows.

The estimator samples only Q: its row source keeps the sampler's
instance, from which the push loop reads the cost, the discount and the
supergraph. It explores the chain in reverse
from high-cost states: each push selects a maximal-residual state,
estimates the rows of its supergraph in-neighbors the first time they are
encountered (n draws per state, all counted), and redistributes residual
mass through those estimated rows. Total sampling cost is n times the
number of encountered states, read off the sampler's tally.

For auditing, a traced run can be replayed against a completion of its
final row estimates, with true rows or fresh offline draws outside the
encountered set; both completions satisfy an exact per-iteration
fixed-point identity. The completions and that check are dense oracles in
:mod:`epelab.oracles`.
"""

from __future__ import annotations

import math

from .errors import ContractViolation
from .model import CountingSampler, EstimateReport
from .push import CachedEmpiricalRows, PushOutcome, run_push_loop


def run_backward(
    sampler: CountingSampler,
    epsilon: float,
    n: int,
    trace: bool = False,
    max_rows: int | None = None,
) -> PushOutcome:
    """Push loop with sample-once empirical rows and the tie stream
    ``sampler.derive("tie_break")``; returns the full outcome, whose draws
    the caller reads off ``sampler.draw_count``."""
    tie_rng = sampler.derive("tie_break")
    return run_push_loop(CachedEmpiricalRows(sampler, n), epsilon, tie_rng, trace=trace, max_rows=max_rows)


def backward_epe(
    sampler: CountingSampler,
    epsilon: float,
    n: int,
    trace: bool = False,
) -> EstimateReport:
    """Estimate the value function by backward pushes with counted sampling.

    Terminates when no residual exceeds epsilon. Reports
    samples_used = n * |encountered| and the encountered-set size.
    """
    before = sampler.draw_count
    outcome = run_backward(sampler, epsilon, n, trace=trace)
    return outcome.report(sampler.draw_count - before, len(outcome.rows))


def check_formula_inputs(S: int, alpha: float | None = None, **positive: float) -> None:
    """Refuse the inputs of a sample-size formula unless every one of
    ``positive`` is finite and > 0, S is finite and >= 1, and alpha, when
    given, lies in (0,1).

    Each test is written as the condition to pass, so a NaN, which fails
    every comparison, is refused with the rest.
    """
    got = {**positive, "S": S}
    need = f"need {', '.join(positive)} > 0 and finite, S >= 1"
    ok = all(0.0 < value < math.inf for value in positive.values()) and 1 <= S < math.inf
    if alpha is not None:
        got["alpha"] = alpha
        need += ", alpha in (0,1)"
        ok = ok and 0.0 < alpha < 1.0
    if not ok:
        raise ContractViolation(f"{need}; got " + ", ".join(f"{name}={value}" for name, value in got.items()))


def sample_size_backward(epsilon: float, delta: float, alpha: float, c_inf: float, S: int) -> int:
    """Per-state draw count sufficient for a 2*epsilon sup-norm guarantee
    with failure probability delta."""
    check_formula_inputs(S, alpha, epsilon=epsilon, delta=delta, c_inf=c_inf)
    # Horizon factor; clamps to 1 when epsilon >= 4*c_inf makes the log nonpositive.
    horizon = max(1, math.ceil(math.log(4.0 * c_inf / epsilon) / (1.0 - alpha)))
    value = (2.0 * c_inf**2 * alpha**2 / (epsilon**2 * (1.0 - alpha) ** 2)) * math.log(
        (2.0 * S / delta) * horizon
    )
    return max(1, math.ceil(value))
