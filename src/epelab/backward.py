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
