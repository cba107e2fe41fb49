"""Reference push estimators used to calibrate the sampled one.

``approx_contributions`` runs the push loop against the instance's true
transition matrix, so it draws nothing and its fixed-point identity
v_hat_k(s) + mu_s r_k = v(s) holds exactly at every iteration.

``backward_epe_alternative`` re-estimates the relevant column with fresh
draws at every iteration instead of caching rows. That destroys the
replayable fixed-point identity but makes the error process
e_k(s) = v_hat_k(s) + mu_s r_k - v(s) a zero-mean martingale, so the
final estimate is unbiased in the fixed-point sense; the price is that
repeat visits keep drawing samples. The error process itself is a dense
oracle, :func:`~epelab.oracles.error_process`.

Both push estimators report through :meth:`~epelab.push.PushOutcome.report`,
as ``backward_epe`` does, with diagnostics ``stop_reason`` and
``final_residual_max``.

``plug_in_estimate`` samples every row offline and computes the value of
the resulting empirical matrix with the solver of the truth.
"""

from __future__ import annotations

import numpy as np

from .model import CountingSampler, EstimateReport, ProblemInstance, TransitionTable, certified_value, check_count, csr_rows
from .push import ExactRows, FreshEmpiricalRows, run_push_loop


def approx_contributions(
    instance: ProblemInstance,
    epsilon: float,
    rng: np.random.Generator,
    trace: bool = False,
) -> EstimateReport:
    """Known-matrix push estimator on the instance's Q, cost and discount;
    sup-norm error at most epsilon, zero draws."""
    return run_push_loop(ExactRows(instance), epsilon, rng, trace=trace).report(0)


def backward_epe_alternative(
    sampler: CountingSampler,
    epsilon: float,
    n: int,
    trace: bool = False,
) -> EstimateReport:
    """Resampling push estimator: n fresh draws per in-neighbor per iteration.

    samples_used is n times the total in-degree of the pushed sequence, so
    revisited neighborhoods keep costing draws. Ties read the stream
    ``sampler.derive("tie_break")``.
    """
    before = sampler.draw_count
    outcome = run_push_loop(FreshEmpiricalRows(sampler, n), epsilon, sampler.derive("tie_break"), trace=trace)
    return outcome.report(sampler.draw_count - before)


def plug_in_estimate(sampler: CountingSampler, n: int) -> EstimateReport:
    """Value function of a fully offline empirical matrix (n draws per row,
    all counted: samples_used = n * S); n is a count, kept as an int."""
    n = check_count("per-state sample count", n)
    instance = sampler.instance
    before = sampler.draw_count
    rows = {s: sampler.sample_empirical_row(s, n) for s in range(instance.S)}
    table = TransitionTable.from_rows(instance.S, rows)
    estimate = certified_value(csr_rows(table.indptr), table.indices, table.probs, instance.cost, instance.alpha)
    return EstimateReport(estimate=estimate, samples_used=sampler.draw_count - before, iterations=n)
