"""Reference push estimators used to calibrate the sampled one.

``approx_contributions`` runs the push loop against the instance's true
transition matrix, so it draws nothing and its fixed-point identity
v_hat_k(s) + mu_s r_k = v(s) holds exactly at every iteration.

``backward_epe_alternative`` re-estimates the relevant column with fresh
draws at every iteration instead of caching rows. That destroys the
replayable fixed-point identity but makes the error process
e_k(s) = v_hat_k(s) + mu_s r_k - v(s) a zero-mean martingale, so the
final estimate is unbiased in the fixed-point sense; the price is that
repeat visits keep drawing samples.

``plug_in_estimate`` samples every row offline and computes the value of
the resulting empirical matrix with the solver of the truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .model import CountingSampler, EstimateReport, ProblemInstance, TransitionTable, certified_value, csr_rows
from .push import ExactRows, FreshEmpiricalRows, PushTrace, replay_errors, run_push_loop


def approx_contributions(
    instance: ProblemInstance,
    epsilon: float,
    rng: np.random.Generator,
    trace: bool = False,
) -> EstimateReport:
    """Known-matrix push estimator on the instance's Q, cost and discount;
    sup-norm error at most epsilon, zero draws."""
    outcome = run_push_loop(
        cost=instance.cost,
        alpha=instance.alpha,
        epsilon=epsilon,
        row_source=ExactRows(instance),
        tie_rng=rng,
        trace=trace,
    )
    return EstimateReport(
        estimate=outcome.estimate,
        samples_used=0,
        iterations=outcome.iterations,
        encountered_size=None,
        trace=outcome.trace,
        diagnostics={"stop_reason": outcome.stop_reason},
    )


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
    outcome = run_push_loop(
        cost=sampler.instance.cost,
        alpha=sampler.instance.alpha,
        epsilon=epsilon,
        row_source=FreshEmpiricalRows(sampler, n),
        tie_rng=sampler.derive("tie_break"),
        trace=trace,
    )
    return EstimateReport(
        estimate=outcome.estimate,
        samples_used=sampler.draw_count - before,
        iterations=outcome.iterations,
        encountered_size=None,
        trace=outcome.trace,
        diagnostics={"stop_reason": outcome.stop_reason},
    )


def plug_in_estimate(sampler: CountingSampler, n: int) -> EstimateReport:
    """Value function of a fully offline empirical matrix (n draws per row,
    all counted: samples_used = n * S)."""
    if n < 1:
        raise ContractViolation(f"per-state sample count must be >= 1, got {n}")
    instance = sampler.instance
    before = sampler.draw_count
    rows = {s: sampler.sample_empirical_row(s, n) for s in range(instance.S)}
    table = TransitionTable.from_rows(instance.S, rows)
    estimate = certified_value(csr_rows(table.indptr), table.indices, table.probs, instance.cost, instance.alpha)
    return EstimateReport(
        estimate=estimate,
        samples_used=sampler.draw_count - before,
        iterations=n,
        encountered_size=None,
    )


@dataclass
class ErrorProcessSample:
    """Per-iteration fixed-point errors e_k(s) for one traced run.

    values[k, s] = v_hat_k(s) + mu_s r_k - v(s), with mu computed from the
    true matrix. e_0 is identically zero by construction.
    """

    values: np.ndarray

    @property
    def final(self) -> np.ndarray:
        return self.values[-1]

    @property
    def increments(self) -> np.ndarray:
        return np.diff(self.values, axis=0)


def error_process(trace: PushTrace, Q: np.ndarray) -> ErrorProcessSample:
    """Evaluate the fixed-point error process of a traced run against the
    true matrix."""
    return ErrorProcessSample(values=replay_errors(trace, np.asarray(Q, dtype=float)))
