"""Reference push estimators used to calibrate the sampled one.

``approx_contributions`` runs the push loop against the true transition
matrix, so it draws nothing and its fixed-point identity
v_hat_k(s) + mu_s r_k = v(s) holds exactly at every iteration.

``backward_epe_alternative`` re-estimates the relevant column with fresh
draws at every iteration instead of caching rows. That destroys the
replayable fixed-point identity but makes the error process
e_k(s) = v_hat_k(s) + mu_s r_k - v(s) a zero-mean martingale, so the
final estimate is unbiased in the fixed-point sense; the price is that
repeat visits keep drawing samples.

``plug_in_estimate`` samples every row offline and solves the value of
the resulting empirical matrix exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .model import CountingSampler, EstimateReport, densify, value_function
from .push import ExactRows, FreshEmpiricalRows, PushTrace, replay_errors, run_push_loop


def approx_contributions(
    Q: np.ndarray,
    cost: np.ndarray,
    alpha: float,
    epsilon: float,
    rng: np.random.Generator,
    trace: bool = False,
    in_neighbors=None,
) -> EstimateReport:
    """Known-matrix push estimator; sup-norm error at most epsilon, zero draws."""
    if epsilon <= 0.0:
        raise ContractViolation(f"termination threshold must be > 0, got {epsilon}")
    rows = ExactRows(np.asarray(Q, dtype=float))
    if in_neighbors is None:
        in_neighbors = rows.support_in_neighbors()
    outcome = run_push_loop(
        cost=np.asarray(cost, dtype=float),
        alpha=alpha,
        in_neighbors=in_neighbors,
        epsilon=epsilon,
        row_source=rows,
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
    cost: np.ndarray,
    alpha: float,
    in_neighbors,
    epsilon: float,
    n: int,
    trace: bool = False,
    tie_rng: np.random.Generator | None = None,
) -> EstimateReport:
    """Resampling push estimator: n fresh draws per in-neighbor per iteration.

    samples_used is n times the total in-degree of the pushed sequence, so
    revisited neighborhoods keep costing draws.
    """
    if epsilon <= 0.0:
        raise ContractViolation(f"termination threshold must be > 0, got {epsilon}")
    if tie_rng is None:
        tie_rng = sampler.derive("tie_break")
    before = sampler.draw_count
    outcome = run_push_loop(
        cost=np.asarray(cost, dtype=float),
        alpha=alpha,
        in_neighbors=in_neighbors,
        epsilon=epsilon,
        row_source=FreshEmpiricalRows(sampler, n),
        tie_rng=tie_rng,
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
    S = instance.S
    before = sampler.draw_count
    rows = {s: sampler.sample_empirical_row(s, n) for s in range(S)}
    estimate = value_function(densify(rows, np.zeros((S, S))), instance.cost, instance.alpha)
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
