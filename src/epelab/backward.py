"""Backward value estimation with sampled transition rows.

The estimator reads the cost, the discount and the supergraph from its
sampler's instance and samples only Q. It explores the chain in reverse
from high-cost states: each push selects a maximal-residual state,
estimates the rows of its supergraph in-neighbors the first time they are
encountered (n draws per state, all counted), and redistributes residual
mass through those estimated rows. Total sampling cost is n times the
number of encountered states.

For auditing, a traced run can be replayed against a completion of the
final row estimates: rows for encountered states are the estimates
themselves, rows for everyone else come either from fresh offline draws
(:func:`build_q_over`) or from the true matrix (:func:`build_q_under`).
Both completions satisfy an exact per-iteration fixed-point identity,
checked by :func:`replay_invariant`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractViolation
from .model import CountingSampler, EstimateReport, ProblemInstance, Supergraph, densify
from .push import CachedEmpiricalRows, PushOutcome, PushTrace, replay_errors, run_push_loop

ROW_MATCH_TOL = 0.0  # completion matrices must copy estimated rows exactly
DENSE_ORACLE_MAX_S = 1000  # the dense S x S oracles refuse larger S (8 MB per matrix)


def run_backward(
    sampler: CountingSampler,
    epsilon: float,
    n: int,
    trace: bool = False,
    tie_rng: np.random.Generator | None = None,
    max_rows: int | None = None,
) -> PushOutcome:
    """Push loop with sample-once empirical rows; returns the full outcome."""
    if tie_rng is None:
        tie_rng = sampler.derive("tie_break")
    rows = CachedEmpiricalRows(sampler, n)
    before = sampler.draw_count
    outcome = run_push_loop(
        cost=sampler.instance.cost,
        alpha=sampler.instance.alpha,
        epsilon=epsilon,
        row_source=rows,
        tie_rng=tie_rng,
        trace=trace,
        max_rows=max_rows,
    )
    outcome.samples_used = sampler.draw_count - before
    return outcome


def backward_epe(
    sampler: CountingSampler,
    epsilon: float,
    n: int,
    trace: bool = False,
    tie_rng: np.random.Generator | None = None,
) -> EstimateReport:
    """Estimate the value function by backward pushes with counted sampling.

    Terminates when no residual exceeds epsilon. Reports
    samples_used = n * |encountered| and the encountered-set size.
    """
    outcome = run_backward(sampler, epsilon, n, trace=trace, tie_rng=tie_rng)
    return EstimateReport(
        estimate=outcome.estimate,
        samples_used=outcome.samples_used,
        iterations=outcome.iterations,
        encountered_size=len(outcome.rows),
        trace=outcome.trace,
        diagnostics={
            "stop_reason": outcome.stop_reason,
            "final_residual_max": float(outcome.residual.max()) if outcome.residual.size else 0.0,
        },
    )


def sample_size_backward(epsilon: float, delta: float, alpha: float, c_inf: float, S: int) -> int:
    """Per-state draw count sufficient for a 2*epsilon sup-norm guarantee
    with failure probability delta."""
    if epsilon <= 0 or delta <= 0 or c_inf <= 0 or S < 1 or not (0.0 < alpha < 1.0):
        raise ContractViolation(
            f"need epsilon, delta, c_inf > 0, S >= 1, alpha in (0,1); got "
            f"epsilon={epsilon}, delta={delta}, c_inf={c_inf}, S={S}, alpha={alpha}"
        )
    # Horizon factor; clamps to 1 when epsilon >= 4*c_inf makes the log nonpositive.
    horizon = max(1, math.ceil(math.log(4.0 * c_inf / epsilon) / (1.0 - alpha)))
    value = (2.0 * c_inf**2 * alpha**2 / (epsilon**2 * (1.0 - alpha) ** 2)) * math.log(
        (2.0 * S / delta) * horizon
    )
    return max(1, math.ceil(value))


def build_q_under(rows: dict, encountered, instance: ProblemInstance) -> np.ndarray:
    """Completion using true rows outside the encountered set (test-only:
    needs ground-truth access)."""
    _check_dense_size(instance.S)
    _check_estimated_rows(rows, encountered)
    return densify({s: rows[s] for s in encountered}, instance.Q)


def build_q_over(
    rows: dict,
    encountered,
    instance: ProblemInstance,
    n: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Completion using fresh offline empirical rows outside the encountered
    set. The offline draws are an analysis device and are not counted
    against any sampler."""
    _check_dense_size(instance.S)
    _check_estimated_rows(rows, encountered)
    S = instance.S
    enc = set(encountered)
    completion = {}
    for s in range(S):
        if s in enc:
            completion[s] = rows[s]
        else:
            idx, probs, _ = instance.transitions.row(s)
            completion[s] = dict(zip(idx.tolist(), (rng.multinomial(n, probs) / n).tolist()))
    return densify(completion, np.zeros((S, S)))


def _check_dense_size(S: int) -> None:
    if S > DENSE_ORACLE_MAX_S:
        raise ContractViolation(f"S={S} is above DENSE_ORACLE_MAX_S={DENSE_ORACLE_MAX_S} for a dense oracle")


def _check_estimated_rows(rows: dict, encountered) -> None:
    for s in encountered:
        row = rows.get(s)
        if row is None:
            raise ContractViolation(f"no estimated row for encountered state {s}")
        total = math.fsum(row.values())
        if abs(total - 1.0) > 1e-9:
            raise ContractViolation(f"estimated row {s} sums to {total!r}")


def replay_invariant(trace: PushTrace, P: np.ndarray, supergraph: Supergraph) -> float:
    """Max over k, s of |v_hat_k(s) + nu_s r_k - nu_s c| with nu from P.

    P must be row stochastic, must equal the traced run's estimated rows on
    the encountered set, and must put no mass on non-edges of the
    supergraph; outside those hypotheses the identity is not claimed.
    """
    S = trace.cost.size
    _check_dense_size(S)
    if P.shape != (S, S):
        raise ContractViolation(f"P must be {S}x{S}")
    row_sums = P.sum(axis=1)
    if np.max(np.abs(row_sums - 1.0)) > 1e-9:
        raise ContractViolation("P is not row stochastic")
    estimated = densify({s: trace.final_rows[s] for s in trace.encountered}, np.zeros((S, S)))
    for s in trace.encountered:
        if np.max(np.abs(P[s] - estimated[s])) > ROW_MATCH_TOL:
            raise ContractViolation(f"P row {s} differs from the estimated row")
    mask = supergraph.edge_mask()
    if np.any(P[~mask] != 0.0):
        raise ContractViolation("P has mass outside the supergraph support")
    errors = replay_errors(trace, P)
    return float(np.max(np.abs(errors)))
