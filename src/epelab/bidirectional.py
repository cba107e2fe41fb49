"""Two-stage estimation: backward pushes, then residual correction by walks.

The backward stage leaves an estimate vector, a residual vector, and a set
of states whose transition rows were estimated. The forward stage then
adds, per state, the average residual at the endpoints of geometric-length
walks. Walk steps are resolved against the backward stage's completion of
the transition matrix: at an estimated state the stored empirical row is
sampled (free, no new draws), anywhere else the true chain is sampled
through the counting sampler (charged). Endpoints are therefore
distributed exactly as the discounted occupancy of that completion,
conditioned on it.

Two stopping modes for the backward stage: a fixed residual threshold, or
a dynamic trigger that stops as soon as the backward sampling bill
(|encountered| * n_B) reaches the expected charged bill of the forthcoming
walk stage (see :func:`dynamic_stop_threshold`), balancing the two stages'
draw counts.

Layout of the walk stage (:func:`_walk_stage`):

- Two streams. Walk lengths and free steps read one stream derived from
  ("walks"); charged steps read the sampler's own stream, as every other
  charged draw does.
- Walker blocks. States are walked in blocks of at most
  ``WALKER_BUDGET`` walkers, so memory stays bounded as S grows. A
  block's walks are numbered state by state, and their lengths come from
  one vector of uniforms through :func:`geometric_length`.
- One frontier. All walkers of a block move together, one step at a
  time, longest walks first (ties in walk order). Walkers at encountered
  states step through the stored rows for free, with uniforms from the
  walks stream; the rest take one charged batch draw on the true table.

Endpoint residuals are summed per state in walk order, so the estimate
is bit-identical to a per-walk running sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .backward import run_backward
from .errors import ContractViolation
from .model import CountingSampler, EstimateReport, TransitionTable


@dataclass(frozen=True)
class BidirectionalConfig:
    epsilon: float | None
    n_B: int
    n_F: int
    termination_mode: str = "fixed"

    def __post_init__(self):
        if self.termination_mode not in ("fixed", "dynamic"):
            raise ContractViolation(f"unknown termination_mode {self.termination_mode!r}")
        if self.n_B < 1 or self.n_F < 1:
            raise ContractViolation(f"need n_B, n_F >= 1, got n_B={self.n_B}, n_F={self.n_F}")
        if self.termination_mode == "fixed" and (self.epsilon is None or self.epsilon <= 0.0):
            raise ContractViolation(f"fixed mode needs epsilon > 0, got {self.epsilon}")


def geometric_length(alpha: float, u: np.ndarray) -> np.ndarray:
    """Walk lengths L with P(L = t) = (1 - alpha) * alpha^t on {0, 1, 2, ...},
    one per uniform in ``u``.

    Sampled by inversion: L = floor(log(U) / log(alpha)), cut at
    :func:`walk_step_cap`. A zero uniform (possible only at the stream's
    resolution floor) maps to the cap.
    """
    with np.errstate(divide="ignore"):
        steps = np.log(u) / math.log(alpha)
    return np.minimum(steps, walk_step_cap(alpha)).astype(np.int64)


def walk_step_cap(alpha: float) -> int:
    # Exceeding this has probability alpha^(100/(1-alpha)) ~ e^-100.
    return math.ceil(100.0 / (1.0 - alpha))


def dynamic_stop_threshold(S: int, n_B: int, n_F: int, alpha: float) -> int:
    """Encountered-set size at which the dynamic mode stops the backward stage.

    The backward stage pays n_B draws per encountered state; the walk stage
    will pay for its steps only at states left unencountered, with
    S * n_F trajectories of expected length alpha / (1 - alpha) and an
    unencountered fraction of roughly (S - |encountered|) / S. Stopping is
    triggered once the backward bill reaches that expected charged walk
    bill, i.e. at

        |encountered| * n_B >= n_F * (alpha / (1 - alpha)) * (S - |encountered|),

    which balances the two stages' draw counts. Solved for the encountered
    count this is the threshold returned here.
    """
    w = n_F * alpha / (1.0 - alpha)
    return min(math.ceil(S * w / (n_B + w)), S)


# Walkers moved together in one frontier block. A block holds a few arrays
# of WALKER_BUDGET entries (0.5 MB each), so memory stays bounded however
# large S grows.
WALKER_BUDGET = 1 << 16


def _walk_stage(
    sampler: CountingSampler, rows: dict, residual: np.ndarray, alpha: float, n_F: int, estimate: np.ndarray
) -> tuple:
    """Add each state's mean endpoint residual over n_F walks to ``estimate``.

    Returns the (charged, free, capped) walk step and walk counts; a walk
    is capped when its length is :func:`walk_step_cap`. States are walked
    in blocks of at most ``WALKER_BUDGET`` walkers (at least one state
    each). In a block, walk j of state s is walker (s - lo) * n_F + j, and
    the lengths are :func:`geometric_length` of one vector of uniforms
    from ``sampler.derive("walks")``. Then, step by step, the walkers still
    going, ordered by decreasing length and then by walker number:

    - those at stored (encountered) rows step through the stored table
      for free, reading the next uniforms of the walks stream in that
      order;
    - the rest make one charged draw through
      :meth:`CountingSampler.sample_next_batch`, in that order.

    Endpoint residuals are summed in walk order (``np.cumsum``, not the
    pairwise ``np.sum``), giving the floats of a running Python sum.
    """
    S = residual.size
    stored = TransitionTable.from_rows(S, rows)
    is_stored = np.zeros(S, dtype=bool)
    is_stored[list(rows)] = True
    walks = sampler.derive("walks")
    cap = walk_step_cap(alpha)
    per_block = max(1, WALKER_BUDGET // n_F)
    charged = free = capped = 0

    for lo in range(0, S, per_block):
        hi = min(lo + per_block, S)
        lengths = geometric_length(alpha, walks.random((hi - lo) * n_F))
        capped += int(np.count_nonzero(lengths == cap))
        # Longest walks first, so the walkers still going at step i are a prefix.
        order = np.argsort(-lengths, kind="stable")
        x = np.repeat(np.arange(lo, hi, dtype=np.int64), n_F)[order]
        live = lengths.size - np.cumsum(np.bincount(lengths))
        for n in live[:-1].tolist():
            at = x[:n]
            free_here = is_stored[at]
            k = int(np.count_nonzero(free_here))
            if k == n:
                at[:] = stored.draw_batch(at, walks.random(n))
            elif k == 0:
                at[:] = sampler.sample_next_batch(at)
            else:
                true_here = ~free_here
                at[free_here] = stored.draw_batch(at[free_here], walks.random(k))
                at[true_here] = sampler.sample_next_batch(at[true_here])
            free += k
            charged += n - k

        endpoints = np.empty_like(x)
        endpoints[order] = x
        acc = np.cumsum(residual[endpoints].reshape(hi - lo, n_F), axis=1)[:, -1]
        estimate[lo:hi] += acc / n_F
    return charged, free, capped


def bidirectional_epe(
    sampler: CountingSampler,
    config: BidirectionalConfig,
    trace: bool = False,
) -> EstimateReport:
    """Backward stage plus per-state residual correction from n_F walks.

    samples_used counts all backward draws plus only the walk steps taken
    at states outside the encountered set; steps resolved from stored
    empirical rows are free. Walk lengths and free steps read the stream
    ``sampler.derive("walks")``; charged steps read the sampler's own
    (see :func:`_walk_stage`).
    """
    alpha = sampler.instance.alpha
    if config.termination_mode == "dynamic":
        epsilon, max_rows = 0.0, dynamic_stop_threshold(sampler.instance.S, config.n_B, config.n_F, alpha)
    else:
        epsilon, max_rows = config.epsilon, None

    outcome = run_backward(sampler, epsilon, config.n_B, trace=trace, max_rows=max_rows)
    backward_draws = outcome.samples_used
    residual = outcome.residual
    estimate = outcome.estimate.copy()

    counted_forward = free_forward = capped_walks = 0
    # A residual of exactly zero everywhere contributes exactly zero per
    # walk, so the walks are skipped (identical estimate, zero cost).
    if residual.size and residual.max() > 0.0:
        counted_forward, free_forward, capped_walks = _walk_stage(
            sampler, outcome.rows, residual, alpha, config.n_F, estimate
        )

    return EstimateReport(
        estimate=estimate,
        samples_used=backward_draws + counted_forward,
        iterations=outcome.iterations,
        encountered_size=len(outcome.rows),
        trace=outcome.trace,
        diagnostics={
            "stop_reason": outcome.stop_reason,
            "backward_draws": backward_draws,
            "forward_true_draws": counted_forward,
            "forward_free_draws": free_forward,
            "capped_walks": capped_walks,
            "final_residual_max": float(residual.max()) if residual.size else 0.0,
        },
    )


def sample_size_forward_bd(epsilon: float, epsilon_rel: float, epsilon_abs: float, delta: float, S: int) -> int:
    """Per-state walk count sufficient for the relative-plus-absolute
    guarantee, given the backward stage ran at threshold epsilon."""
    if not (0.0 < epsilon_rel < 1.0):
        raise ContractViolation(f"epsilon_rel must lie in (0,1), got {epsilon_rel}")
    if epsilon <= 0 or epsilon_abs <= 0 or delta <= 0 or S < 1:
        raise ContractViolation(
            f"need epsilon, epsilon_abs, delta > 0 and S >= 1; got "
            f"epsilon={epsilon}, epsilon_abs={epsilon_abs}, delta={delta}, S={S}"
        )
    value = 324.0 * epsilon * math.log(4.0 * S / delta) / (epsilon_rel**2 * epsilon_abs)
    return max(1, math.ceil(value))


def sample_size_backward_bd(
    epsilon_rel: float,
    epsilon_abs: float,
    delta: float,
    alpha: float,
    c_inf: float,
    S: int,
    q_min: float,
) -> int:
    """Per-state backward draw count for the relative-plus-absolute guarantee.

    q_min is the smallest positive transition probability; it must be
    supplied by the caller (a sampling-only agent cannot observe it, so a
    practical caller passes a lower-bound assumption).
    """
    if not (0.0 < epsilon_rel < 1.0):
        raise ContractViolation(f"epsilon_rel must lie in (0,1), got {epsilon_rel}")
    if not (0.0 < q_min <= 1.0):
        raise ContractViolation(f"q_min must lie in (0,1], got {q_min}")
    if epsilon_abs <= 0 or delta <= 0 or c_inf <= 0 or S < 1 or not (0.0 < alpha < 1.0):
        raise ContractViolation(
            f"need epsilon_abs, delta, c_inf > 0, S >= 1, alpha in (0,1); got "
            f"epsilon_abs={epsilon_abs}, delta={delta}, c_inf={c_inf}, S={S}, alpha={alpha}"
        )
    horizon = max(1, math.ceil(math.log(2.0 * c_inf / epsilon_abs) / (1.0 - alpha)))
    value = (
        3.0
        * math.log(4.0 * S * S / delta)
        / ((math.log1p(epsilon_rel / 2.0)) ** 2 * q_min)
        * horizon**2
    )
    return max(1, math.ceil(value))
