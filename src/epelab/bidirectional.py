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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .backward import run_backward
from .errors import ContractViolation
from .model import CountingSampler, EstimateReport, TransitionTable, value_function


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


def geometric_length(alpha: float, rng: np.random.Generator) -> int:
    """Walk length L with P(L = t) = (1 - alpha) * alpha^t on {0, 1, 2, ...}.

    Sampled by inversion: L = floor(log(U) / log(alpha)). A zero uniform
    (possible only at the stream's resolution floor) maps to the cap
    handled by callers.
    """
    u = rng.random()
    if u <= 0.0:
        return walk_step_cap(alpha)
    return int(math.log(u) / math.log(alpha))


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


def sample_geometric_endpoint(
    start: int,
    alpha: float,
    resolver,
    rng: np.random.Generator,
    max_steps: int | None = None,
) -> int:
    """Endpoint of a geometric-length walk from ``start``.

    ``resolver(state) -> state`` supplies one transition; with a resolver
    faithful to a matrix P, the endpoint is distributed as the start row of
    the discounted occupancy of P.
    """
    cap = walk_step_cap(alpha) if max_steps is None else max_steps
    steps = min(geometric_length(alpha, rng), cap)
    x = int(start)
    for _ in range(steps):
        x = resolver(x)
    return x


def matrix_resolver(P: np.ndarray, rng: np.random.Generator):
    """Resolver drawing each step from the rows of a dense matrix (test aid)."""
    P = np.asarray(P, dtype=float)
    cums = np.cumsum(P, axis=1)
    cums[:, -1] = 1.0

    def step(x: int) -> int:
        return int(np.searchsorted(cums[x], rng.random(), side="right"))

    return step


def bidirectional_epe(
    sampler: CountingSampler,
    cost: np.ndarray,
    alpha: float,
    in_neighbors,
    config: BidirectionalConfig,
    tie_rng: np.random.Generator | None = None,
    trace: bool = False,
) -> EstimateReport:
    """Backward stage plus per-state residual correction from n_F walks.

    samples_used counts all backward draws plus only the walk steps taken
    at states outside the encountered set; steps resolved from stored
    empirical rows are free. Each state's walk batch runs on its own
    derived stream and private tally, merged in state order.
    """
    cost = np.asarray(cost, dtype=float)
    S = cost.size

    if config.termination_mode == "dynamic":
        threshold = dynamic_stop_threshold(S, config.n_B, config.n_F, alpha)

        def stop_check(_k, encountered):
            return len(encountered) >= threshold

        epsilon = 0.0
    else:
        stop_check = None
        epsilon = config.epsilon

    outcome = run_backward(
        sampler,
        cost,
        alpha,
        in_neighbors,
        epsilon,
        config.n_B,
        trace=trace,
        tie_rng=tie_rng,
        stop_check=stop_check,
    )
    backward_draws = outcome.samples_used
    residual = outcome.residual
    estimate = outcome.estimate.copy()
    cap = walk_step_cap(alpha)

    counted_forward = 0
    free_forward = 0
    capped_walks = 0

    # A residual of exactly zero everywhere contributes exactly zero per
    # walk, so the walks are skipped (identical estimate, zero cost).
    if residual.size and residual.max() > 0.0:
        rows = outcome.rows
        stored = TransitionTable(S, {s: (sorted(row), [row[t] for t in sorted(row)]) for s, row in rows.items()})
        draw_stored = stored.draw
        residual_at = residual.tolist()

        for s in range(S):
            child = sampler.spawn("walks", s)
            uniform = child.rng.random
            acc = 0.0
            for _ in range(config.n_F):
                steps = geometric_length(alpha, child.rng)
                if steps > cap:
                    steps = cap
                    capped_walks += 1
                x = s
                for _ in range(steps):
                    if x in rows:
                        x = draw_stored(x, uniform())
                        free_forward += 1
                    else:
                        x = child.sample_next(x)
                acc += residual_at[x]
            estimate[s] += acc / config.n_F
            counted_forward += child.draw_count
            sampler.absorb(child)

    return EstimateReport(
        estimate=estimate,
        samples_used=backward_draws + counted_forward,
        iterations=outcome.iterations,
        encountered_size=len(outcome.encountered),
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


def plug_in_estimate(sampler: CountingSampler, n: int) -> EstimateReport:
    """Value function of a fully offline empirical matrix (n draws per row,
    all counted: samples_used = n * S)."""
    if n < 1:
        raise ContractViolation(f"per-state sample count must be >= 1, got {n}")
    instance = sampler.instance
    S = instance.S
    before = sampler.draw_count
    Q_tilde = np.zeros((S, S))
    for s in range(S):
        for t, p in sampler.sample_empirical_row(s, n).items():
            Q_tilde[s, t] = p
    estimate = value_function(Q_tilde, instance.cost, instance.alpha)
    return EstimateReport(
        estimate=estimate,
        samples_used=sampler.draw_count - before,
        iterations=n,
        encountered_size=None,
    )
