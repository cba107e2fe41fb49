"""Per-state trajectory averaging, the baseline every state pays for.

For each state, m trajectories of T states are simulated through the
counting sampler and their discounted truncated cost sums are averaged.
Only transitions are charged, so a run costs exactly S * m * (T - 1)
draws; the start state of each trajectory is given, not drawn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .model import CountingSampler, EstimateReport


@dataclass(frozen=True)
class ForwardConfig:
    """T = states per trajectory (including the start), m = trajectories per state."""

    T: int
    m: int

    def __post_init__(self):
        if self.T < 1 or self.m < 1:
            raise ContractViolation(f"need T >= 1 and m >= 1, got T={self.T}, m={self.m}")


def forward_epe(sampler: CountingSampler, config: ForwardConfig) -> EstimateReport:
    """Average discounted truncated cost over m length-T trajectories per state.

    Unbiased for the T-term truncation of the value function; the
    truncation itself biases by at most ||c||_inf * alpha^T.
    """
    cost, alpha, S = sampler.instance.cost, sampler.instance.alpha, sampler.instance.S
    T, m = config.T, config.m
    before = sampler.draw_count

    current = np.repeat(np.arange(S, dtype=np.int64), m)
    acc = (1.0 - alpha) * cost[current]
    scale = 1.0
    for _ in range(1, T):
        current = sampler.sample_next_batch(current)
        scale *= alpha
        acc += (1.0 - alpha) * scale * cost[current]
    estimate = acc.reshape(S, m).mean(axis=1)

    used = sampler.draw_count - before
    if used != S * m * (T - 1):
        raise ContractViolation(f"sampler counted {used} draws; forward runs charge S*m*(T-1) = {S * m * (T - 1)}")
    return EstimateReport(
        estimate=estimate,
        samples_used=used,
        iterations=S * m,
        encountered_size=None,
    )


def sample_size_forward(epsilon: float, delta: float, alpha: float, c_inf: float, S: int) -> tuple:
    """Trajectory length and count sufficient for a 2*epsilon sup-norm
    guarantee with failure probability delta; returns (T, m)."""
    if epsilon <= 0 or delta <= 0 or c_inf <= 0 or S < 1 or not (0.0 < alpha < 1.0):
        raise ContractViolation(
            f"need epsilon, delta, c_inf > 0, S >= 1, alpha in (0,1); got "
            f"epsilon={epsilon}, delta={delta}, c_inf={c_inf}, S={S}, alpha={alpha}"
        )
    T = max(1, math.ceil(math.log(2.0 * c_inf / epsilon) / (1.0 - alpha)))
    m = max(
        1,
        math.ceil(
            (c_inf**2 * alpha**2 / (2.0 * epsilon**2 * (1.0 - alpha) ** 2))
            * math.log(2.0 * S * T / delta)
        ),
    )
    return T, m
