"""Per-state trajectory averaging, the baseline every state pays for.

For each state, m trajectories of T states are simulated through the
counting sampler and their discounted truncated cost sums are averaged.
Only transitions are charged, so a run costs exactly S * m * (T - 1)
draws; the start state of each trajectory is given, not drawn.

The S * m walkers keep their states and running sums in two arrays of
that length, and take each step in consecutive blocks of at most
``FORWARD_BLOCK`` walkers, so every temporary of a step is block-sized.
The block is forward's own, chosen by measurement (see its comment); the
walk stage of bidirectional runs has its own block,
``bidirectional.WALKER_BUDGET``, which is part of its stream layout.
Consecutive blocks read consecutive uniforms of the sampler's stream, so
the draws and floats are those of one batch over all walkers, whatever
the block size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .model import CountingSampler, EstimateReport, check_count

# Walkers moved together in one step, chosen by measurement. Each of a
# step's temporaries (the uniforms, the search's positions, candidates,
# gathers and mask, the cost gather and the product) is then 128 KB, so a
# step's set of them fits in a 2 MB L2 and the allocator reuses their
# memory from block to block, where blocks of 2**16 (0.5 MB temporaries)
# were returned to the system and faulted in again every step. On the
# forward_wide shape (S=1600, m=80, T=15; 2-core Xeon, numpy 2.4) a call
# faults in about 600 pages, against about 17,200 at 2**16, 725 at 2**15
# and 470 at 2**12, and takes the least CPU time of those sizes: about 0.6
# of 2**16's. Smaller blocks pay more per-step overhead than they save.
FORWARD_BLOCK = 1 << 14


@dataclass(frozen=True)
class ForwardConfig:
    """T = states per trajectory (including the start), m = trajectories per state; counts, kept as ints."""

    T: int
    m: int

    def __post_init__(self):
        for name in ("T", "m"):
            object.__setattr__(self, name, check_count(name, getattr(self, name)))


def forward_epe(sampler: CountingSampler, config: ForwardConfig) -> EstimateReport:
    """Average discounted truncated cost over m length-T trajectories per state.

    Unbiased for the T-term truncation of the value function; the
    truncation itself biases by at most ||c||_inf * alpha^T.
    """
    cost, alpha, S = sampler.instance.cost, sampler.instance.alpha, sampler.instance.S
    T, m = config.T, config.m
    before = sampler.draw_count

    current = np.repeat(np.arange(S, dtype=np.int64), m)
    acc = np.empty(current.size)
    blocks = [slice(lo, lo + FORWARD_BLOCK) for lo in range(0, current.size, FORWARD_BLOCK)]
    for b in blocks:
        acc[b] = (1.0 - alpha) * cost[current[b]]
    scale = 1.0
    for _ in range(1, T):
        scale *= alpha
        for b in blocks:
            current[b] = sampler.sample_next_batch(current[b])
            acc[b] += (1.0 - alpha) * scale * cost[current[b]]
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
