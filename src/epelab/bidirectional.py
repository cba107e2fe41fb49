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
- One frontier, one split step. All walkers of a block move together, one
  step at a time, longest walks first (:func:`longest_first`, a radix sort;
  ties in walk order). Walkers at encountered states step through the
  stored rows for free, with uniforms from the walks stream; the rest take
  one charged batch draw on the true table. An empty side reads no
  uniform, so every step takes this path.
- Index arrays, not masks. A step finds its two sides once, as
  ``np.flatnonzero`` of the stored-row mask and of its complement, and
  gathers and scatters through them. Four boolean-mask indexings of the
  frontier cost about three times as much: 0.98 ms against 0.30 ms for the
  gathers and scatters of one step of 34,400 walkers, half of them at
  stored rows in random order (numpy 2.4, one core).

Endpoint residuals are summed per state in walk order, so the estimate
is bit-identical to a per-walk running sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .backward import run_backward
from .errors import ContractViolation
from .model import CountingSampler, EstimateReport, TransitionTable, check_count, check_discount, stable_order
from .push import check_threshold

# Walkers moved together in one block by the walk stage. A block's
# temporaries are arrays of at most WALKER_BUDGET entries (0.5 MB each), so
# their memory stays bounded however large S grows. The value is part of
# the walk stage's stream layout: a block's walk lengths are one vector of
# uniforms, so another value moves its draws.
WALKER_BUDGET = 1 << 16


@dataclass(frozen=True)
class BidirectionalConfig:
    epsilon: float | None
    n_B: int
    n_F: int
    termination_mode: str = "fixed"

    def __post_init__(self):
        if self.termination_mode not in ("fixed", "dynamic"):
            raise ContractViolation(f"unknown termination_mode {self.termination_mode!r}")
        for name in ("n_B", "n_F"):
            object.__setattr__(self, name, check_count(name, getattr(self, name)))
        if self.termination_mode == "fixed":
            if self.epsilon is None:
                raise ContractViolation("fixed mode needs epsilon > 0, got None")
            check_threshold(self.epsilon)
        elif self.epsilon is not None:
            raise ContractViolation(f"epsilon={self.epsilon} is read by the fixed termination mode only, not by 'dynamic'")


def geometric_length(alpha: float, u: np.ndarray) -> np.ndarray:
    """Walk lengths L with P(L = t) = (1 - alpha) * alpha^t on {0, 1, 2, ...},
    one per uniform in ``u``.

    Sampled by inversion: L = floor(log(U) / log(alpha)), cut at
    :func:`walk_step_cap`. A zero uniform (possible only at the stream's
    resolution floor) maps to the cap.
    """
    with np.errstate(divide="ignore"):
        steps = np.log(u) / math.log(check_discount(alpha))
    return np.minimum(steps, walk_step_cap(alpha)).astype(np.int64)


def walk_step_cap(alpha: float) -> int:
    # Exceeding this has probability alpha^(100/(1-alpha)) ~ e^-100.
    return math.ceil(100.0 / (1.0 - check_discount(alpha)))


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
    w = n_F * check_discount(alpha) / (1.0 - alpha)
    return min(math.ceil(S * w / (n_B + w)), S)


def longest_first(lengths: np.ndarray) -> np.ndarray:
    """The permutation ``np.argsort(-lengths, kind="stable")`` of walk
    lengths (non-negative): longest first, ties in index order, found as the
    :func:`~epelab.model.stable_order` of ``lengths.max() - lengths``."""
    return stable_order(lengths.max() - lengths)


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
    is_stored = np.diff(stored.indptr) > 0  # a stored row is never empty
    walks = sampler.derive("walks")
    cap = walk_step_cap(alpha)
    per_block = max(1, WALKER_BUDGET // n_F)
    charged = free = capped = 0

    for lo in range(0, S, per_block):
        hi = min(lo + per_block, S)
        lengths = geometric_length(alpha, walks.random((hi - lo) * n_F))
        capped += int(np.count_nonzero(lengths == cap))
        # Longest walks first, so the walkers still going at step i are a prefix.
        order = longest_first(lengths)
        x = np.repeat(np.arange(lo, hi, dtype=np.int64), n_F)[order]
        live = lengths.size - np.cumsum(np.bincount(lengths))
        for n in live[:-1].tolist():
            at = x[:n]
            free_here = is_stored[at]
            f = np.flatnonzero(free_here)
            c = np.flatnonzero(~free_here)
            at[f] = stored.draw_batch(at[f], walks.random(f.size))
            at[c] = sampler.sample_next_batch(at[c])
            free += f.size
            charged += c.size

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

    before = sampler.draw_count
    outcome = run_backward(sampler, epsilon, config.n_B, trace=trace, max_rows=max_rows)
    # The backward stage's report; the walk stage corrects its estimate in place.
    report = outcome.report(sampler.draw_count - before, len(outcome.rows))
    residual = outcome.residual

    counted_forward = free_forward = capped_walks = 0
    # A residual of exactly zero everywhere contributes exactly zero per
    # walk, so the walks are skipped (identical estimate, zero cost).
    if residual.max() > 0.0:
        counted_forward, free_forward, capped_walks = _walk_stage(
            sampler, outcome.rows, residual, alpha, config.n_F, report.estimate
        )

    report.diagnostics.update(
        backward_draws=report.samples_used,
        forward_true_draws=counted_forward,
        forward_free_draws=free_forward,
        capped_walks=capped_walks,
    )
    report.samples_used += counted_forward
    return report
