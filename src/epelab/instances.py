"""Random problem ensembles.

Transition matrices come from elementwise products of Uniform([0,1]) and
Bernoulli(p/S) matrices, row-normalized; the Bernoulli mask is resampled
whole until every row has support, and the supergraph is set to exactly
that mask, so the supergraph support equals the chain's support. The
instance keeps only the mask's entries of Q, in CSR form. The density
knob p controls the expected average degree (E d_bar = p).

Two cost models: "mixed" adds a Bernoulli(p/S) indicator vector (resampled
until nonzero) to a Uniform[0, p/S] vector, giving E ||c||_1 = 3p/2 and
||c||_inf in [1, 2]; "binary" picks a uniformly random 0/1 vector with
exactly H ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, GenerationError
from .model import ProblemInstance, Supergraph
from .rng import make_rng

RESAMPLE_CAP = 10**6
MIN_SUCCESS_CHANCE = 1e-6


@dataclass(frozen=True)
class EnsembleSpec:
    """One cell of an ensemble: size, density, discount, and cost model."""

    S: int
    p: float
    alpha: float
    cost_model: str = "mixed"
    H: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "S", int(self.S))
        object.__setattr__(self, "p", float(self.p))
        object.__setattr__(self, "alpha", float(self.alpha))
        if self.H is not None:
            object.__setattr__(self, "H", int(self.H))
        if self.S < 1:
            raise ContractViolation(f"S must be >= 1, got {self.S}")
        if not (1.0 <= self.p <= self.S):
            raise ContractViolation(f"density p must lie in [1, S]; got p={self.p}, S={self.S}")
        if not (0.0 < self.alpha < 1.0):
            raise ContractViolation(f"alpha must lie in (0,1), got {self.alpha}")
        if self.cost_model not in ("mixed", "binary"):
            raise ContractViolation(f"unknown cost model {self.cost_model!r}")
        if self.cost_model == "binary":
            if self.H is None or not (1 <= self.H <= self.S):
                raise ContractViolation(f"binary cost needs 1 <= H <= S, got H={self.H}")


def density_for_case(case: str, S: int, p_base: float = 10.0) -> float:
    """Density schedules used in the scaling experiments."""
    if case == "case1":
        return float(p_base)
    if case == "case2":
        return float((100.0 * S) ** 0.25)
    if case == "case3":
        return float(math.sqrt(S))
    raise ContractViolation(f"unknown case {case!r}")


def _binary_cost(S: int, H: int, rng: np.random.Generator) -> np.ndarray:
    # Partial Fisher-Yates: uniform over H-subsets in O(S).
    idx = np.arange(S)
    for i in range(H):
        j = int(rng.integers(i, S))
        idx[i], idx[j] = idx[j], idx[i]
    cost = np.zeros(S)
    cost[idx[:H]] = 1.0
    return cost


def generate_binary_cost(S: int, H: int, seed) -> np.ndarray:
    """Uniformly random cost vector with exactly H entries equal to 1."""
    if not (1 <= H <= S):
        raise ContractViolation(f"need 1 <= H <= S, got H={H}, S={S}")
    return _binary_cost(S, H, make_rng(seed))


def log_mask_success(S: int, p: float) -> float:
    """Natural log of the chance that one S x S Bernoulli(p/S) mask gives
    every row support: S * log(1 - (1 - p/S)^S)."""
    if p >= S:
        return 0.0
    return S * math.log1p(-math.exp(S * math.log1p(-p / S)))


def generate_instance(spec: EnsembleSpec, seed) -> ProblemInstance:
    """Draw one problem instance; a pure function of (spec, seed).

    All resampling loops continue on the same stream, so reproducibility
    needs no extra bookkeeping.

    Raises :class:`GenerationError` before drawing anything when the mask
    resampling is hopeless: when RESAMPLE_CAP times the per-attempt success
    chance (:func:`log_mask_success`) is below ``MIN_SUCCESS_CHANCE`` (1e-6).
    Such a spec would succeed with a chance under 1e-6 after a full
    RESAMPLE_CAP attempts; S = 200, p = 1.5 has a chance near 1e-16.
    """
    S, p = spec.S, spec.p
    log_chance = log_mask_success(S, p)
    if log_chance + math.log(RESAMPLE_CAP) < math.log(MIN_SUCCESS_CHANCE):
        raise GenerationError(
            f"an all-rows-supported mask is hopeless within {RESAMPLE_CAP} attempts "
            f"(S={S}, p={p}: per-attempt chance exp({log_chance:.1f}))"
        )
    rng = make_rng(seed)
    weights = rng.random((S, S))

    mask = None
    for _ in range(RESAMPLE_CAP):
        candidate = rng.random((S, S)) < p / S
        if candidate.any(axis=1).all():
            mask = candidate
            break
    if mask is None:
        raise GenerationError(f"no all-rows-supported mask after {RESAMPLE_CAP} attempts (S={S}, p={p})")

    # Q's entries are the mask's: each is divided by its row sum over the
    # whole dense product (computed in place in the weights array), the
    # floats of a dense row normalization.
    Q = np.multiply(weights, mask, out=weights)
    flat = np.flatnonzero(mask)
    sources, indices = np.divmod(flat, S)
    values = Q.ravel()[flat] / Q.sum(axis=1)[sources]

    if spec.cost_model == "binary":
        cost = _binary_cost(S, spec.H, rng)
    else:
        indicator = None
        for _ in range(RESAMPLE_CAP):
            candidate = (rng.random(S) < p / S).astype(float)
            if candidate.any():
                indicator = candidate
                break
        if indicator is None:
            raise GenerationError(f"no nonzero cost indicator after {RESAMPLE_CAP} attempts (S={S}, p={p})")
        cost = indicator + rng.uniform(0.0, p / S, size=S)

    supergraph = Supergraph.from_edges(S, sources, indices)
    return ProblemInstance.from_entries(S, spec.alpha, cost, sources, indices, values, supergraph)
