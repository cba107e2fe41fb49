"""Random problem ensembles.

Transition matrices come from elementwise products of Uniform([0,1]) and
Bernoulli(p/S) matrices, row-normalized, with each row conditioned on
support. The supports are drawn in O(nnz) time and memory, with only
the empty rows redrawn; no S x S array is formed. They become the
instance's supergraph, one CSR pair, and Q's values are stored on its
edges, so the supergraph is exactly Q's support. The density knob p
controls the expected average degree (E d_bar = p).

Two cost models: "mixed" adds a Bernoulli(p/S) indicator vector (resampled
until nonzero) to a Uniform[0, p/S] vector, giving E ||c||_1 = 3p/2 and
||c||_inf in [1, 2]; "binary" picks a uniformly random 0/1 vector with
exactly H ones. H belongs to the binary model alone: a spec that sets it
under any other cost model is refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, GenerationError
from .model import ProblemInstance, Supergraph, check_count, check_discount, check_number, csr_rows
from .rng import make_rng

RESAMPLE_CAP = 10**6


@dataclass(frozen=True)
class EnsembleSpec:
    """One cell of an ensemble: size, density, discount, and cost model.

    ``S`` and ``H`` are counts, kept as ints, ``p`` a number and ``alpha`` a
    discount, by :mod:`epelab.model`'s rules: a bool or a fractional S or H is refused."""

    S: int
    p: float
    alpha: float
    cost_model: str = "mixed"
    H: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "S", check_count("S", self.S))
        object.__setattr__(self, "p", check_number("p", self.p))
        object.__setattr__(self, "alpha", check_discount(self.alpha))
        if self.H is not None:
            object.__setattr__(self, "H", check_count("H", self.H))
        if not (1.0 <= self.p <= self.S):
            raise ContractViolation(f"density p must lie in [1, S]; got p={self.p}, S={self.S}")
        if self.cost_model not in ("mixed", "binary"):
            raise ContractViolation(f"unknown cost model {self.cost_model!r}")
        if self.cost_model == "binary":
            if self.H is None or self.H > self.S:
                raise ContractViolation(f"binary cost needs 1 <= H <= S, got H={self.H}")
        elif self.H is not None:
            raise ContractViolation(f"H={self.H} is read by the binary cost model only, not by {self.cost_model!r}")


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
    S, H = check_count("S", S), check_count("H", H)
    if H > S:
        raise ContractViolation(f"need 1 <= H <= S, got H={H}, S={S}")
    return _binary_cost(S, H, make_rng(seed))


def _row_supports(S: int, p: float, rng: np.random.Generator) -> tuple:
    """CSR (indptr, indices) of a Bernoulli(p/S) mask, each row conditioned on
    support, in O(nnz): a row's columns are Bernoulli successes, drawn as
    geometric gaps. A row is empty iff its first gap overruns S, and later
    gaps do not depend on it, so only empty rows' first gaps are redrawn."""
    q = p / S
    first, empty = np.full(S, S), np.arange(S)
    for _ in range(RESAMPLE_CAP):
        first[empty] = rng.geometric(q, size=empty.size) - 1
        empty = empty[first[empty] >= S]
        if not empty.size:
            break
    else:
        raise GenerationError(f"rows still empty after {RESAMPLE_CAP} redraws (S={S}, p={p})")
    # Round k draws the next gap of every row whose entry k is in [0, S), slot k of the row.
    rows, cols = [np.arange(S)], [first]
    while rows[-1].size:
        col = cols[-1] + rng.geometric(q, size=rows[-1].size)
        rows.append(rows[-1][col < S])
        cols.append(col[col < S])
    indptr = np.concatenate(([0], np.cumsum(np.bincount(np.concatenate(rows), minlength=S))))
    indices = np.empty(indptr[-1], dtype=np.int64)
    for k, (row, col) in enumerate(zip(rows, cols)):
        indices[indptr[row] + k] = col
    return indptr, indices


def draw_supergraph(spec: EnsembleSpec, seed) -> tuple:
    """(supergraph, rng): the supergraph of ``generate_instance(spec, seed)``,
    drawn first from the seed's stream, and that stream, positioned after it.
    Reading the supergraph alone costs no weights, cost or transition table."""
    rng = make_rng(seed)
    return Supergraph(spec.S, *_row_supports(spec.S, spec.p, rng)), rng


def generate_instance(spec: EnsembleSpec, seed) -> ProblemInstance:
    """Draw one problem instance; a pure function of (spec, seed).

    All resampling loops continue on the same stream, so reproducibility
    needs no extra bookkeeping.
    """
    S, p = spec.S, spec.p
    supergraph, rng = draw_supergraph(spec, seed)
    weights = rng.random(supergraph.indices.size)
    values = weights / np.add.reduceat(weights, supergraph.indptr[:-1])[csr_rows(supergraph.indptr)]

    if spec.cost_model == "binary":
        cost = _binary_cost(S, spec.H, rng)
    else:
        for _ in range(RESAMPLE_CAP):
            indicator = rng.random(S) < p / S
            if indicator.any():
                break
        else:
            raise GenerationError(f"no nonzero cost indicator after {RESAMPLE_CAP} attempts (S={S}, p={p})")
        cost = indicator + rng.uniform(0.0, p / S, size=S)

    return ProblemInstance(S, spec.alpha, cost, supergraph, values)
