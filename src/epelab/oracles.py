"""Dense S x S oracles, for tests and audits only.

The exact dense solves (:func:`value_function`, :func:`discounted_occupancy`),
the supergraph's adjacency matrix (:func:`edge_mask`), the two completions
of a traced backward run's estimated rows (:func:`build_q_under`,
:func:`build_q_over`) and the replay of a traced push run against a dense
matrix (:func:`error_process`, checked by :func:`replay_invariant`). Each
function that allocates an S x S array first calls
:func:`~epelab.model.check_dense_size`, as :attr:`ProblemInstance.Q` does.
No estimator, generator or harness module imports this one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .model import ProblemInstance, Supergraph, check_dense_size, csr_rows
from .push import PushTrace, replay_states


def densify(rows: dict, out: np.ndarray) -> np.ndarray:
    """Replace row s of the dense matrix ``out`` by the sparse row
    ``rows[s]`` ({successor: probability}) for every s in ``rows``; returns
    ``out``."""
    for s, row in rows.items():
        out[s] = 0.0
        out[s, list(row)] = list(row.values())
    return out


def edge_mask(supergraph: Supergraph) -> np.ndarray:
    """Dense S x S adjacency of the supergraph, an O(S^2) oracle for :func:`replay_invariant`."""
    check_dense_size(supergraph.S)
    mask = np.zeros((supergraph.S, supergraph.S), dtype=bool)
    mask[csr_rows(supergraph.indptr), supergraph.indices] = True
    return mask


def value_function(Q: np.ndarray, cost: np.ndarray, alpha: float) -> np.ndarray:
    """Value of a row-stochastic matrix by an O(S^3) dense solve: the oracle for
    :func:`~epelab.model.exact_value`."""
    check_dense_size(Q.shape[0])
    return np.linalg.solve(np.eye(Q.shape[0]) - alpha * Q, (1.0 - alpha) * cost)


def discounted_occupancy(P: np.ndarray, alpha: float) -> np.ndarray:
    """Row s is the distribution of a geometric-length walk from s under P."""
    S = P.shape[0]
    check_dense_size(S)
    return (1.0 - alpha) * np.linalg.inv(np.eye(S) - alpha * P)


@dataclass
class ErrorProcessSample:
    """Per-iteration fixed-point errors e_k(s) for one traced run.

    values[k, s] = v_hat_k(s) + nu_s r_k - nu_s c, with nu computed from the
    matrix the run was replayed against; against the true matrix,
    nu_s c = v(s). e_0 is identically zero by construction.
    """

    values: np.ndarray

    @property
    def final(self) -> np.ndarray:
        return self.values[-1]

    @property
    def increments(self) -> np.ndarray:
        return np.diff(self.values, axis=0)


def error_process(trace: PushTrace, P: np.ndarray) -> ErrorProcessSample:
    """Error process e_k(s) = v_hat_k(s) + nu_s r_k - nu_s c of a traced run
    against the matrix P, with nu_s from a dense solve on P.

    Row k of ``values`` is e_k. The trace checked its own replay when it
    was built, so this one only evaluates it.
    """
    nu = discounted_occupancy(np.asarray(P, dtype=float), trace.alpha)
    target = nu @ trace.cost
    out = np.empty((len(trace.records) + 1, trace.cost.size))
    for k, v, r in replay_states(trace):
        out[k] = v + nu @ r - target
    return ErrorProcessSample(values=out)


def build_q_under(rows: dict, encountered, instance: ProblemInstance) -> np.ndarray:
    """Completion using true rows outside the encountered set (test-only:
    needs ground-truth access)."""
    check_dense_size(instance.S)
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
    check_dense_size(instance.S)
    _check_estimated_rows(rows, encountered)
    enc = set(encountered)
    out = densify({s: rows[s] for s in enc}, np.zeros((instance.S, instance.S)))
    for s in range(instance.S):
        if s not in enc:
            idx, probs = instance.transitions.row(s)
            out[s, idx] = rng.multinomial(n, probs) / n
    return out


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

    P must be finite and row stochastic, must equal the traced run's
    estimated rows exactly on the encountered set, and must put no mass on
    non-edges of the supergraph; outside those hypotheses the identity is
    not claimed.
    """
    S = trace.cost.size
    check_dense_size(S)
    if P.shape != (S, S):
        raise ContractViolation(f"P must be {S}x{S}")
    if not np.all(np.isfinite(P)):
        s, t = np.argwhere(~np.isfinite(P))[0]
        raise ContractViolation(f"P[{s}, {t}] is {P[s, t]}, not finite")
    row_sums = P.sum(axis=1)
    if np.max(np.abs(row_sums - 1.0)) > 1e-9:
        raise ContractViolation("P is not row stochastic")
    estimated = densify({s: trace.final_rows[s] for s in trace.encountered}, np.zeros((S, S)))
    for s in trace.encountered:
        if np.any(P[s] != estimated[s]):
            raise ContractViolation(f"P row {s} differs from the estimated row")
    if np.any(P[~edge_mask(supergraph)] != 0.0):
        raise ContractViolation("P has mass outside the supergraph support")
    return float(np.max(np.abs(error_process(trace, P).values)))
