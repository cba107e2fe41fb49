"""Problem instances, the draw-counting access model, and exact value oracles.

A problem instance is a discounted Markov chain: a row-stochastic
transition matrix ``Q``, a nonnegative cost vector, a discount factor in
(0, 1), and a binary supergraph whose edge set contains the support of
``Q``. The supergraph is one CSR pair of out-edges, checked once when it
is built, and ``Q`` is stored on its edges: one value per edge, 0.0
allowed, so ``Q``'s support lies in the supergraph by construction. The
supergraph's one transpose, which every push estimator reads, is derived
on first use. Validation, the JSON form and the truth read the CSR arrays
too; the dense view :attr:`ProblemInstance.Q` is for oracles and test
helpers only. Estimators read the cost, the discount and the supergraph
from their sampler's ``instance`` and see ``Q`` only through the
:class:`CountingSampler`, which hands out next-state draws and tallies
every one. The tally is the sample-complexity meter that experiments
report. Samplers draw from the instance's :class:`TransitionTable`, the
renormalized positive rows of ``Q``, built once per instance and shared.

The truth, :func:`exact_value`, is value iteration with certified bounds;
the dense solve :func:`value_function` is the oracle it is tested against.

States are 0-based everywhere, including on disk.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ContractViolation
from .rng import as_entropy, derive_entropy, make_rng

ROW_SUM_TOL = 1e-12


def csr_rows(indptr: np.ndarray) -> np.ndarray:
    """Row of every stored entry of a CSR matrix with row pointers ``indptr``."""
    return np.repeat(np.arange(indptr.size - 1), np.diff(indptr))


def csr_row_blocks(indptr: np.ndarray):
    """Entry positions of a CSR matrix's non-empty rows, grouped by length:
    one (k, d) array for each row length d, whose rows are the positions of
    the k rows of that length, in row order."""
    degree = np.diff(indptr)
    rows = np.argsort(degree, kind="stable")
    lengths, first = np.unique(degree[rows], return_index=True)
    for d, group in zip(lengths.tolist(), np.split(rows, first[1:])):
        if d:
            yield indptr[group][:, None] + np.arange(d)


def csr_transpose(S: int, indices: np.ndarray) -> tuple:
    """(colptr, order) of a CSR matrix with S columns and column ``indices``.

    Column t holds the entries ``order[colptr[t]:colptr[t + 1]]`` in storage
    order, so its rows ascend: the stable argsort of ``indices``, found by one
    ``np.sort`` of (column, position) keys packed into int64s, several times faster.
    """
    colptr = np.concatenate(([0], np.cumsum(np.bincount(indices, minlength=S))))
    bits = indices.size.bit_length()
    keys = np.sort((indices << bits) | np.arange(indices.size))
    return colptr, keys & ((1 << bits) - 1)


def check_csr(S: int, indptr: np.ndarray, indices: np.ndarray) -> None:
    """Raise :class:`ContractViolation` naming the field
    (``supergraph.indptr`` or ``supergraph.indices``) unless the pair is a
    CSR matrix with S rows and S columns whose rows are strictly ascending."""
    if indptr.shape != (S + 1,) or indices.ndim != 1:
        raise ContractViolation(f"supergraph.indptr needs S + 1 = {S + 1} entries and supergraph.indices one dimension")
    if indptr[0] != 0 or indptr[-1] != indices.size or np.any(np.diff(indptr) < 0):
        raise ContractViolation(f"supergraph.indptr must rise from 0 to nnz = {indices.size} without decreasing")
    bad = (indices < 0) | (indices >= S)
    if bad.any():
        raise ContractViolation(f"supergraph.indices: {int(indices[np.argmax(bad)])} out of range for S={S}")
    # Rows and their columns are ascending together iff row * S + column is.
    rows = csr_rows(indptr)
    bad = np.diff(rows * S + indices) <= 0
    if bad.any():
        raise ContractViolation(f"supergraph.indices: row {int(rows[np.argmax(bad)])} is not strictly ascending")


def _store_read_only(obj, dtypes: dict) -> None:
    """Store each named field of the frozen dataclass ``obj`` as a read-only
    array of its dtype; an array that already has it is not copied."""
    for name, dtype in dtypes.items():
        try:
            arr = np.asarray(getattr(obj, name), dtype=dtype)
        except (OverflowError, ValueError) as exc:  # ragged nesting, or an entry that is no number
            raise ContractViolation(f"{name}: {exc}") from None
        arr.setflags(write=False)
        object.__setattr__(obj, name, arr)


@dataclass(frozen=True)
class Supergraph:
    """Adjacency structure: the out-edges of every state, in CSR form.

    Row s, ``indices[indptr[s]:indptr[s + 1]]``, lists the states s may
    transition to, strictly ascending; both arrays are read-only, and the
    constructor is the one place they are checked. Backward exploration
    reads the in-edges through :attr:`transpose`, derived from them on
    first use; :meth:`in_neighbors` and the in-degrees read it too.
    """

    S: int
    indptr: np.ndarray
    indices: np.ndarray

    def __post_init__(self):
        _store_read_only(self, {"indptr": np.int64, "indices": np.int64})
        check_csr(self.S, self.indptr, self.indices)

    @classmethod
    def from_mask(cls, mask: np.ndarray) -> "Supergraph":
        mask = np.asarray(mask, dtype=bool)
        return cls(mask.shape[0], np.concatenate(([0], np.cumsum(mask.sum(axis=1)))), np.nonzero(mask)[1])

    @cached_property
    def transpose(self) -> tuple:
        """(colptr, order, sources), built on first use by :func:`csr_transpose`:
        state t's in-edges are ``order[colptr[t]:colptr[t + 1]]``, and their
        sources, ascending, the same slice of ``sources``. Both lists hold
        Python ints, so a lookup is one list slice; ``order`` is read-only."""
        colptr, order = csr_transpose(self.S, self.indices)
        order.setflags(write=False)
        return colptr.tolist(), order, csr_rows(self.indptr)[order].tolist()

    def in_neighbors(self, t: int) -> list:
        """Every s with an edge to t, ascending, as a new list of Python ints."""
        colptr, _, sources = self.transpose
        return sources[colptr[t] : colptr[t + 1]]

    @property
    def in_degrees(self) -> np.ndarray:
        return np.diff(self.transpose[0])

    @property
    def avg_degree(self) -> float:
        """Mean in-degree (equally, mean out-degree)."""
        return self.indices.size / self.S

    def edge_mask(self) -> np.ndarray:
        """Dense S x S adjacency, an O(S^2) oracle for :func:`~epelab.backward.replay_invariant`."""
        mask = np.zeros((self.S, self.S), dtype=bool)
        mask[csr_rows(self.indptr), self.indices] = True
        return mask


class TransitionTable:
    """Transition rows in compressed sparse row (CSR) form; read-only.

    Row s occupies positions ``indptr[s]:indptr[s+1]`` of ``indices`` (the
    successor states, ascending), ``probs`` (their probabilities) and
    ``cum`` (the running sum of ``probs`` with its last entry clamped to
    1.0, so that every uniform in [0, 1) falls inside the row). A row
    without successors is empty; drawing from it raises
    :class:`ContractViolation`.

    Each row's floats are those of one ``np.cumsum`` over that row alone
    (a cumulative sum along the rows of a block is sequential), so a draw is
    bit-identical to ``searchsorted(cum_row, u, side="right")``
    capped at the row end. :meth:`draw_batch` is the one draw routine. The
    column channel's Python lookups (for :meth:`offset` and :meth:`row_probs`)
    are built on first use, so a table that only draws keeps no Python object
    of nnz size.
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, probs: np.ndarray):
        """Take the CSR arrays (not copied) and build ``cum``, a block of
        equal-length rows at a time."""
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.probs = np.asarray(probs, dtype=float)
        self.cum = np.empty_like(self.probs)
        for pos in csr_row_blocks(self.indptr):
            self.cum[pos] = np.cumsum(self.probs[pos], axis=1)
            self.cum[pos[:, -1]] = 1.0
        self._indptr = self.indptr.tolist()
        for arr in (self.indptr, self.indices, self.probs, self.cum):
            arr.setflags(write=False)
        # Binary-search passes that shrink the widest row to one entry.
        widest = int(np.diff(self.indptr).max()) if self.indptr.size > 1 else 0
        self._passes = max(widest - 1, 0).bit_length()

    @classmethod
    def from_rows(cls, S: int, rows: dict) -> "TransitionTable":
        """``rows`` maps a state to its row, a {successor: probability} dict
        with ascending keys (as :meth:`CountingSampler.sample_empirical_row`
        returns); states it omits get empty rows."""
        degree = np.zeros(S + 1, dtype=np.int64)
        indices, probs = [], []
        for s in sorted(rows):
            row = rows[s]
            degree[s + 1] = len(row)
            indices += row
            probs += row.values()
        return cls(np.cumsum(degree), np.array(indices, dtype=np.int64), np.array(probs, dtype=float))

    def row(self, s: int) -> tuple:
        """(successors, probabilities, cumulative) views of row s."""
        lo, hi = self._indptr[s], self._indptr[s + 1]
        if lo == hi:
            raise ContractViolation(f"state {s} has an all-zero transition row")
        return self.indices[lo:hi], self.probs[lo:hi], self.cum[lo:hi]

    @cached_property
    def _indices(self) -> list:
        return self.indices.tolist()

    @cached_property
    def _prob_rows(self) -> list:
        return [self.probs[lo:hi] for lo, hi in zip(self._indptr, self._indptr[1:])]

    def row_probs(self, s: int) -> np.ndarray:
        """Probabilities of row s, a view held by the table."""
        probs = self._prob_rows[s]
        if not probs.size:
            raise ContractViolation(f"state {s} has an all-zero transition row")
        return probs

    def offset(self, s: int, t: int) -> int:
        """Position of successor t within row s, or -1 if t is not in it."""
        lo, hi = self._indptr[s], self._indptr[s + 1]
        i = bisect_left(self._indices, t, lo, hi)
        return i - lo if i < hi and self._indices[i] == t else -1

    def draw_batch(self, states: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Successor of ``states[i]`` selected by ``u[i]`` in [0, 1), for all i.

        A binary search run over every row segment at once: the answer
        always lies in [lo, hi], and the clamped last entry (1.0 > u) keeps
        a converged search in place on the remaining passes.
        """
        lo = self.indptr[states]
        hi = self.indptr[states + 1] - 1
        if np.any(hi < lo):
            bad = int(states[np.argmax(hi < lo)])
            raise ContractViolation(f"state {bad} has an all-zero transition row")
        for _ in range(self._passes):
            mid = (lo + hi) >> 1
            right = self.cum[mid] <= u
            lo = np.where(right, mid + 1, lo)
            hi = np.where(right, hi, mid)
        return self.indices[lo]


@dataclass(frozen=True)
class ProblemInstance:
    """Ground truth for one evaluation problem: (S, alpha, cost, supergraph, Q).

    Q is stored on the supergraph's edges: ``q_values[i]`` is Q's entry on
    edge i, so with lo, hi = ``supergraph.indptr[s : s + 2]``, row s holds
    ``q_values[lo:hi]`` in the columns ``supergraph.indices[lo:hi]`` and
    0.0 everywhere else. An edge may carry 0.0; Q has no entry off the
    supergraph, so absolute continuity holds by construction.
    """

    S: int
    alpha: float
    cost: np.ndarray
    supergraph: Supergraph
    q_values: np.ndarray

    def __post_init__(self):
        _store_read_only(self, {"cost": float, "q_values": float})
        if self.supergraph.S != self.S:
            raise ContractViolation(f"supergraph has {self.supergraph.S} states, the instance S={self.S}")
        if self.q_values.shape != self.supergraph.indices.shape:
            raise ContractViolation(f"q_values has {self.q_values.size} entries for {self.supergraph.indices.size} edges")

    @classmethod
    def from_arrays(cls, alpha: float, cost, Q, supergraph: Supergraph | None = None) -> "ProblemInstance":
        """An instance of the dense matrix Q, stored on ``supergraph``
        (default: Q's nonzero pattern). A nonzero entry of Q off a given
        supergraph raises :class:`ContractViolation` naming the entry."""
        Q = np.asarray(Q, dtype=float)
        S = Q.shape[0]
        if Q.shape != (S, S) or supergraph is not None and supergraph.S != S:
            raise ContractViolation(f"Q must be square with one row per supergraph state, got shape {Q.shape}")
        supergraph = supergraph or Supergraph.from_mask(Q != 0)
        on_edge = supergraph.edge_mask()
        off = np.argwhere((Q != 0) & ~on_edge)
        if off.size:
            s, t = off[0].tolist()
            raise ContractViolation(f"Q[{s}, {t}] = {float(Q[s, t])!r} lies off the supergraph (absolute continuity)")
        return cls(S, float(alpha), np.array(cost, dtype=float), supergraph, Q[on_edge])

    def q_entries(self) -> tuple:
        """(rows, columns, values) of Q on every supergraph edge, row by row."""
        return csr_rows(self.supergraph.indptr), self.supergraph.indices, self.q_values

    @property
    def Q(self) -> np.ndarray:
        """A new dense S x S copy of Q, which costs O(S^2) time and memory on
        every access. For oracles and test helpers only: generation, the
        truth and every estimator read the CSR arrays."""
        Q = np.zeros((self.S, self.S))
        rows, indices, values = self.q_entries()
        Q[rows, indices] = values
        return Q

    @cached_property
    def transitions(self) -> TransitionTable:
        """The instance's one row table, built on first use and shared by
        every sampler on this instance.

        Row s holds the positive entries of Q's row s divided by their sum
        on the row's contiguous slice: the floats of ``Q[s, idx] / Q[s, idx].sum()``.
        """
        keep = self.q_values > 0
        probs = self.q_values[keep]
        indptr = np.concatenate(([0], np.cumsum(keep)))[self.supergraph.indptr]
        # A block's row sums are those of each row alone: one pairwise sum each.
        for pos in csr_row_blocks(indptr):
            block = probs[pos]
            probs[pos] = block / block.sum(axis=1, keepdims=True)
        return TransitionTable(indptr, self.supergraph.indices[keep], probs)

    @property
    def cost_inf(self) -> float:
        return float(np.max(self.cost)) if self.S else 0.0

    def min_positive_entry(self) -> float:
        positive = self.q_values[self.q_values > 0]
        if positive.size == 0:
            raise ContractViolation("transition matrix has no positive entries")
        return float(positive.min())


@dataclass(frozen=True)
class Violation:
    """One failed instance invariant, with the offending location."""

    kind: str
    where: tuple
    detail: str

    def __str__(self):
        return f"{self.kind} at {self.where}: {self.detail}"


def validate_instance(instance: ProblemInstance) -> list:
    """Check every instance invariant; return [] iff all hold.

    Validation never raises: callers get the full list of problems, each
    naming the invariant and the offending index pair. O(nnz + S).
    Absolute continuity is not checked here: the instance stores Q on its
    supergraph's edges, so it holds by construction.
    """
    out = []
    S, cost = instance.S, instance.cost
    if not (0.0 < instance.alpha < 1.0):
        out.append(Violation("discount_domain", (), f"alpha={instance.alpha} not in (0,1)"))
    if cost.shape != (S,):
        out.append(Violation("shape", cost.shape, f"cost must have length {S}"))
        return out

    rows, cols, values = instance.q_entries()
    row_sums = np.bincount(rows, weights=values, minlength=S)
    for s in np.flatnonzero(np.abs(row_sums - 1.0) > ROW_SUM_TOL):
        out.append(Violation("row_sum", (int(s),), f"row sums to {row_sums[s]!r}"))
    for i in np.flatnonzero(values < 0):
        out.append(Violation("negative_entry", (int(rows[i]), int(cols[i])), f"Q entry {values[i]!r}"))
    for s in np.flatnonzero(cost < 0):
        out.append(Violation("negative_cost", (int(s),), f"cost entry {cost[s]!r}"))
    return out


def densify(rows: dict, out: np.ndarray) -> np.ndarray:
    """Replace row s of the dense matrix ``out`` by the sparse row
    ``rows[s]`` ({successor: probability}) for every s in ``rows``; returns
    ``out``."""
    for s, row in rows.items():
        out[s] = 0.0
        out[s, list(row)] = list(row.values())
    return out


def value_function(Q: np.ndarray, cost: np.ndarray, alpha: float) -> np.ndarray:
    """Value of a row-stochastic matrix by an O(S^3) dense solve: the oracle for :func:`exact_value`."""
    return np.linalg.solve(np.eye(Q.shape[0]) - alpha * Q, (1.0 - alpha) * cost)


def discounted_occupancy(P: np.ndarray, alpha: float) -> np.ndarray:
    """Row s is the distribution of a geometric-length walk from s under P."""
    S = P.shape[0]
    return (1.0 - alpha) * np.linalg.inv(np.eye(S) - alpha * P)


def certified_value(rows, indices, values, cost: np.ndarray, alpha: float) -> np.ndarray:
    """Value of the stochastic matrix with stored entries (rows, indices, values)
    by value iteration with MacQueen's bounds: after a sweep w = c + alpha Q v, with
    c = (1 - alpha) cost, d = w - v and k = alpha / (1 - alpha), the value lies in
    [w + k min d, w + k max d]. Returns their midpoint once they are tau = 2^-50
    max(||c||_inf, 1) apart (rate alpha |lambda_2| on ergodic chains), or after T
    sweeps with alpha^T <= 2^-50 (rate alpha if periodic or reducible). A sweep adds
    alpha Q d to w by compensated summation; w - v would magnify w's rounding by k."""
    if not 0.0 < alpha < 1.0:
        raise ContractViolation(f"alpha must lie in (0, 1), got {alpha}")
    c = (1.0 - alpha) * cost
    tau = 2.0**-50 * max(float(np.max(np.abs(c))), 1.0)
    k = alpha / (1.0 - alpha)
    w, d, carry = c, c, 0.0
    for _ in range(math.ceil(math.log(2.0**-50) / math.log(alpha))):
        d = alpha * np.bincount(rows, values * d[indices], minlength=c.size)
        lo, hi = k * float(d.min()), k * float(d.max())
        step = d - carry
        total = w + step
        carry, w = (total - w) - step, total
        if hi - lo <= tau:
            break
    return w + ((lo + hi) / 2.0 - carry)


def exact_value(instance: ProblemInstance) -> np.ndarray:
    """The truth: :func:`certified_value` on the CSR arrays, in O(nnz) memory."""
    return certified_value(*instance.q_entries(), instance.cost, instance.alpha)


def exact_value_power_series(instance: ProblemInstance, T: int) -> np.ndarray:
    """Truncated series (1-a) * sum_{t<T} a^t Q^t c; bias at most ||c||_inf a^T."""
    if T < 1:
        raise ContractViolation(f"T must be >= 1, got {T}")
    alpha, (rows, indices, values) = instance.alpha, instance.q_entries()
    term = instance.cost.copy()
    acc = (1.0 - alpha) * term
    scale = 1.0
    for _ in range(1, T):
        term = np.bincount(rows, values * term[indices], minlength=term.size)  # Q @ term
        scale *= alpha
        acc = acc + (1.0 - alpha) * scale * term
    return acc


@dataclass
class EstimateReport:
    """What an estimator hands back: the estimate plus its cost accounting.

    ``samples_used`` must equal the sampler's draw-count delta for the run.
    ``iterations`` is the push count for push algorithms and the trajectory
    count for trajectory averaging. ``encountered_size`` is only meaningful
    for backward-style runs.
    """

    estimate: np.ndarray
    samples_used: int
    iterations: int
    encountered_size: int | None = None
    trace: object | None = None
    diagnostics: dict = field(default_factory=dict)


class CountingSampler:
    """The only channel through which estimators observe the chain.

    Wraps one seeded stream. ``sample_next_batch`` draws a successor of each
    state s, distributed as Q(s, .), and bumps ``draw_count`` by 1 per state;
    the row and column channels bump it by the number of draws they represent. Two
    samplers built with the same seed produce identical draw sequences for
    identical call sequences.

    Rows come from the instance's read-only :class:`TransitionTable`,
    built once per instance and shared by every sampler and spawned child;
    a sampler keeps no row state of its own. The stream and the tally are
    single-owner mutable state: give each concurrent run its own sampler
    (or a spawned child) rather than sharing one.
    """

    def __init__(self, instance: ProblemInstance, seed):
        self.instance = instance
        self.table = instance.transitions
        self._entropy = as_entropy(seed)
        self.rng = make_rng(self._entropy)
        self.draw_count = 0

    def _check_state(self, s: int):
        if not 0 <= s < self.instance.S:
            raise ContractViolation(f"state index {s} out of range [0, {self.instance.S})")

    def sample_next(self, s: int) -> int:
        """One draw from Q(s, .) as a one-element batch; off the trial path, kept for ``bench/spans.py``."""
        return int(self.sample_next_batch([s])[0])

    def sample_next_batch(self, states: np.ndarray) -> np.ndarray:
        """Vectorized successor draws, one per entry; counts len(states) samples.

        Consumes the underlying uniform stream in element order, so the
        result matches a sequence of single-draw calls.
        """
        states = np.asarray(states, dtype=np.int64)
        if states.size and (states.min() < 0 or states.max() >= self.instance.S):
            raise ContractViolation("state index out of range in batch")
        out = self.table.draw_batch(states, self.rng.random(states.size))
        self.draw_count += int(states.size)
        return out

    def sample_empirical_row(self, s: int, n: int) -> dict:
        """Estimate Q(s, .) from n draws; counts n samples.

        Returns the empirical distribution as a sparse {state: frequency}
        map. Uses a multinomial on the row support, so large n costs O(d),
        not O(n).
        """
        if n < 1:
            raise ContractViolation(f"per-state sample count must be >= 1, got {n}")
        self._check_state(int(s))
        idx, probs, _ = self.table.row(int(s))
        counts = self.rng.multinomial(n, probs)
        self.draw_count += int(n)
        return {t: c / n for t, c in zip(idx.tolist(), counts.tolist()) if c > 0}

    def sample_empirical_column(self, states, t: int, n: int) -> dict:
        """Estimate Q(s, t) from n fresh draws for each s in ``states``;
        counts n samples per state.

        Each state, in order, draws the same multinomial as
        :meth:`sample_empirical_row`, so the result equals
        ``{s: sample_empirical_row(s, n).get(t, 0.0)}`` and the stream ends
        in the same place; only the entry at t is read out of each row.
        """
        if n < 1:
            raise ContractViolation(f"per-state sample count must be >= 1, got {n}")
        table, multinomial = self.table, self.rng.multinomial
        column = {}
        for s in state_list(states):
            self._check_state(s)
            counts = multinomial(n, table.row_probs(s))
            self.draw_count += int(n)
            i = table.offset(s, t)
            column[s] = int(counts[i]) / n if i >= 0 else 0.0
        return column

    def derive(self, *labels) -> np.random.Generator:
        """Independent auxiliary stream tied to this sampler's seed."""
        return make_rng(derive_entropy(self._entropy, *labels))

    def spawn(self, *labels) -> "CountingSampler":
        """Child sampler with its own stream and a fresh draw tally; off the trial path, kept for ``bench/spans.py``."""
        return CountingSampler(self.instance, derive_entropy(self._entropy, *labels))


def state_list(states) -> list:
    """States as a list of Python ints: a list is taken as it is, anything
    else converts through numpy in one call."""
    return states if isinstance(states, list) else np.asarray(states).tolist()


def instance_to_dict(instance: ProblemInstance) -> dict:
    """The instance as a JSON-ready document: the supergraph in CSR form and
    Q's value on each of its edges."""
    sg = instance.supergraph
    return {
        "S": instance.S,
        "alpha": instance.alpha,
        "cost": instance.cost.tolist(),
        "supergraph": {"indptr": sg.indptr.tolist(), "indices": sg.indices.tolist()},
        "q_values": instance.q_values.tolist(),
    }


def _integers(doc: dict, key: str) -> list:
    """``doc[key]``, refused unless a list of ints (not bools, which numpy reads as 0 or 1)."""
    entries = doc[key]
    if not isinstance(entries, list) or not all(type(t) is int for t in entries):
        raise ContractViolation(f"supergraph.{key}: every entry must be an integer")
    return entries


def instance_from_dict(doc: dict) -> ProblemInstance:
    """Inverse of :func:`instance_to_dict`. A malformed CSR field, an index
    or pointer entry that is not an integer, or a field of the older form
    that kept Q's own index pair raises :class:`ContractViolation` naming
    the field."""
    for key in ("q_indptr", "q_indices"):
        if key in doc:
            raise ContractViolation(f"{key}: no longer read; Q is stored as q_values on the supergraph's edges")
    S, graph = int(doc["S"]), doc["supergraph"]
    sg = Supergraph(S, _integers(graph, "indptr"), _integers(graph, "indices"))
    return ProblemInstance(S, float(doc["alpha"]), doc["cost"], sg, doc["q_values"])


def save_instance(instance: ProblemInstance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(instance_to_dict(instance)))  # json.dump would skip the C encoder


def load_instance(path) -> ProblemInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_dict(json.load(fh))
