"""Problem instances, the draw-counting access model, and exact value oracles.

A problem instance is a discounted Markov chain: a row-stochastic
transition matrix ``Q``, a nonnegative cost vector, a discount factor in
(0, 1), and a binary supergraph whose edge set contains the support of
``Q``. Estimators never read ``Q`` directly; they see it only through a
:class:`CountingSampler`, which hands out next-state draws and tallies
every one. The tally is the sample-complexity meter that experiments
report. Samplers draw from the instance's :class:`TransitionTable`, the
rows of ``Q`` in CSR form, built once per instance and shared.

The exact solvers here (:func:`exact_value`,
:func:`exact_value_power_series`) are the ground truth that every
estimator and test is measured against.

States are 0-based everywhere, including on disk.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ContractViolation
from .rng import as_entropy, derive_entropy, make_rng

ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class Supergraph:
    """Adjacency structure giving, for each state, who can reach it in one step.

    ``out_edges[s]`` lists the states s may transition to; ``in_neighbors[s]``
    is the exact transpose. Backward exploration iterates ``in_neighbors``,
    so both orientations are precomputed and kept sorted.
    """

    S: int
    out_edges: tuple
    in_neighbors: tuple
    in_degrees: np.ndarray
    avg_degree: float

    @classmethod
    def from_out_edges(cls, S: int, out_edges) -> "Supergraph":
        outs = tuple(np.array(sorted(int(t) for t in row), dtype=np.int64) for row in out_edges)
        if len(outs) != S:
            raise ContractViolation(f"expected {S} out-edge rows, got {len(outs)}")
        sources, targets = _edge_arrays(outs)
        return cls._from_edges(S, outs, sources, targets)

    @classmethod
    def from_mask(cls, mask: np.ndarray) -> "Supergraph":
        mask = np.asarray(mask)
        S = mask.shape[0]
        sources, targets = np.divmod(np.flatnonzero(mask), mask.shape[1])
        return cls._from_edges(S, tuple(_split_rows(targets, sources, S)), sources, targets)

    @classmethod
    def _from_edges(cls, S: int, outs: tuple, sources: np.ndarray, targets: np.ndarray) -> "Supergraph":
        """``outs`` are the ascending out-edge rows; ``sources`` and
        ``targets`` list the same edges row by row."""
        bad = (targets < 0) | (targets >= S)
        if bad.any():
            raise ContractViolation(f"edge target {int(targets[np.argmax(bad)])} out of range for S={S}")
        in_degrees = np.bincount(targets, minlength=S).astype(np.int64)
        in_degrees.setflags(write=False)
        return cls(
            S=S,
            out_edges=outs,
            in_neighbors=_in_rows(S, sources, targets),
            in_degrees=in_degrees,
            avg_degree=float(in_degrees.mean()),
        )

    def edge_mask(self) -> np.ndarray:
        m = np.zeros((self.S, self.S), dtype=bool)
        for s, row in enumerate(self.out_edges):
            m[s, row] = True
        return m


def _split_rows(values: np.ndarray, keys: np.ndarray, S: int) -> list:
    """Split ``values`` into S runs by their ascending ``keys`` in [0, S)."""
    return np.split(values, np.searchsorted(keys, np.arange(1, S)))[:S]


def _edge_arrays(rows) -> tuple:
    """(sources, targets) of every edge of the out-edge ``rows``, row by row."""
    rows = [np.asarray(row, dtype=np.int64) for row in rows]
    targets = np.concatenate(rows) if rows else np.zeros(0, dtype=np.int64)
    return np.repeat(np.arange(len(rows), dtype=np.int64), [row.size for row in rows]), targets


def _in_rows(S: int, sources: np.ndarray, targets: np.ndarray) -> tuple:
    # A stable sort by target keeps each target's sources ascending.
    order = np.argsort(targets, kind="stable")
    return tuple(_split_rows(sources[order], targets[order], S))


def transpose_rows(S: int, rows) -> tuple:
    """In-neighbor arrays of the out-edge ``rows`` of an S-state graph.

    Entry t lists, in ascending order, every s whose row holds t (a state
    repeated in a row is listed as often). One stable sort of the edge
    list replaces a per-edge Python loop.
    """
    return _in_rows(S, *_edge_arrays(rows))


class TransitionTable:
    """Transition rows in compressed sparse row (CSR) form; read-only.

    Row s occupies positions ``indptr[s]:indptr[s+1]`` of ``indices`` (the
    successor states, ascending), ``probs`` (their probabilities) and
    ``cum`` (the running sum of ``probs`` with its last entry clamped to
    1.0, so that every uniform in [0, 1) falls inside the row). A row
    without successors is empty; drawing from it raises
    :class:`ContractViolation`.

    Each row's floats come from one ``np.cumsum`` over that row alone, so a
    draw is bit-identical to ``searchsorted(cum_row, u, side="right")``
    capped at the row end. Scalar draws bisect Python-list copies of the
    arrays, which is several times cheaper than a numpy scalar call.
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, probs: np.ndarray):
        """Take the CSR arrays (not copied) and build ``cum`` row by row."""
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.probs = np.asarray(probs, dtype=float)
        self.cum = np.empty_like(self.probs)
        self._indptr = self.indptr.tolist()
        for lo, hi in zip(self._indptr, self._indptr[1:]):
            if hi > lo:
                np.cumsum(self.probs[lo:hi], out=self.cum[lo:hi])
                self.cum[hi - 1] = 1.0
        for arr in (self.indptr, self.indices, self.probs, self.cum):
            arr.setflags(write=False)
        self._indices = self.indices.tolist()
        self._cum = self.cum.tolist()
        # Binary-search passes that shrink the widest row to one entry.
        widest = int(np.diff(self.indptr).max()) if self.indptr.size > 1 else 0
        self._passes = max(widest - 1, 0).bit_length()

    @classmethod
    def from_rows(cls, S: int, rows: dict) -> "TransitionTable":
        """``rows`` maps a state to (ascending successors, probabilities);
        states it omits get empty rows."""
        degree = np.zeros(S + 1, dtype=np.int64)
        indices, probs = [], []
        for s in sorted(rows):
            idx, p = rows[s]
            degree[s + 1] = len(idx)
            indices += idx
            probs += p
        return cls(np.cumsum(degree), np.array(indices, dtype=np.int64), np.array(probs, dtype=float))

    @classmethod
    def from_matrix(cls, Q: np.ndarray) -> "TransitionTable":
        """Rows of a dense matrix: the positive entries of each row,
        renormalized to sum to one.

        One ``np.flatnonzero`` pass finds every entry; each row is then
        divided by its own sum on its contiguous slice, the floats of
        ``Q[s, idx] / Q[s, idx].sum()``.
        """
        S = Q.shape[0]
        flat = np.flatnonzero(Q > 0)
        sources, indices = np.divmod(flat, Q.shape[1])
        probs = Q[sources, indices]
        indptr = np.searchsorted(sources, np.arange(S + 1))
        bounds = indptr.tolist()
        for lo, hi in zip(bounds, bounds[1:]):
            if hi > lo:
                row = probs[lo:hi]
                row /= row.sum()
        return cls(indptr, indices, probs)

    def row(self, s: int) -> tuple:
        """(successors, probabilities, cumulative) views of row s."""
        lo, hi = self._indptr[s], self._indptr[s + 1]
        if lo == hi:
            raise ContractViolation(f"state {s} has an all-zero transition row")
        return self.indices[lo:hi], self.probs[lo:hi], self.cum[lo:hi]

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

    def draw(self, s: int, u: float) -> int:
        """Successor of s selected by the uniform u in [0, 1)."""
        lo, hi = self._indptr[s], self._indptr[s + 1]
        if lo == hi:
            raise ContractViolation(f"state {s} has an all-zero transition row")
        # Searching [lo, hi - 1) caps the position at the row's last entry.
        return self._indices[bisect_right(self._cum, u, lo, hi - 1)]

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
    """Ground truth for one evaluation problem: (S, alpha, cost, Q, supergraph)."""

    S: int
    alpha: float
    cost: np.ndarray
    Q: np.ndarray
    supergraph: Supergraph

    def __post_init__(self):
        self.cost.setflags(write=False)
        self.Q.setflags(write=False)

    @classmethod
    def from_arrays(cls, alpha: float, cost, Q, supergraph: Supergraph | None = None) -> "ProblemInstance":
        Q = np.array(Q, dtype=float)
        cost = np.array(cost, dtype=float)
        S = Q.shape[0]
        if supergraph is None:
            supergraph = Supergraph.from_mask(Q > 0)
        return cls(S=S, alpha=float(alpha), cost=cost, Q=Q, supergraph=supergraph)

    @cached_property
    def transitions(self) -> TransitionTable:
        """The instance's one row table, built on first use and shared by
        every sampler on this instance."""
        return TransitionTable.from_matrix(self.Q)

    @property
    def cost_inf(self) -> float:
        return float(np.max(self.cost)) if self.S else 0.0

    def min_positive_entry(self) -> float:
        positive = self.Q[self.Q > 0]
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

    Validation never raises: callers get the full list of problems,
    each naming the invariant and the offending index pair.
    """
    out = []
    S, Q, cost, sg = instance.S, instance.Q, instance.cost, instance.supergraph
    if not (0.0 < instance.alpha < 1.0):
        out.append(Violation("discount_domain", (), f"alpha={instance.alpha} not in (0,1)"))
    if Q.shape != (S, S):
        out.append(Violation("shape", Q.shape, f"Q must be {S}x{S}"))
        return out
    if cost.shape != (S,):
        out.append(Violation("shape", cost.shape, f"cost must have length {S}"))
        return out

    row_sums = Q.sum(axis=1)
    for s in np.flatnonzero(np.abs(row_sums - 1.0) > ROW_SUM_TOL):
        out.append(Violation("row_sum", (int(s),), f"row sums to {row_sums[s]!r}"))
    neg_q = np.argwhere(Q < 0)
    for s, t in neg_q:
        out.append(Violation("negative_entry", (int(s), int(t)), f"Q entry {Q[s, t]!r}"))
    for s in np.flatnonzero(cost < 0):
        out.append(Violation("negative_cost", (int(s),), f"cost entry {cost[s]!r}"))

    mask = sg.edge_mask()
    leaked = np.argwhere((~mask) & (Q > 0))
    for s, t in leaked:
        out.append(
            Violation(
                "absolute_continuity",
                (int(s), int(t)),
                f"supergraph has no edge but Q={Q[s, t]!r}",
            )
        )

    # Supergraph internal consistency (transpose, degrees, average).
    incoming = transpose_rows(S, sg.out_edges)
    for s in range(S):
        if not np.array_equal(incoming[s], sg.in_neighbors[s]):
            out.append(Violation("in_neighbor_transpose", (s,), "in_neighbors is not the transpose"))
        if sg.in_degrees[s] != len(sg.in_neighbors[s]):
            out.append(Violation("in_degree", (s,), "d_in(s) != |N_in(s)|"))
    if S and abs(sg.avg_degree - float(np.mean(sg.in_degrees))) > 1e-12:
        out.append(Violation("avg_degree", (), "avg_degree is not the mean in-degree"))
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
    """Discounted value of an arbitrary row-stochastic matrix, by dense solve.

    I - alpha Q is built in one S x S array: 0.0 - alpha Q (which keeps
    zero entries +0.0, unlike -alpha Q), then 1.0 added on the diagonal.
    Each entry equals that of ``np.eye(S) - alpha * Q``.
    """
    A = alpha * Q
    np.subtract(0.0, A, out=A)
    A.flat[:: Q.shape[0] + 1] += 1.0
    return np.linalg.solve(A, (1.0 - alpha) * cost)


def discounted_occupancy(P: np.ndarray, alpha: float) -> np.ndarray:
    """Row s is the distribution of a geometric-length walk from s under P."""
    S = P.shape[0]
    return (1.0 - alpha) * np.linalg.inv(np.eye(S) - alpha * P)


def exact_value(instance: ProblemInstance) -> np.ndarray:
    """Solve (I - alpha Q) v = (1 - alpha) c directly."""
    return value_function(instance.Q, instance.cost, instance.alpha)


def exact_value_power_series(instance: ProblemInstance, T: int) -> np.ndarray:
    """Truncated series (1-a) * sum_{t<T} a^t Q^t c; bias at most ||c||_inf a^T."""
    if T < 1:
        raise ContractViolation(f"T must be >= 1, got {T}")
    alpha, Q = instance.alpha, instance.Q
    term = instance.cost.copy()
    acc = (1.0 - alpha) * term
    scale = 1.0
    for _ in range(1, T):
        term = Q @ term
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

    Wraps one seeded stream. ``sample_next`` draws a successor of ``s``
    distributed as Q(s, .) and bumps ``draw_count`` by exactly 1; the batch,
    row and column channels bump it by the number of draws they represent. Two
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
        """One draw from Q(s, .); counts as one sample."""
        s = int(s)
        self._check_state(s)
        t = self.table.draw(s, self.rng.random())
        self.draw_count += 1
        return t

    def sample_next_batch(self, states: np.ndarray, uniforms: np.ndarray | None = None) -> np.ndarray:
        """Vectorized successor draws, one per entry; counts len(states) samples.

        Consumes the underlying uniform stream in element order, so the
        result matches a sequence of single-draw calls. A caller that keeps
        its own streams may pass ``uniforms`` (one in [0, 1) per state);
        entry i is then ``table.draw(states[i], uniforms[i])`` and this
        sampler's stream is left untouched. The draws are charged all the
        same.
        """
        states = np.asarray(states, dtype=np.int64)
        if states.size and (states.min() < 0 or states.max() >= self.instance.S):
            raise ContractViolation("state index out of range in batch")
        if uniforms is None:
            uniforms = self.rng.random(states.size)
        elif np.shape(uniforms) != states.shape:
            raise ContractViolation(f"{np.size(uniforms)} uniforms for {states.size} states")
        out = self.table.draw_batch(states, uniforms)
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
        """Child sampler with its own stream and a fresh draw tally."""
        return CountingSampler(self.instance, derive_entropy(self._entropy, *labels))


def state_list(states) -> list:
    """States as a list of Python ints; numpy arrays convert in one call."""
    if isinstance(states, np.ndarray):
        return states.tolist()
    return [int(s) for s in states]


def instance_to_dict(instance: ProblemInstance) -> dict:
    return {
        "S": instance.S,
        "alpha": instance.alpha,
        "cost": instance.cost.tolist(),
        "Q": [row.tolist() for row in instance.Q],
        "supergraph": [row.tolist() for row in instance.supergraph.out_edges],
    }


def instance_from_dict(doc: dict) -> ProblemInstance:
    S = int(doc["S"])
    sg = Supergraph.from_out_edges(S, doc["supergraph"])
    return ProblemInstance(
        S=S,
        alpha=float(doc["alpha"]),
        cost=np.array(doc["cost"], dtype=float),
        Q=np.array(doc["Q"], dtype=float),
        supergraph=sg,
    )


def save_instance(instance: ProblemInstance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_dict(instance), fh)


def load_instance(path) -> ProblemInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_dict(json.load(fh))
