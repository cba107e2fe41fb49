"""Problem instances, the draw-counting access model, and the exact value.

A problem instance is a discounted Markov chain: a row-stochastic
transition matrix ``Q``, a nonnegative cost vector, a discount factor in
(0, 1), and a binary supergraph whose edge set contains the support of
``Q``. The supergraph is one CSR pair of out-edges, checked once when it
is built, and ``Q`` is stored on its edges: one finite value per edge,
0.0 allowed, so ``Q``'s support lies in the supergraph by construction. The
supergraph's one transpose, which every push estimator reads, is derived
on first use. Every CSR structure here (the supergraph, its transpose, the
row table, the in-edge probabilities) is held in read-only numpy arrays and
in no other form: a reader converts only the slice it reads with
``tolist``. Validation, the JSON form and the truth read the CSR arrays
too; the dense view :attr:`ProblemInstance.Q` is for oracles and test
helpers only, and like every oracle in :mod:`epelab.oracles` it calls
:func:`check_dense_size` before it allocates an S x S array.
Estimators read the cost, the discount and the supergraph
from their sampler's ``instance`` and see ``Q`` only through the
:class:`CountingSampler`, which hands out next-state draws and tallies
every one. The tally is the sample-complexity meter that experiments
report. Samplers draw from the instance's :class:`TransitionTable`, the
positive entries of ``Q``'s rows as stored, built once per instance and
shared; it refuses a row that is no probability distribution, by the rule
:func:`validate_instance` applies. On a generated instance the table is
the supergraph's arrays and ``q_values`` themselves. The column channel,
which re-estimates the column Q(., t) over t's in-edges, reads ``q_values``
gathered into transpose order (:attr:`ProblemInstance.in_edge_probs`),
built on that channel's first use, and so does the known-matrix row
source, :class:`~epelab.push.ExactRows`.

The truth, :func:`exact_value`, is value iteration with certified bounds;
the dense solve :func:`~epelab.oracles.value_function` is the oracle it is
tested against.

Every JSON input, instance or experiment config, is read by
:func:`read_json` and checked by :func:`read_fields`, one strict reader.

States are 0-based everywhere, including on disk.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ContractViolation
from .rng import as_entropy, derive_entropy, make_rng

ROW_SUM_TOL = 1e-12
DENSE_ORACLE_MAX_S = 1000  # the dense S x S oracles refuse larger S (8 MB per float matrix)


def check_dense_size(S: int) -> None:
    """Raise :class:`ContractViolation` if S is above ``DENSE_ORACLE_MAX_S``;
    every S x S array is allocated only after this check."""
    if S > DENSE_ORACLE_MAX_S:
        raise ContractViolation(f"S={S} is above DENSE_ORACLE_MAX_S={DENSE_ORACLE_MAX_S} for a dense oracle")


def csr_rows(indptr: np.ndarray) -> np.ndarray:
    """Row of every stored entry of a CSR matrix with row pointers ``indptr``."""
    return np.repeat(np.arange(indptr.size - 1), np.diff(indptr))


def stable_order(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` of non-negative integer keys, sorted in
    the smallest unsigned type that holds the largest, so that numpy's stable
    sort is a radix sort (up to 16 bits): 4.7 ms against 56 ms for the row
    degrees at S = 10^6, p 10, 0.25 ms against 1.7 ms for 34,400 walk lengths."""
    return np.argsort(keys.astype(np.min_scalar_type(keys.max())), kind="stable")


def csr_row_blocks(indptr: np.ndarray):
    """Entry positions of a CSR matrix's non-empty rows, grouped by length:
    one (k, d) array for each row length d, whose rows are the positions of
    the k rows of that length, in row order (:func:`stable_order`)."""
    degree = np.diff(indptr)
    rows = stable_order(degree)
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
    """Raise :class:`ContractViolation` naming the field (``supergraph.indptr``
    or ``supergraph.indices``) unless the pair is a CSR matrix with S rows
    and S columns, S a checked count, whose rows are strictly ascending."""
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
        object.__setattr__(self, "S", check_count("S", self.S))
        check_csr(self.S, self.indptr, self.indices)

    @classmethod
    def from_mask(cls, mask: np.ndarray) -> "Supergraph":
        mask = np.asarray(mask, dtype=bool)
        return cls(mask.shape[0], np.concatenate(([0], np.cumsum(mask.sum(axis=1)))), np.nonzero(mask)[1])

    @cached_property
    def transpose(self) -> tuple:
        """(colptr, order, sources), three read-only int64 arrays built on first
        use by :func:`csr_transpose`: state t's in-edges are
        ``order[colptr[t]:colptr[t + 1]]``, and their sources, ascending, the
        same slice of ``sources``. A reader converts only the slice it reads."""
        colptr, order = csr_transpose(self.S, self.indices)
        arrays = colptr, order, csr_rows(self.indptr)[order]
        for arr in arrays:
            arr.setflags(write=False)
        return arrays

    def in_neighbors(self, t: int) -> list:
        """Every s with an edge to t, ascending, as a new list of Python ints."""
        colptr, _, sources = self.transpose
        return sources[colptr[t] : colptr[t + 1]].tolist()

    @property
    def in_degrees(self) -> np.ndarray:
        return np.diff(self.transpose[0])

    @property
    def avg_degree(self) -> float:
        """Mean in-degree (equally, mean out-degree)."""
        return self.indices.size / self.S


class TransitionTable:
    """Transition rows in compressed sparse row (CSR) form, read-only, on the arrays given (not copied).

    Row s occupies positions ``indptr[s]:indptr[s+1]`` of ``indices`` (the
    successor states, ascending) and ``probs`` (their probabilities). A row
    without successors is empty; only the walk stage's stored table has
    such rows, and it draws from stored rows alone.

    :meth:`draw_batch`, a branchless lifting search, is the one draw routine
    and reads :attr:`cum`; :meth:`row` hands the row channel its views. The
    table keeps nothing beyond its arrays.
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, probs: np.ndarray):
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.probs = np.asarray(probs, dtype=float)
        for arr in (self.indptr, self.indices, self.probs):
            arr.setflags(write=False)
        # Search passes: their steps, 2^(passes-1) down to 1, sum to at least
        # the widest row's width minus one.
        self._passes = max(int(np.diff(self.indptr).max()) - 1, 0).bit_length()

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

    @cached_property
    def cum(self) -> np.ndarray:
        """Each row's running sum of ``probs``, its last entry clamped to 1.0; built by the first batch
        draw, with the floats of one ``np.cumsum`` per row (a sum along a block's rows is sequential)."""
        cum = np.empty_like(self.probs)
        for pos in csr_row_blocks(self.indptr):
            cum[pos] = np.cumsum(self.probs[pos], axis=1)
            cum[pos[:, -1]] = 1.0
        cum.setflags(write=False)
        return cum

    def row(self, s: int) -> tuple:
        """(successors, probabilities) views of row s."""
        lo, hi = self.indptr[s : s + 2].tolist()
        return self.indices[lo:hi], self.probs[lo:hi]

    def draw_batch(self, states: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Successor of ``states[i]`` selected by ``u[i]`` in [0, 1), for all i;
        every row drawn from has an entry.

        A branchless lifting search run over every row segment at once. The
        entries of a row with ``cum <= u`` are a prefix of it, because the
        clamped last entry is 1.0 > u. Each pass halves ``step`` and adds it
        to ``pos`` where the entry at ``pos + step - 1`` has ``cum <= u``,
        keeping "every entry before ``pos`` has ``cum <= u``". The steps sum
        to at least the row width minus one, so the search ends at the row
        start plus the length of that prefix: ``searchsorted(side="right")``.
        A candidate past the row end is clipped to its last entry, which
        never advances. The add is a product, not a select, so no pass
        branches on the data.
        """
        pos = self.indptr[states]
        last = self.indptr[states + 1] - 1
        step = 1 << self._passes
        for _ in range(self._passes):
            step >>= 1
            candidate = pos + (step - 1)
            np.minimum(candidate, last, out=candidate)
            pos += (self.cum.take(candidate) <= u) * step
        return self.indices.take(pos)


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
        object.__setattr__(self, "S", check_count("S", self.S))
        object.__setattr__(self, "alpha", check_number("alpha", self.alpha))
        if self.supergraph.S != self.S:
            raise ContractViolation(f"supergraph has {self.supergraph.S} states, the instance S={self.S}")
        if self.q_values.shape != self.supergraph.indices.shape:
            raise ContractViolation(f"q_values has {self.q_values.size} entries for {self.supergraph.indices.size} edges")
        if self.cost.shape != (self.S,):
            raise ContractViolation(f"cost has shape {self.cost.shape}, the instance S={self.S} needs ({self.S},)")
        for name, values in (("cost", self.cost), ("q_values", self.q_values)):
            bad = np.flatnonzero(~np.isfinite(values))
            if bad.size:
                raise ContractViolation(f"{name}: entry {bad[0]} is {float(values[bad[0]])!r}, not finite")

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
        rows = csr_rows(supergraph.indptr)
        values = Q[rows, supergraph.indices]
        if np.count_nonzero(values) != np.count_nonzero(Q):
            off = Q != 0
            off[rows, supergraph.indices] = False
            s, t = np.argwhere(off)[0].tolist()
            raise ContractViolation(f"Q[{s}, {t}] = {float(Q[s, t])!r} lies off the supergraph (absolute continuity)")
        return cls(S, alpha, np.array(cost, dtype=float), supergraph, values)

    def q_entries(self) -> tuple:
        """(rows, columns, values) of Q on every supergraph edge, row by row."""
        return csr_rows(self.supergraph.indptr), self.supergraph.indices, self.q_values

    @property
    def Q(self) -> np.ndarray:
        """A new dense S x S copy of Q, which costs O(S^2) time and memory on
        every access, and is refused above ``DENSE_ORACLE_MAX_S``. For oracles
        and test helpers only: generation, the truth and every estimator read
        the CSR arrays."""
        check_dense_size(self.S)
        Q = np.zeros((self.S, self.S))
        rows, indices, values = self.q_entries()
        Q[rows, indices] = values
        return Q

    @cached_property
    def transitions(self) -> TransitionTable:
        """The instance's one row table, built on first use and shared by
        every sampler on this instance.

        Row s holds the positive entries of Q's row s as stored. When every
        edge carries a positive entry, as on every generated instance, the
        table's arrays are the supergraph's pair and ``q_values`` themselves;
        only zero edges make it a compressed copy. A row with no positive
        entry raises :class:`ContractViolation` naming its state, and a row
        that :func:`row_violations` refuses raises one naming the first
        violation, so no sampler is built on such an instance.
        """
        keep = self.q_values > 0
        if keep.all():
            indptr, indices, probs = self.supergraph.indptr, self.supergraph.indices, self.q_values
        else:
            indptr = np.concatenate(([0], np.cumsum(keep)))[self.supergraph.indptr]
            indices, probs = self.supergraph.indices[keep], self.q_values[keep]
        empty = np.flatnonzero(np.diff(indptr) == 0)
        if empty.size:
            raise ContractViolation(f"state {empty[0]} has an all-zero transition row")
        violations = row_violations(self)
        if violations:
            raise ContractViolation(f"invalid instance: {violations[0]}")
        return TransitionTable(indptr, indices, probs)

    @cached_property
    def in_edge_probs(self) -> np.ndarray:
        """``q_values`` gathered in transpose order: Q's entries on t's
        in-edges at ``colptr[t]:colptr[t + 1]``, 0.0 on a zero edge. A
        read-only float64 array, built on the column channel's first use,
        after :attr:`transitions`, so it refuses every row the table
        refuses; the channel converts the slice it reads."""
        self.transitions  # the table's refusals come first
        probs = self.q_values[self.supergraph.transpose[1]]
        probs.setflags(write=False)
        return probs

    @property
    def cost_inf(self) -> float:
        return float(np.max(self.cost))

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


def row_violations(instance: ProblemInstance) -> list:
    """The rows of Q that are no probability distribution, in O(nnz + S):
    a row sum off 1 by more than ``ROW_SUM_TOL``, then an entry below 0 or
    above 1, each a :class:`Violation` naming its place."""
    rows, cols, values = instance.q_entries()
    row_sums = np.bincount(rows, weights=values, minlength=instance.S)
    out = [
        Violation("row_sum", (int(s),), f"row sums to {float(row_sums[s])!r}")
        for s in np.flatnonzero(np.abs(row_sums - 1.0) > ROW_SUM_TOL)
    ]
    for kind, bad in (("negative_entry", values < 0), ("entry_above_one", values > 1)):
        out += [Violation(kind, (int(rows[i]), int(cols[i])), f"Q entry {float(values[i])!r}") for i in np.flatnonzero(bad)]
    return out


def validate_instance(instance: ProblemInstance) -> list:
    """Check every instance invariant; return [] iff all hold.

    Validation never raises: callers get the full list of problems, each
    naming the invariant and the offending index pair. O(nnz + S): the
    discount, Q's rows (:func:`row_violations`, the rule every sampler's
    table applies too) and the cost's signs. Absolute continuity is not
    checked here: the instance stores Q on its supergraph's edges, so it
    holds by construction.
    """
    out = []
    if not (0.0 < instance.alpha < 1.0):
        out.append(Violation("discount_domain", (), f"alpha={instance.alpha} not in (0,1)"))
    out += row_violations(instance)
    for s in np.flatnonzero(instance.cost < 0):
        out.append(Violation("negative_cost", (int(s),), f"cost entry {float(instance.cost[s])!r}"))
    return out


def certified_value(rows, indices, values, cost: np.ndarray, alpha: float) -> np.ndarray:
    """Value of the stochastic matrix with stored entries (rows, indices, values)
    by value iteration with MacQueen's bounds: after a sweep w = c + alpha Q v, with
    c = (1 - alpha) cost, d = w - v and k = alpha / (1 - alpha), the value lies in
    [w + k min d, w + k max d]. Returns their midpoint once they are tau = 2^-50
    max(||c||_inf, 1) apart (rate alpha |lambda_2| on ergodic chains), or after T
    sweeps with alpha^T <= 2^-50 (rate alpha if periodic or reducible). A sweep adds
    alpha Q d to w by compensated summation; w - v would magnify w's rounding by k."""
    alpha = check_discount(alpha)
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
    T = check_count("T", T)
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
    mutable state: each run gets its own sampler (or a spawned child), so
    a run's draws depend on no other run.
    """

    def __init__(self, instance: ProblemInstance, seed):
        self.instance = instance
        self.table = instance.transitions
        self._entropy = as_entropy(seed)
        self.rng = make_rng(self._entropy)
        self.draw_count = 0

    def sample_next(self, s: int) -> int:
        """One draw from Q(s, .) as a one-element batch; off the trial path, kept for ``bench/spans.py``."""
        return int(self.sample_next_batch([s])[0])

    def sample_next_batch(self, states: np.ndarray) -> np.ndarray:
        """Vectorized successor draws, one per entry; counts len(states) samples.

        Consumes the underlying uniform stream in element order, so the
        result matches a sequence of single-draw calls.
        """
        states = check_state(states, self.instance.S, batch=True)
        out = self.table.draw_batch(states, self.rng.random(states.size))
        self.draw_count += int(states.size)
        return out

    def sample_empirical_row(self, s: int, n: int) -> dict:
        """Estimate Q(s, .) from n draws; counts n samples.

        Returns the empirical distribution as a sparse {state: frequency}
        map. Uses a multinomial on the row support, so large n costs O(d),
        not O(n).
        """
        n = check_count("per-state sample count", n)
        idx, probs = self.table.row(check_state(s, self.instance.S))
        counts = self.rng.multinomial(n, probs)
        self.draw_count += n
        return {t: c / n for t, c in zip(idx.tolist(), counts.tolist()) if c > 0}

    def sample_empirical_column(self, t: int, n: int) -> dict:
        """Estimate Q(s, t) for each in-neighbor s of t from n fresh draws of
        its row; counts n samples per in-neighbor. Entry t of a multinomial
        row is Binomial(n, Q(s, t)), so this is one scalar ``binomial`` call
        per in-edge, in order, over :attr:`ProblemInstance.in_edge_probs`:
        the draws of one vector call over them. Returns {s: hits / n}, ascending."""
        n = check_count("per-state sample count", n)
        t = check_state(t, self.instance.S)
        colptr, _, sources = self.instance.supergraph.transpose
        lo, hi = colptr[t : t + 2].tolist()
        probs = self.instance.in_edge_probs[lo:hi].tolist()
        binomial = self.rng.binomial
        column = {s: binomial(n, q) / n for s, q in zip(sources[lo:hi].tolist(), probs)}
        self.draw_count += n * (hi - lo)
        return column

    def derive(self, *labels) -> np.random.Generator:
        """Independent auxiliary stream tied to this sampler's seed."""
        return make_rng(derive_entropy(self._entropy, *labels))

    def spawn(self, *labels) -> "CountingSampler":
        """Child sampler with its own stream and a fresh draw tally; off the trial path, kept for ``bench/spans.py``."""
        return CountingSampler(self.instance, derive_entropy(self._entropy, *labels))


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


# Each kind of field: the exact types its JSON value may take, and the words
# for one value. A bool is none of them; numpy would read it as 0 or 1.
_KINDS = {
    int: ({int}, "an integer"), float: ({int, float}, "a number"), str: ({str}, "a string"),
    list: ({list}, "a list"), dict: ({dict}, "an object"),
}


# One rule per kind of argument of the Python API, refusing what read_fields refuses in a document.
def check_number(name: str, value) -> float:
    """``value`` as a float if it is an int or a float, numpy's too, but not a bool; NaN and inf pass."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ContractViolation(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an int past float range, too long to print whole
        raise ContractViolation(f"{name} must be a number in float range, got an int of {value.bit_length()} bits") from None


def check_count(name: str, value) -> int:
    """``value`` as an int if it is a whole number (no bool, NaN or inf) and at least 1."""
    integral = type(value) is int or isinstance(value, np.integer)  # type(True) is bool, not int
    if not (integral or isinstance(value, (float, np.floating)) and float(value).is_integer()):
        raise ContractViolation(f"{name} must be a whole number, got {value!r}")
    if value < 1:
        raise ContractViolation(f"{name} must be >= 1, got {int(value)}")
    return int(value)


def check_discount(alpha) -> float:
    """``alpha`` as a float if it is a number (as in :func:`check_number`) in (0, 1)."""
    if isinstance(alpha, bool) or not isinstance(alpha, (int, float, np.integer, np.floating)) or not 0 < alpha < 1:
        raise ContractViolation(f"alpha must lie in (0, 1), got {alpha!r}")
    return float(alpha)


def check_state(states, S: int, batch: bool = False):
    """A state index, an integer (numpy's too, not a bool) in [0, S), as an int; with ``batch``,
    a one-dimensional int64 array of them, of any dtype if empty (``np.asarray([])`` is float64).
    A list's or tuple's entries are checked one by one, since ``np.asarray`` reads a bool among
    ints as an int."""
    if batch:
        entries = states if isinstance(states, (list, tuple)) else ()
        states = np.asarray(states)
        integral = all(type(s) is int or isinstance(s, np.integer) for s in entries)
        if states.ndim != 1 or states.size and (
            not integral or states.dtype.kind not in "iu" or states.min() < 0 or states.max() >= S
        ):
            raise ContractViolation(f"state index out of range in batch: each must be an integer in [0, {S})")
        return states.astype(np.int64, copy=False)
    if type(states) is not int and not isinstance(states, np.integer) or not 0 <= states < S:
        raise ContractViolation(f"state index {states!r} out of range: must be an integer in [0, {S})")
    return int(states)


def read_fields(doc, kinds: dict, where: str = "", optional=(), document: str = "the document") -> dict:
    """The fields of the JSON object ``doc`` that are set; ``where`` is its
    dotted path ("supergraph", "ensembles[0]"), "" for ``document`` itself.
    ``kinds`` maps each field to ``int``, ``float`` (an int passes too),
    ``str``, ``list`` or ``dict``, or to ``[int]`` or ``[float]`` for a list
    of such entries. A field in ``optional`` may be left out, and reads as
    absent if null. An unknown or missing field, or a value or entry of the
    wrong type, raises :class:`ContractViolation` naming the field's path."""
    if type(doc) is not dict:
        raise ContractViolation(f"{where + ':' if where else document} must be an object, got {doc!r}")
    at = f"{where}." if where else ""
    unknown = doc.keys() - kinds.keys()
    if unknown:
        raise ContractViolation(f"{at}{min(unknown)}: unknown field; the fields are {sorted(kinds)}")
    for key, kind in kinds.items():
        value = doc.get(key)
        if value is None and key in optional:
            continue
        if key not in doc:
            raise ContractViolation(f"{at}{key}: missing from {document}")
        if type(kind) is list:
            types, one = _KINDS[kind[0]]
            if type(value) is not list:
                raise ContractViolation(f"{at}{key}: must be a list of {one.split()[1]}s, got {value!r}")
            if not types.issuperset(map(type, value)):  # C speed over a million entries
                i = next(i for i, t in enumerate(value) if type(t) not in types)
                raise ContractViolation(f"{at}{key}: entry {i} must be {one}, got {value[i]!r}")
        elif type(value) not in _KINDS[kind][0]:
            raise ContractViolation(f"{at}{key}: must be {_KINDS[kind][1]}, got {value!r}")
    return {key: value for key, value in doc.items() if value is not None}  # no kind admits null


def read_text(path) -> str:
    """The text of the UTF-8 file at ``path``, line ends untranslated; an
    unreadable file raises :class:`ContractViolation` naming the path."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ContractViolation(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from None


def write_text(path, text: str) -> None:
    """Write ``text`` to the file at ``path`` as UTF-8, line ends untranslated;
    a file that cannot be written raises :class:`ContractViolation` naming the path."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ContractViolation(f"cannot write {path}: {exc.strerror or exc}") from None


def read_json(path):
    """The JSON document in the file at ``path``; one that :func:`read_text`
    refuses, or that is not JSON, raises :class:`ContractViolation` naming the path."""
    try:
        return json.loads(read_text(path))
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise ContractViolation(f"{path} is not JSON: {exc}") from None


_INSTANCE_FIELDS = {"S": int, "alpha": float, "cost": [float], "supergraph": dict, "q_values": [float]}
_SUPERGRAPH_FIELDS = {"indptr": [int], "indices": [int]}


def instance_from_dict(doc: dict) -> ProblemInstance:
    """Inverse of :func:`instance_to_dict`. A document that :func:`read_fields`
    refuses, a malformed CSR field, a refusal of the :class:`ProblemInstance`
    constructor, or an instance that :func:`validate_instance` rejects raises
    :class:`ContractViolation` naming the field or the first violation."""
    top = read_fields(doc, _INSTANCE_FIELDS, document="the instance document")
    graph = read_fields(top["supergraph"], _SUPERGRAPH_FIELDS, "supergraph", document="the instance document")
    sg = Supergraph(top["S"], graph["indptr"], graph["indices"])
    instance = ProblemInstance(top["S"], top["alpha"], top["cost"], sg, top["q_values"])
    violations = validate_instance(instance)
    if violations:
        raise ContractViolation(f"invalid instance: {violations[0]}")
    return instance


def save_instance(instance: ProblemInstance, path) -> None:
    write_text(path, json.dumps(instance_to_dict(instance)))  # json.dump would skip the C encoder


def load_instance(path) -> ProblemInstance:
    return instance_from_dict(read_json(path))
