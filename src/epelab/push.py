"""Shared residual-push kernel.

Three estimators are the same loop with different transition-row sources:
exact rows from a known matrix, empirical rows cached at first encounter,
or fresh empirical rows on every visit. The loop repeatedly selects a
state of maximal residual, moves a (1-alpha) share of its residual into
the estimate, and redistributes an alpha share to its in-neighbors
weighted by the row source's column entries. This is the local push of
Andersen, Chung & Lang (FOCS 2006) with sampled columns.

Layout of the kernel:

- Inside the loop the estimate and the residual are lists of Python
  floats, which index and update several times faster than numpy
  scalars; they become arrays when the loop ends. Every float is the one
  :func:`apply_push` computes on arrays, so replay reproduces a run bit
  for bit.
- A row source knows which states feed a column: ``column(s_k)``
  returns the pushed state's column as an {in-neighbor: entry} dict,
  which the loop only reads, and ``rows`` holds the rows it has cached
  (empty if it caches none). Every source reads the one transpose of the
  instance's supergraph, :attr:`~epelab.model.Supergraph.transpose`.
  Exact rows gather Q's entries through it, once, into column dicts.
  Empirical rows take the pushed state's in-neighbors from it, one list
  slice per push, and draw from the instance's
  :class:`~epelab.model.TransitionTable`: cached rows through the
  sampler's row channel, fresh ones through its column channel, which
  draws each in-neighbor's full multinomial row (so the stream is the
  row channel's) but reads out only the pushed state's entry.
- An in-neighbor whose column entry is exactly 0.0 keeps its residual,
  so the loop does not re-enter it in the max-heap: its live entry is
  still valid.
- Selecting a state removes its heap entry; only the tied states not
  selected go back, and the push's own ``notify`` enters the selected
  state's new residual. No push leaves a stale entry of its own state.

Tie-breaking among maximal residuals is uniform over the exact-equality
tie set, drawn from a stream separate from the sampling stream so that
runs with identical residual sequences select identical push states.

Traces record (state, residual, column) per push, which is enough to
replay the run bit-for-bit and to evaluate fixed-point error processes
against any compatible completion matrix.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, IterationLimitExceeded
from .model import CountingSampler, ProblemInstance, discounted_occupancy


@dataclass
class PushRecord:
    state: int
    residual: float
    column: dict


@dataclass
class PushTrace:
    """Everything needed to replay a push run and audit its invariants."""

    alpha: float
    cost: np.ndarray
    records: list
    final_estimate: np.ndarray
    final_residual: np.ndarray
    final_rows: dict

    @property
    def iterations(self) -> int:
        return len(self.records)

    @property
    def encountered(self) -> frozenset:
        """The states whose rows were estimated."""
        return frozenset(self.final_rows)

    def to_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            header = {
                "kind": "push_trace",
                "alpha": self.alpha,
                "cost": self.cost.tolist(),
                "encountered": sorted(self.encountered),
                "final_rows": {str(s): {str(t): p for t, p in row.items()} for s, row in self.final_rows.items()},
            }
            fh.write(json.dumps(header) + "\n")
            for k, rec in enumerate(self.records, start=1):
                fh.write(
                    json.dumps(
                        {
                            "k": k,
                            "s": rec.state,
                            "rho": rec.residual,
                            "col": {str(t): q for t, q in rec.column.items()},
                        }
                    )
                    + "\n"
                )

    @classmethod
    def from_jsonl(cls, path) -> "PushTrace":
        with open(path, "r", encoding="utf-8") as fh:
            header = json.loads(fh.readline())
            if header.get("kind") != "push_trace":
                raise ContractViolation(f"{path} is not a push trace file")
            records = []
            for line in fh:
                doc = json.loads(line)
                records.append(
                    PushRecord(
                        state=int(doc["s"]),
                        residual=float(doc["rho"]),
                        column={int(t): float(q) for t, q in doc["col"].items()},
                    )
                )
        trace = cls(
            alpha=float(header["alpha"]),
            cost=np.array(header["cost"], dtype=float),
            records=records,
            final_estimate=None,
            final_residual=None,
            final_rows={
                int(s): {int(t): float(p) for t, p in row.items()}
                for s, row in header["final_rows"].items()
            },
        )
        if sorted(trace.encountered) != header["encountered"]:
            raise ContractViolation(f"{path}: the encountered states differ from the final rows' states")
        for _, v, r in replay_states(trace):
            pass
        trace.final_estimate, trace.final_residual = v, r
        return trace


def apply_push(v_hat: np.ndarray, residual: np.ndarray, alpha: float, s_k: int, column: dict) -> None:
    """One push update, in place. Replay uses the same code path as the run,
    so reconstructed vectors match the originals bit for bit."""
    rho = residual[s_k]
    v_hat[s_k] += (1.0 - alpha) * rho
    residual[s_k] = alpha * column.get(s_k, 0.0) * rho
    for s, q in column.items():
        if s != s_k:
            residual[s] += alpha * q * rho


def replay_states(trace: PushTrace):
    """Yield (k, v_hat_k, residual_k) for k = 0..k*; vectors are live views."""
    v = np.zeros_like(trace.cost)
    r = trace.cost.astype(float).copy()
    yield 0, v, r
    for k, rec in enumerate(trace.records, start=1):
        if r[rec.state] != rec.residual:
            raise ContractViolation(
                f"trace corrupt at k={k}: recorded residual {rec.residual!r}, replay {r[rec.state]!r}"
            )
        apply_push(v, r, trace.alpha, rec.state, rec.column)
        yield k, v, r


def replay_errors(trace: PushTrace, P: np.ndarray) -> np.ndarray:
    """Error process e_k(s) = v_hat_k(s) + nu_s r_k - nu_s c against matrix P.

    Row k of the result is e_k; nu_s comes from a dense solve on P. The
    replay also cross-checks the trace against its recorded final vectors.
    """
    nu = discounted_occupancy(P, trace.alpha)
    target = nu @ trace.cost
    out = np.empty((len(trace.records) + 1, trace.cost.size))
    for k, v, r in replay_states(trace):
        out[k] = v + nu @ r - target
        final_v, final_r = v, r
    if not (np.array_equal(final_v, trace.final_estimate) and np.array_equal(final_r, trace.final_residual)):
        raise ContractViolation("replay does not reproduce the recorded final state")
    return out


class _MaxResidualHeap:
    """Lazy max-heap over residual values.

    Entries are never deleted on update; instead each residual change
    pushes a fresh entry and stale ones are discarded when popped (stale
    means the stored value no longer equals the live residual). The live
    positive residual of every state has an entry present whenever the
    loop reads the heap, so the first valid pop is a true maximizer; the
    one state :meth:`select` hands out is re-entered by ``notify`` after
    its push.
    """

    def __init__(self, residual: list):
        self._residual = residual
        self._heap = [(-v, s) for s, v in enumerate(residual) if v > 0.0]
        heapq.heapify(self._heap)

    def notify(self, s: int) -> None:
        v = self._residual[s]
        if v > 0.0:
            heapq.heappush(self._heap, (-v, s))

    def peek_max(self):
        while self._heap:
            neg, s = self._heap[0]
            if self._residual[s] == -neg:
                return -neg
            heapq.heappop(self._heap)
        return None

    def select(self, value: float, tie_rng: np.random.Generator) -> int:
        """Remove and return one state whose residual is ``value`` (the
        maximum), uniform over the exact-equality tie set; ``tie_rng`` is
        drawn only when there is a tie.

        The ties not selected are re-entered. The selected state is not:
        its push changes its residual, and the caller's ``notify`` enters
        the new value.
        """
        ties = set()
        while self._heap and self._heap[0][0] == -value:
            _, s = heapq.heappop(self._heap)
            if self._residual[s] == value:
                ties.add(s)
        ties = sorted(ties)
        if len(ties) == 1:
            return ties[0]
        s_k = ties.pop(int(tie_rng.integers(len(ties))))
        for s in ties:
            heapq.heappush(self._heap, (-value, s))
        return s_k


class _EmpiricalRows:
    """A row source drawing n samples per row of each in-neighbor of the
    pushed state, through ``sampler``."""

    def __init__(self, sampler: CountingSampler, n: int):
        if n < 1:
            raise ContractViolation(f"per-state sample count must be >= 1, got {n}")
        self.sampler = sampler
        self.n = n
        self.in_neighbors = sampler.instance.supergraph.in_neighbors
        self.rows: dict[int, dict] = {}


class CachedEmpiricalRows(_EmpiricalRows):
    """Row source for the sample-once scheme: the first time a state is
    encountered its row is estimated with n draws and kept forever."""

    def column(self, s_k: int) -> dict:
        col = {}
        for s in self.in_neighbors(s_k):
            row = self.rows.get(s)
            if row is None:
                row = self.rows[s] = self.sampler.sample_empirical_row(s, self.n)
            col[s] = row.get(s_k, 0.0)
        return col


class ExactRows:
    """Row source reading the instance's known transition matrix. Draws nothing.

    ``columns[t]`` maps each s with a positive entry Q[s, t] to that raw
    entry (not a renormalized row). The columns gather ``q_values`` through
    the supergraph's transpose and drop the entries that are not positive,
    so each column's rows ascend.
    """

    def __init__(self, instance: ProblemInstance):
        colptr, order, sources = instance.supergraph.transpose
        values = instance.q_values[order].tolist()
        self.columns = [
            {s: q for s, q in zip(sources[lo:hi], values[lo:hi]) if q > 0.0} for lo, hi in zip(colptr, colptr[1:])
        ]
        self.rows: dict[int, dict] = {}

    def column(self, s_k: int) -> dict:
        return self.columns[s_k]


class FreshEmpiricalRows(_EmpiricalRows):
    """Row source that re-estimates with n fresh draws at every visit; it
    caches no row."""

    def column(self, s_k: int) -> dict:
        return self.sampler.sample_empirical_column(self.in_neighbors(s_k), s_k, self.n)


# A residual at most this share of ||c||_inf is below the float resolution
# of the estimates (v = v_hat + nu r with nu row stochastic, so the whole
# remaining correction is at most max r), and pushing it is wasted work.
NEGLIGIBLE_RESIDUAL = 2.0**-53


def default_iteration_cap(cost: np.ndarray, alpha: float, epsilon: float) -> int:
    """Safety cap far above both the typical-case and the sure push bounds.

    With epsilon 0 the loop runs down to the negligible floor, and a
    self-loop residual needs about 53 ln 2 / (1 - alpha) < 37 / (1 - alpha)
    pushes of its state to fall that far; the cap allows that many per
    state on top of 100 per state.
    """
    S = cost.size
    c1 = float(np.abs(cost).sum())
    c_inf = float(np.max(cost)) if S else 0.0
    if epsilon <= 0.0 or c_inf == 0.0:
        return S * (100 + math.ceil(37.0 / (1.0 - alpha))) + 1000
    typical = 10 * math.ceil(c1 / (epsilon * (1.0 - alpha)))
    sure = math.ceil(S * c_inf / (epsilon * (1.0 - alpha))) + 1
    return max(typical, sure)


@dataclass
class PushOutcome:
    estimate: np.ndarray
    residual: np.ndarray
    iterations: int
    rows: dict
    trace: PushTrace | None
    stop_reason: str
    samples_used: int = 0


def run_push_loop(
    cost: np.ndarray,
    alpha: float,
    epsilon: float,
    row_source,
    tie_rng: np.random.Generator,
    trace: bool = False,
    max_rows: int | None = None,
) -> PushOutcome:
    """Run the push loop until the residual max drops to epsilon, or, with
    ``max_rows``, until ``row_source.rows`` holds that many rows after a
    push (stop_reason "dynamic"). Epsilon must be positive, or 0 with
    ``max_rows``.

    The loop also stops, with stop_reason "negligible", once the residual
    max is at most ``NEGLIGIBLE_RESIDUAL * ||c||_inf``. That matters only
    for epsilon below it, as in the dynamic mode's epsilon = 0: a residual
    on a self-loop decays by alpha per push but never reaches zero.
    """
    if not (epsilon > 0.0 or (epsilon == 0.0 and max_rows is not None)):
        raise ContractViolation(f"termination threshold must be > 0 (or 0 with max_rows), got {epsilon}")
    if not (0.0 < alpha < 1.0):
        raise ContractViolation(f"discount must lie in (0,1), got {alpha}")

    v_hat = [0.0] * cost.size
    residual = cost.astype(float).tolist()
    heap = _MaxResidualHeap(residual)
    records: list[PushRecord] = [] if trace else None
    cap = default_iteration_cap(cost, alpha, epsilon)
    rows = row_source.rows

    negligible = NEGLIGIBLE_RESIDUAL * float(np.max(cost)) if cost.size else 0.0

    k = 0
    stop_reason = "threshold"
    while True:
        top = heap.peek_max()
        if top is None or top <= epsilon:
            stop_reason = "threshold" if top is not None else "exhausted"
            break
        if top <= negligible:
            stop_reason = "negligible"
            break
        if k >= cap:
            raise IterationLimitExceeded(
                f"push loop exceeded {cap} iterations (epsilon={epsilon}); this indicates a bug or a pathological instance"
            )
        k += 1
        s_k = heap.select(top, tie_rng)
        rho = residual[s_k]
        if trace and rho != max(residual):
            raise ContractViolation("heap selection is not a true residual maximizer")

        column = row_source.column(s_k)
        if records is not None:
            records.append(PushRecord(state=s_k, residual=rho, column=dict(column)))
        apply_push(v_hat, residual, alpha, s_k, column)
        heap.notify(s_k)
        for s, q in column.items():
            # A zero entry left residual[s] as it was, so its heap entry stands.
            if q != 0.0 and s != s_k:
                heap.notify(s)

        if max_rows is not None and len(rows) >= max_rows:
            stop_reason = "dynamic"
            break

    v_hat = np.array(v_hat, dtype=float)
    residual = np.array(residual, dtype=float)
    push_trace = None
    if trace:
        push_trace = PushTrace(
            alpha=alpha,
            cost=cost.astype(float).copy(),
            records=records,
            final_estimate=v_hat.copy(),
            final_residual=residual.copy(),
            final_rows={s: dict(r) for s, r in rows.items()},
        )
    return PushOutcome(
        estimate=v_hat,
        residual=residual,
        iterations=k,
        rows=rows,
        trace=push_trace,
        stop_reason=stop_reason,
    )
