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
  scalars; they become arrays when the loop ends. The loop's update
  spells out the float expressions of :func:`apply_push`, which replay
  runs on arrays, so replay reproduces a run bit for bit.
- A row source is the loop's only view of the problem. Its
  ``instance`` gives the cost and the discount; ``column(s_k)`` returns
  the pushed state's column as an {in-neighbor: entry} dict, which the
  loop only reads; and ``rows`` holds the rows it has cached (empty if
  it caches none). Every source reads the one transpose of the
  instance's supergraph, :attr:`~epelab.model.Supergraph.transpose`.
  Exact rows gather Q's entries through it, once, into column dicts.
  Cached empirical rows build a pushed state's column once, from its
  in-neighbors (one list slice) and their rows, each drawn once through
  the sampler's row channel, and keep it: every row it reads is cached
  and never changes, so a later build would give the same dict. Fresh
  empirical rows make one call of the sampler's column channel per push,
  which draws the pushed state's entry of every in-neighbor's row as one
  vector of binomials (the law of that entry of a multinomial row) and
  draws nothing else.
- The loop stops before it selects a state whose residual is at or
  below ``floor = max(epsilon, NEGLIGIBLE_RESIDUAL * ||c||_inf)``, so no
  such residual is kept anywhere. When the heap finds nothing above the
  floor, one scan of the residual names the stop reason.
- The max-heap holds only what a coming selection can need. It takes a
  residual only above a level theta, which starts at ``_BAND`` times the
  largest cost; a residual in (floor, theta] is appended to a plain
  pending list. When the heap and the tie group (below) both run dry,
  one pass dedupes the list, lowers theta to ``_BAND`` times the largest
  pending residual and moves everything above it into the heap.
- One pass over the pushed state's column updates the residuals and
  enters each new value in the heap or the pending list. The pushed
  state's residual is cleared first, so its own entry needs no special
  case. An in-neighbor whose column entry is exactly 0.0 keeps its
  residual, so it is not re-entered: its heap entry or pending place, if
  any, still stands.
- Selecting a state removes its heap entry, and the push enters its new
  residual. After a tied selection, the ties not selected wait outside
  the heap as one sorted group with their value, so a tie set is popped
  once, not at every selection. The group is chosen while its value is
  at least the heap's live top, with any heap entries of exactly that
  value merged in; a member selected through the heap leaves it. Each
  update of an in-neighbor above theta leaves that state's old heap
  entry behind. When a selection finds the heap past its limit, it first
  drops every stale entry in one sweep and sets the limit to about twice
  the live length, so each entry is popped about once. A selection
  depends on the live residuals alone, so neither the sweeps nor theta
  move a selection, tie draw or float.

Tie-breaking among maximal residuals is uniform over the exact-equality
tie set, drawn from a stream separate from the sampling stream so that
runs with identical residual sequences select identical push states.

Traces record (state, residual, column) per push, which is enough to
replay the run bit-for-bit (:func:`replay_states`); the dense replay of
its fixed-point error process against any compatible completion matrix
is :func:`~epelab.oracles.error_process`. A trace lives in memory only.
Building a :class:`PushTrace` replays it once, and that replay checks
every selection; so a trace costs one replay, not a scan of all S
residuals per push.

The loop counts no draws: each estimator reads its draw count off its
sampler and hands it to :meth:`PushOutcome.report`, which builds the
:class:`~epelab.model.EstimateReport` of every push estimator.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation, IterationLimitExceeded
from .model import CountingSampler, EstimateReport, ProblemInstance, check_count, check_discount, check_number


@dataclass
class PushRecord:
    state: int
    residual: float
    column: dict


@dataclass
class PushTrace:
    """Everything needed to replay a push run and audit its invariants.

    Building one replays ``records`` once (:func:`replay_states`, which
    checks every selection) and keeps the replay's last vectors as
    ``final_estimate`` and ``final_residual``."""

    alpha: float
    cost: np.ndarray
    records: list
    final_estimate: np.ndarray = field(init=False)
    final_residual: np.ndarray = field(init=False)
    final_rows: dict

    def __post_init__(self):
        for _, v, r in replay_states(self):
            pass
        self.final_estimate, self.final_residual = v, r

    @property
    def encountered(self) -> frozenset:
        """The states whose rows were estimated."""
        return frozenset(self.final_rows)


def apply_push(v_hat: np.ndarray, residual: np.ndarray, alpha: float, s_k: int, column: dict) -> None:
    """One push update, in place; replay runs it. The loop spells out the
    same float expressions inline, and a traced run's byte comparison of
    its final vectors against the replay enforces the match."""
    rho = residual[s_k]
    v_hat[s_k] += (1.0 - alpha) * rho
    residual[s_k] = alpha * column.get(s_k, 0.0) * rho
    for s, q in column.items():
        if s != s_k:
            residual[s] += alpha * q * rho


def replay_states(trace: PushTrace):
    """Yield (k, v_hat_k, residual_k) for k = 0..k*; vectors are live views.

    Raises :class:`ContractViolation` at push k if its recorded residual is
    not its state's replayed residual, or not the largest one."""
    v = np.zeros_like(trace.cost)
    r = trace.cost.astype(float).copy()
    yield 0, v, r
    for k, rec in enumerate(trace.records, start=1):
        if r[rec.state] != rec.residual:
            raise ContractViolation(
                f"trace corrupt at k={k}: recorded residual {rec.residual!r}, replay {r[rec.state]!r}"
            )
        if rec.residual != r.max():
            raise ContractViolation(f"heap selection is not a true residual maximizer at k={k}")
        apply_push(v, r, trace.alpha, rec.state, rec.column)
        yield k, v, r


# A heap of at most this many entries is never swept; it keeps a small
# heap from sweeping after every few pushes.
_COMPACT_SLACK = 64

# The heap takes a residual only above theta, which starts at, and is reset
# to, this share of the largest residual outside the heap; the rest wait in
# a list until the heap runs dry. On exact rows at S=800, alpha 0.9,
# epsilon 10/S (TestHeapBand's instance), taking every residual above the
# floor made 4.37 heap pushes per push and reached 968 entries, most of
# them superseded before any selection reached them; at 0.8 the heap takes
# 1.66 pushes plus 0.19 refill moves per push and holds at most 365, and
# it is refilled 17 times in 3581 pushes. On push_rows-shaped runs (three
# S=3200 instances, 12 alternating repeats on a shared 2-core host) the
# fastest run took 1.65 s of CPU at 0, 1.43 s at 0.5, 1.33 s at 0.8 and
# 1.46 s at 0.95; the medians spread too widely to rank 0.5 to 0.95. At 0
# it is the floor-only heap. It must lie in [0, 1).
_BAND = 0.8


class _MaxResidualHeap:
    """Lazy max-heap over the residuals above ``theta``, with the ones in
    (``floor``, ``theta``] pending in a list and the unselected ties of the
    last tied selection waiting as one group.

    Entries are never deleted on update; instead each residual change
    enters a fresh entry and stale ones are discarded when popped (stale
    means the stored value no longer equals the live residual). The loop
    never selects a residual at or below ``floor``, so no such value gets
    an entry anywhere. The caller reads :attr:`theta` after each
    :meth:`select` and enters each new residual: onto ``_heap`` if it is
    above ``theta``, else onto ``_pending`` if it is above the floor.

    Three invariants hold whenever the loop calls :meth:`select`:

    - Residuals only fall for the pushed state, and ``theta`` only falls.
    - So every live residual above ``theta`` has a live entry in ``_heap``
      or sits in ``_group``, and every residual in (``floor``, ``theta``]
      has its state in ``_pending``.
    - Therefore the top of the heap or the group is the true maximum, and
      its tie set, sorted, is the tie set of a full scan; the same one
      ``tie_rng`` draw is made, only when more than one tie is live.

    The group holds, sorted, the states of value ``_group_value`` that a
    tied selection did not take. A member's residual can only rise, and a
    risen member has a live heap entry above the group's value; a member
    selected through the heap leaves the group. So when the group's value
    is at least the heap's live top, every member is live; the heap's live
    entries of exactly that value are merged in, and the draw is made from
    the group, which pops no heap entry for the states it holds.

    When the heap and the group both run dry, one pass dedupes
    ``_pending``, sets ``theta`` to ``_BAND`` times the largest pending
    residual above the floor (or to the floor, should that not fall below
    it) and moves every residual above the new ``theta`` into the heap; the
    constructor fills the heap the same way from every state above the
    floor.

    Each update of an in-neighbor above ``theta`` leaves its previous heap
    entry behind. When :meth:`select` finds more than ``_limit`` entries,
    it first drops every stale one in place (``_heap`` is the list the loop
    pushes onto), re-heapifies what is left, and sets the limit to twice
    that length plus ``_COMPACT_SLACK``; each refill sets the limit the
    same way. The sweep keeps every live entry, and a selection is a
    function of the live residuals alone, so no selection, tie draw or
    float depends on when it runs.
    """

    def __init__(self, residual: list, floor: float):
        self._residual, self._floor = residual, floor
        self._heap: list = []
        self._pending: list = []
        self._group: list = []
        self._group_value = 0.0
        self._refill([s for s, v in enumerate(residual) if v > floor])

    def _refill(self, states) -> None:
        """Set ``theta`` from the residuals of ``states`` (distinct), enter
        those above it in the heap and keep those in (floor, theta] pending."""
        residual, floor = self._residual, self._floor
        values = list(map(residual.__getitem__, states))
        top = max(values, default=floor)
        theta = _BAND * top
        if not floor <= theta < top:
            theta = floor
        self.theta = theta
        heap = self._heap
        heap[:] = [(-v, s) for s, v in zip(states, values) if v > theta]
        heapq.heapify(heap)
        self._pending[:] = [s for s, v in zip(states, values) if floor < v <= theta]
        self._limit = 2 * len(heap) + _COMPACT_SLACK

    def select(self, tie_rng: np.random.Generator) -> int | None:
        """Remove and return one state of maximal residual, uniform over
        the exact-equality tie set, or None once no residual above the
        floor is left; ``tie_rng`` is drawn only when there is a tie.

        Stale entries are popped off the top first. The group is chosen
        when its value is at least the live top. Otherwise the live top
        comes off; the rest of its tie set is collected only if the next
        entry holds the same value, and then the old group's live members
        go back to the heap and the ties not selected become the group. The
        selected state is not re-entered: its push changes its residual and
        enters the new value.
        """
        heap, residual, pop = self._heap, self._residual, heapq.heappop
        if len(heap) > self._limit:
            heap[:] = [e for e in heap if residual[e[1]] == -e[0]]
            heapq.heapify(heap)
            self._limit = 2 * len(heap) + _COMPACT_SLACK
        while heap:
            neg, s_k = heap[0]
            if residual[s_k] == -neg:
                break
            pop(heap)
        group, value = self._group, self._group_value
        if not heap and not group:
            self._refill(list(set(self._pending)))
            if not heap:
                return None
            neg, s_k = heap[0]
        if group and (not heap or neg >= -value):
            merged = set()
            while heap and heap[0][0] == -value:
                _, s = pop(heap)
                if residual[s] == value:
                    merged.add(s)
            if merged:
                group = self._group = sorted(merged.union(group))
            if len(group) == 1:
                return group.pop()
            return group.pop(int(tie_rng.integers(len(group))))
        pop(heap)
        if group:
            i = bisect.bisect_left(group, s_k)
            if i < len(group) and group[i] == s_k:
                del group[i]
        if not heap or heap[0][0] != neg:
            return s_k
        ties = {s_k}
        while heap and heap[0][0] == neg:
            _, s = pop(heap)
            if residual[s] == -neg:
                ties.add(s)
        if len(ties) == 1:
            return s_k
        ties = sorted(ties)
        s_k = ties.pop(int(tie_rng.integers(len(ties))))
        for s in group:
            if residual[s] == value:
                heapq.heappush(heap, (-value, s))
        self._group, self._group_value = ties, -neg
        return s_k


class _EmpiricalRows:
    """A row source drawing n samples per row of each in-neighbor of the
    pushed state, through ``sampler``."""

    def __init__(self, sampler: CountingSampler, n: int):
        self.n = check_count("per-state sample count", n)
        self.instance = sampler.instance
        self.sampler = sampler
        self.rows: dict[int, dict] = {}


class CachedEmpiricalRows(_EmpiricalRows):
    """Row source for the sample-once scheme: the first time a state is
    encountered its row is estimated with n draws and kept forever.

    A column is built at the first push of its state, which draws the row
    of every in-neighbor not yet encountered, and is kept too: the rows it
    reads never change, so a later build would return an equal dict. The
    caller only reads the dict it is handed.
    """

    def __init__(self, sampler: CountingSampler, n: int):
        super().__init__(sampler, n)
        self._columns: dict[int, dict] = {}

    def column(self, s_k: int) -> dict:
        col = self._columns.get(s_k)
        if col is not None:
            return col
        col = self._columns[s_k] = {}
        for s in self.instance.supergraph.in_neighbors(s_k):
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
        self.instance = instance
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
        return self.sampler.sample_empirical_column(s_k, self.n)


# A residual at most this share of ||c||_inf is below the float resolution
# of the estimates (v = v_hat + nu r with nu row stochastic, so the whole
# remaining correction is at most max r), and pushing it is wasted work.
NEGLIGIBLE_RESIDUAL = 2.0**-53


def check_threshold(epsilon: float) -> None:
    """Raise :class:`ContractViolation` unless the push threshold epsilon is a
    number above 0 (:func:`~epelab.model.check_number`; NaN is not, inf is)."""
    if not check_number("termination threshold", epsilon) > 0.0:
        raise ContractViolation(f"termination threshold must be > 0, got {epsilon}")


def default_iteration_cap(cost: np.ndarray, alpha: float, epsilon: float) -> int:
    """Safety cap far above both the typical-case and the sure push bounds.

    With epsilon 0 the loop runs down to the negligible floor, and a
    self-loop residual needs about 53 ln 2 / (1 - alpha) < 37 / (1 - alpha)
    pushes of its state to fall that far; the cap allows that many per
    state on top of 100 per state.
    """
    S = cost.size
    c1 = float(np.abs(cost).sum())
    c_inf = float(np.max(cost))
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

    def report(self, samples_used: int, encountered_size: int | None = None) -> EstimateReport:
        """The estimator's report of this run, with ``samples_used`` draws
        as counted by its sampler."""
        return EstimateReport(
            estimate=self.estimate,
            samples_used=samples_used,
            iterations=self.iterations,
            encountered_size=encountered_size,
            trace=self.trace,
            diagnostics={
                "stop_reason": self.stop_reason,
                "final_residual_max": float(self.residual.max()),
            },
        )


def run_push_loop(
    row_source,
    epsilon: float,
    tie_rng: np.random.Generator,
    trace: bool = False,
    max_rows: int | None = None,
) -> PushOutcome:
    """Run the push loop on ``row_source.instance``'s cost and discount
    until the residual max drops to epsilon, or, with ``max_rows``, until
    ``row_source.rows`` holds that many rows after a push (stop_reason
    "dynamic"). Epsilon must be positive, or 0 with ``max_rows``.

    The loop also stops, with stop_reason "negligible", once the residual
    max is at most ``NEGLIGIBLE_RESIDUAL * ||c||_inf``. That matters only
    for epsilon below it, as in the dynamic mode's epsilon = 0: a residual
    on a self-loop decays by alpha per push but never reaches zero. A run
    that starts with no positive residual stops as "exhausted".

    With ``trace``, the run's :class:`PushTrace` replays it once it ends;
    a push that did not select a residual maximizer, or a replay whose
    final vectors differ from the run's, raises :class:`ContractViolation`.
    """
    if not (epsilon == 0.0 and max_rows is not None):
        check_threshold(epsilon)
    cost, alpha = row_source.instance.cost, check_discount(row_source.instance.alpha)

    v_hat = [0.0] * cost.size
    residual = cost.astype(float).tolist()
    negligible = NEGLIGIBLE_RESIDUAL * float(np.max(cost))
    floor = max(epsilon, negligible)
    heap = _MaxResidualHeap(residual, floor)
    entries, pend, heappush = heap._heap, heap._pending.append, heapq.heappush
    records: list[PushRecord] = [] if trace else None
    cap = default_iteration_cap(cost, alpha, epsilon)
    rows = row_source.rows

    k = 0
    stop_reason = None
    while (s_k := heap.select(tie_rng)) is not None:
        if k >= cap:
            raise IterationLimitExceeded(
                f"push loop exceeded {cap} iterations (epsilon={epsilon}); this indicates a bug or a pathological instance"
            )
        k += 1
        rho = residual[s_k]
        theta = heap.theta

        column = row_source.column(s_k)
        if records is not None:
            records.append(PushRecord(state=s_k, residual=rho, column=dict(column)))
        # apply_push's update, with each new residual above theta entered
        # in the heap and each one in (floor, theta] in the pending list.
        # The pushed state's residual is cleared first, so adding its own
        # entry gives apply_push's alpha * q * rho (0.0 + x is x for x >= 0).
        v_hat[s_k] += (1.0 - alpha) * rho
        residual[s_k] = 0.0
        for s, q in column.items():
            r = residual[s] = residual[s] + alpha * q * rho
            # A zero entry left an in-neighbor's residual as it was, so its
            # heap entry or pending place stands.
            if r > theta:
                if q != 0.0:
                    heappush(entries, (-r, s))
            elif r > floor and q != 0.0:
                pend(s)

        if max_rows is not None and len(rows) >= max_rows:
            stop_reason = "dynamic"
            break

    if stop_reason is None:
        # Every residual is at or below the floor; name the first stop rule
        # it meets.
        top = max(residual)
        stop_reason = "exhausted" if top <= 0.0 else "threshold" if top <= epsilon else "negligible"

    v_hat = np.array(v_hat, dtype=float)
    residual = np.array(residual, dtype=float)
    push_trace = None
    if trace:
        push_trace = PushTrace(
            alpha=alpha,
            cost=cost.astype(float).copy(),
            records=records,
            final_rows={s: dict(r) for s, r in rows.items()},
        )
        replayed = push_trace.final_estimate.tobytes() + push_trace.final_residual.tobytes()
        if replayed != v_hat.tobytes() + residual.tobytes():
            raise ContractViolation("replay does not reproduce the run's final estimate and residual")
    return PushOutcome(
        estimate=v_hat,
        residual=residual,
        iterations=k,
        rows=rows,
        trace=push_trace,
        stop_reason=stop_reason,
    )
