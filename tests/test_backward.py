import heapq
import math
import tracemalloc

import numpy as np
import pytest

from epelab import (
    ContractViolation,
    CountingSampler,
    IterationLimitExceeded,
    ProblemInstance,
    Supergraph,
    approx_contributions,
    backward_epe,
    build_q_over,
    build_q_under,
    discounted_occupancy,
    error_process,
    exact_value,
    replay_invariant,
    sample_size_backward,
    value_function,
)
from epelab import model, push
from epelab.oracles import edge_mask
from epelab.push import ExactRows, PushRecord, PushTrace, apply_push, replay_states, run_push_loop
from epelab.rng import make_rng
from conftest import instance_from, random_instance


def run_traced(inst, seed, epsilon, n):
    sampler = CountingSampler(inst, seed)
    report = backward_epe(sampler, epsilon, n, trace=True)
    return sampler, report


class TestBackwardEpe:
    def test_large_epsilon_returns_zero(self, two_cycle):
        sampler = CountingSampler(two_cycle, 0)
        report = backward_epe(sampler, epsilon=1.0, n=5)
        assert report.iterations == 0
        assert report.samples_used == 0
        assert np.all(report.estimate == 0.0)

    def test_single_state_hand_trace(self, point_mass):
        # r: 1 -> 0.5 -> 0.25; two pushes, v_hat = 0.5 + 0.25.
        sampler, report = run_traced(point_mass, 3, epsilon=0.3, n=4)
        assert report.iterations == 2
        assert report.estimate == pytest.approx([0.75], abs=0)
        assert report.trace.final_residual == pytest.approx([0.25], abs=0)
        assert report.encountered_size == 1
        assert report.samples_used == 4

    def test_zero_cost_short_circuits(self):
        inst = instance_from(0.5, [0.0, 0.0], [[0.0, 1.0], [1.0, 0.0]])
        sampler = CountingSampler(inst, 0)
        report = backward_epe(sampler, 0.1, 5)
        assert report.iterations == 0
        assert report.samples_used == 0

    def test_samples_equal_n_times_encountered(self):
        inst = random_instance(S=20, p=5, alpha=0.5, seed="acct")
        sampler, report = run_traced(inst, 1, epsilon=0.1, n=7)
        assert report.samples_used == 7 * report.encountered_size
        assert sampler.draw_count == report.samples_used

    def test_contract_violations(self, two_cycle):
        sampler = CountingSampler(two_cycle, 0)
        with pytest.raises(ContractViolation):
            backward_epe(sampler, 0.0, 5)
        with pytest.raises(ContractViolation):
            backward_epe(sampler, 0.1, 0)

    def test_iteration_bound_over_seeded_runs(self):
        # Typical-case push bound on ensemble instances.
        for i in range(100):
            inst = random_instance(S=12, p=4, alpha=0.5, seed=("kbound", i))
            _, report = run_traced(inst, ("run", i), epsilon=0.3, n=3)
            cap = math.ceil(np.sum(inst.cost) / (0.3 * 0.5))
            assert report.iterations <= cap


class TestTraceProperties:
    def test_residual_nonnegative_and_estimate_monotone(self):
        inst = random_instance(S=15, p=4, alpha=0.6, seed="mono")
        _, report = run_traced(inst, 5, epsilon=0.1, n=5)
        prev = None
        for _, v, r in replay_states(report.trace):
            assert np.all(r >= 0.0)
            if prev is not None:
                assert np.all(v >= prev - 0.0)
            prev = v.copy()

    def test_selection_rule_max_residual(self):
        inst = random_instance(S=15, p=4, alpha=0.6, seed="sel")
        _, report = run_traced(inst, 6, epsilon=0.1, n=5)
        records = report.trace.records
        for k, _, r in replay_states(report.trace):
            if k < len(records):
                assert records[k].residual == r.max()

    def test_termination_residual_below_epsilon(self):
        inst = random_instance(S=15, p=4, alpha=0.6, seed="term")
        _, report = run_traced(inst, 7, epsilon=0.2, n=5)
        assert report.trace.final_residual.max() <= 0.2


class TestHeapTies:
    """The max-heap re-enters the unselected ties only; the selected state
    comes back when its push enters its new residual."""

    class RepushSelected(push._MaxResidualHeap):
        # The former rule: the selected state's entry goes back too, and
        # turns stale at the state's own push.
        def select(self, tie_rng):
            s_k = super().select(tie_rng)
            if s_k is not None:
                heapq.heappush(self._heap, (-self._residual[s_k], s_k))
            return s_k

    class CheckedHeap(push._MaxResidualHeap):
        def select(self, tie_rng):
            s_k = super().select(tie_rng)
            assert s_k is None or (-self._residual[s_k], s_k) not in self._heap
            return s_k

    class CountingTies:
        def __init__(self, rng):
            self.rng, self.ties = rng, 0

        def integers(self, n):
            self.ties += 1
            return self.rng.integers(n)

    def run(self, inst, seed, monkeypatch, heap_class):
        pops = []
        pop = heapq.heappop
        monkeypatch.setattr(push, "_MaxResidualHeap", heap_class)
        monkeypatch.setattr(heapq, "heappop", lambda heap: pops.append(1) or pop(heap))
        sampler = CountingSampler(inst, seed)
        tie_rng = self.CountingTies(make_rng(("ties", seed)))
        # trace=True checks every selection against max(residual).
        report = run_push_loop(push.CachedEmpiricalRows(sampler, 8), 0.02, tie_rng, trace=True)
        monkeypatch.undo()
        return report, tie_rng.ties, len(pops)

    @pytest.mark.parametrize("H", [3, 12])
    def test_binary_cost_ties_select_true_maximizers(self, monkeypatch, H):
        inst = random_instance(S=40, p=4, alpha=0.7, seed=("ties", H), cost_model="binary", H=H)
        report, ties, pops = self.run(inst, 1, monkeypatch, self.CheckedHeap)
        before, ties_before, pops_before = self.run(inst, 1, monkeypatch, self.RepushSelected)
        assert ties == ties_before >= 1
        assert report.estimate.tobytes() == before.estimate.tobytes()
        assert [r.state for r in report.trace.records] == [r.state for r in before.trace.records]
        assert report.trace.final_residual.tobytes() == before.trace.final_residual.tobytes()
        assert pops < pops_before



def reference_push_loop(row_source, epsilon, tie_rng, max_rows=None, selected=None):
    """The push loop as a full scan of numpy arrays: the largest residual,
    its exact tie set, apply_push, and the stop rules in their order. Each
    state pushed is appended to ``selected``, if given."""
    inst = row_source.instance
    v, r = np.zeros(inst.S), inst.cost.astype(float).copy()
    negligible = push.NEGLIGIBLE_RESIDUAL * inst.cost.max()
    k = 0
    while True:
        top = r.max()
        if top <= 0.0:
            return v, r, k, "exhausted"
        if top <= epsilon:
            return v, r, k, "threshold"
        if top <= negligible:
            return v, r, k, "negligible"
        ties = np.flatnonzero(r == top)
        s_k = int(ties[0] if ties.size == 1 else ties[tie_rng.integers(ties.size)])
        if selected is not None:
            selected.append(s_k)
        apply_push(v, r, inst.alpha, s_k, row_source.column(s_k))
        k += 1
        if max_rows is not None and len(row_source.rows) >= max_rows:
            return v, r, k, "dynamic"


# Half the states start tied at residual 1.0, so most selections draw from
# the heap's tie group.
DENSE = random_instance(S=40, p=4, alpha=0.7, seed="kernel", cost_model="binary", H=20)
# States 0-5 self-loop at cost 1, and state 6 (cost 0.5) moves to state 0.
# The push of 0 raises 6 to exactly 1.0 while the other ties wait in the
# group, and nothing raises it again before it is drawn from the group.
MERGE = instance_from(0.5, [1.0] * 6 + [0.5], np.eye(7)[[0, 1, 2, 3, 4, 5, 0]])
# Costs of two subnormal ulps: the band's share of the largest residual
# rounds back up to it, so theta has to drop to the floor (here 0.0).
SUBNORMAL = instance_from(0.5, [1e-323, 0.0, 1e-323], [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [1.0, 0.0, 0.0]])

# Test id suffixes of the kernel cases on these instances.
CASE_TAGS = {id(DENSE): "-dense", id(MERGE): "-merge", id(SUBNORMAL): "-subnormal"}


class TestPushKernel:
    """The heap keeps no entry at or below the stop floor, cached columns
    are memoized, and a traced run checks its selections once it ends."""

    ZERO_COST = instance_from(0.5, [0.0, 0.0, 0.0], [[0.2, 0.8, 0.0], [0.0, 0.5, 0.5], [1.0, 0.0, 0.0]])
    MIXED = random_instance(S=40, p=4, alpha=0.7, seed="kernel")
    BINARY = random_instance(S=40, p=4, alpha=0.7, seed="kernel", cost_model="binary", H=5)
    # (stop reason, instance, row source, epsilon, max_rows)
    CASES = [
        ("exhausted", ZERO_COST, "exact", 0.1, None),
        ("threshold", MIXED, "cached", 0.02, None),
        ("threshold", BINARY, "cached", 0.02, None),
        ("threshold", BINARY, "fresh", 0.02, None),
        ("threshold", MIXED, "exact", 0.005, None),
        # The one push leaves only a residual below the negligible share of
        # ||c||_inf; epsilon is the rule it meets first.
        ("threshold", instance_from(0.5, [1.0, 1e-17], [[0.0, 1.0], [0.0, 1.0]]), "exact", 0.1, None),
        # Exact rows cache none, so max_rows is never reached.
        ("negligible", random_instance(S=12, p=3, alpha=0.5, seed="kernel"), "exact", 0.0, 1),
        ("dynamic", MIXED, "cached", 0.0, 6),
        ("threshold", DENSE, "exact", 0.02, None),
        ("threshold", DENSE, "cached", 0.02, None),
        ("threshold", DENSE, "fresh", 0.02, None),
        ("dynamic", DENSE, "cached", 0.0, 12),
        ("threshold", MERGE, "exact", 0.1, None),
        ("exhausted", SUBNORMAL, "exact", 0.0, 1),
    ]
    IDS = [f"{c[0]}-{c[2]}{CASE_TAGS.get(id(c[1]), '')}" for c in CASES]

    @staticmethod
    def source(kind, inst):
        if kind == "exact":
            return ExactRows(inst)
        rows = push.CachedEmpiricalRows if kind == "cached" else push.FreshEmpiricalRows
        return rows(CountingSampler(inst, 3), 6)

    @pytest.mark.parametrize("reason,inst,kind,epsilon,max_rows", CASES, ids=IDS)
    def test_run_matches_the_full_scan_loop(self, monkeypatch, reason, inst, kind, epsilon, max_rows):
        heaps = []

        class Recorded(push._MaxResidualHeap):
            def __init__(self, *args):
                super().__init__(*args)
                heaps.append(self)

        monkeypatch.setattr(push, "_MaxResidualHeap", Recorded)
        outcome = run_push_loop(self.source(kind, inst), epsilon, make_rng("ties"), trace=True, max_rows=max_rows)
        selected = []
        v, r, k, expected = reference_push_loop(self.source(kind, inst), epsilon, make_rng("ties"), max_rows, selected)
        assert outcome.stop_reason == expected == reason
        assert [rec.state for rec in outcome.trace.records] == selected
        assert outcome.iterations == k
        assert outcome.estimate.tobytes() == v.tobytes()
        assert outcome.residual.tobytes() == r.tobytes()
        assert outcome.report(0).diagnostics["final_residual_max"] == float(r.max())
        floor = max(epsilon, push.NEGLIGIBLE_RESIDUAL * inst.cost.max())
        assert all(-neg > floor for neg, _ in heaps[0]._heap)

    def test_run_past_the_iteration_cap_is_refused(self, monkeypatch):
        pushes = run_push_loop(ExactRows(self.MIXED), 0.005, make_rng(0)).iterations
        monkeypatch.setattr(push, "default_iteration_cap", lambda cost, alpha, epsilon: pushes)
        assert run_push_loop(ExactRows(self.MIXED), 0.005, make_rng(0)).iterations == pushes
        monkeypatch.setattr(push, "default_iteration_cap", lambda cost, alpha, epsilon: pushes - 1)
        with pytest.raises(IterationLimitExceeded, match=f"^push loop exceeded {pushes - 1} iterations"):
            run_push_loop(ExactRows(self.MIXED), 0.005, make_rng(0))

    def test_cached_column_is_memoized(self):
        rows = push.CachedEmpiricalRows(CountingSampler(self.MIXED, 0), 5)
        t = int(np.argmax(self.MIXED.supergraph.in_degrees))
        first = rows.column(t)
        draws = rows.sampler.draw_count
        assert draws == 5 * len(first) > 0
        again = rows.column(t)
        assert again is first
        assert rows.sampler.draw_count == draws
        assert first == {s: rows.rows[s].get(t, 0.0) for s in self.MIXED.supergraph.in_neighbors(t)}

    def test_traced_run_refuses_a_selection_that_is_not_a_maximizer(self, monkeypatch):
        inst = instance_from(0.5, [1.0, 0.5, 0.25], [[0.2, 0.8, 0.0], [0.0, 0.5, 0.5], [1.0, 0.0, 0.0]])

        class Misselecting(push._MaxResidualHeap):
            # Hands out the state of least positive residual at the first
            # selection and puts the true maximizer back.
            lied = False

            def select(self, tie_rng):
                s_k = super().select(tie_rng)
                if self.lied or s_k is None:
                    return s_k
                self.lied = True
                heapq.heappush(self._heap, (-self._residual[s_k], s_k))
                return min((v, s) for s, v in enumerate(self._residual) if v > 0.0)[1]

        monkeypatch.setattr(push, "_MaxResidualHeap", Misselecting)
        outcome = run_push_loop(ExactRows(inst), 0.1, make_rng(0))
        assert outcome.iterations > 0
        with pytest.raises(ContractViolation, match="not a true residual maximizer at k=1$"):
            run_push_loop(ExactRows(inst), 0.1, make_rng(0), trace=True)


class TestHeapCompaction:
    """The heap drops its stale entries in bulk once it outgrows its limit.
    The sweep keeps every live entry, so it moves no selection, tie draw or
    float, and it keeps the heap near its live size."""

    class Always(push._MaxResidualHeap):
        # The stale entries its sweeps dropped.
        dropped = 0

        def select(self, tie_rng):
            self._limit = -1
            type(self).dropped += sum(self._residual[s] != -neg for neg, s in self._heap)
            return super().select(tie_rng)

    class Never(push._MaxResidualHeap):
        def select(self, tie_rng):
            self._limit = math.inf
            return super().select(tie_rng)

    @pytest.fixture(autouse=True)
    def floor_only_heap(self, monkeypatch):
        # The band keeps most superseded entries out of the heap, so on
        # some cases it leaves none for a sweep to drop; the sweeps are
        # checked on the heap that takes every residual above the floor.
        monkeypatch.setattr(push, "_BAND", 0.0)

    TIES = random_instance(S=40, p=4, alpha=0.7, seed=("ties", 3), cost_model="binary", H=3)
    # (instance, row source, epsilon, max_rows, trace)
    CASES = [
        (TestPushKernel.MIXED, "exact", 0.005, None, True),
        (TestPushKernel.MIXED, "cached", 0.02, None, False),
        (TestPushKernel.BINARY, "fresh", 0.02, None, True),
        (TIES, "cached", 0.02, None, True),
        (TIES, "fresh", 0.02, None, False),
        (TestPushKernel.MIXED, "cached", 0.0, 6, True),
    ]

    def run(self, monkeypatch, heap_class, inst, kind, epsilon, max_rows, trace):
        monkeypatch.setattr(push, "_MaxResidualHeap", heap_class)
        source = TestPushKernel.source(kind, inst)
        tie_rng = TestHeapTies.CountingTies(make_rng("ties"))
        outcome = run_push_loop(source, epsilon, tie_rng, trace=trace, max_rows=max_rows)
        draws = getattr(getattr(source, "sampler", None), "draw_count", 0)
        return outcome, tie_rng.ties, draws

    @pytest.mark.parametrize(
        "inst,kind,epsilon,max_rows,trace", CASES, ids=[f"{c[1]}-{i}" for i, c in enumerate(CASES)]
    )
    def test_sweeping_before_every_selection_moves_nothing(self, monkeypatch, inst, kind, epsilon, max_rows, trace):
        monkeypatch.setattr(self.Always, "dropped", 0)
        swept, ties, draws = self.run(monkeypatch, self.Always, inst, kind, epsilon, max_rows, trace)
        lazy, lazy_ties, lazy_draws = self.run(monkeypatch, self.Never, inst, kind, epsilon, max_rows, trace)
        assert self.Always.dropped > 0
        assert swept.estimate.tobytes() == lazy.estimate.tobytes()
        assert swept.residual.tobytes() == lazy.residual.tobytes()
        assert (swept.iterations, swept.stop_reason) == (lazy.iterations, lazy.stop_reason)
        assert (ties, draws) == (lazy_ties, lazy_draws)
        if inst is self.TIES:
            assert ties >= 1
        if max_rows is not None:
            assert swept.stop_reason == "dynamic"
        if trace:
            assert [(r.state, r.residual, r.column) for r in swept.trace.records] == [
                (r.state, r.residual, r.column) for r in lazy.trace.records
            ]

    def test_heap_stays_near_its_live_size(self, monkeypatch):
        # Measured on this instance: 1.154 pops per push and at most 968
        # entries (S = 800). The lazy heap without sweeps makes 4.37 pops
        # per push and reaches 5975 entries.
        inst = random_instance(S=800, p=10, alpha=0.9, seed="bound")
        pops, largest = [], [0]
        pop = heapq.heappop

        class Measured(push._MaxResidualHeap):
            def select(self, tie_rng):
                largest[0] = max(largest[0], len(self._heap))
                return super().select(tie_rng)

        monkeypatch.setattr(push, "_MaxResidualHeap", Measured)
        monkeypatch.setattr(heapq, "heappop", lambda heap: pops.append(1) or pop(heap))
        outcome = run_push_loop(ExactRows(inst), 10 / inst.S, make_rng("ties"))
        monkeypatch.undo()
        assert outcome.iterations > 3 * inst.S
        assert len(pops) <= 1.5 * outcome.iterations
        assert largest[0] <= 1.5 * inst.S


class TestHeapBand:
    """Residuals at or below theta wait in a list, and a tie set waits as
    one group. Neither moves a selection: every band gives the floats,
    draws, tie draws and trace of the heap that takes every residual above
    the floor. The heap then holds about what the next selection needs."""

    class Counted(push._MaxResidualHeap):
        # The entries its refills put in the heap, how many refills after
        # the constructor's put any there, and its largest length at a
        # selection; ``last`` is the heap made last.
        last = None

        def __init__(self, *args):
            self.moved, self.refills, self.largest = 0, -1, 0
            type(self).last = self
            super().__init__(*args)

        def _refill(self, states):
            super()._refill(states)
            self.moved += len(self._heap)
            self.refills += len(self._heap) > 0

        def select(self, tie_rng):
            self.largest = max(self.largest, len(self._heap))
            return super().select(tie_rng)

    @pytest.fixture
    def counted(self, monkeypatch):
        monkeypatch.setattr(self.Counted, "last", None)
        monkeypatch.setattr(push, "_MaxResidualHeap", self.Counted)
        return self.Counted

    @pytest.mark.parametrize(
        "inst,kind,epsilon,max_rows,trace",
        TestHeapCompaction.CASES,
        ids=[f"{c[1]}-{i}" for i, c in enumerate(TestHeapCompaction.CASES)],
    )
    def test_every_band_gives_the_floor_only_run(self, monkeypatch, counted, inst, kind, epsilon, max_rows, trace):
        runs, refills = {}, {}
        for band in (0.0, 0.5, 0.8, 0.95):
            monkeypatch.setattr(push, "_BAND", band)
            source = TestPushKernel.source(kind, inst)
            tie_rng = TestHeapTies.CountingTies(make_rng("ties"))
            outcome = run_push_loop(source, epsilon, tie_rng, trace=trace, max_rows=max_rows)
            records = [(r.state, r.residual, r.column) for r in outcome.trace.records] if trace else None
            runs[band] = (
                outcome.estimate.tobytes(),
                outcome.residual.tobytes(),
                outcome.iterations,
                outcome.stop_reason,
                tie_rng.ties,
                getattr(getattr(source, "sampler", None), "draw_count", 0),
                records,
            )
            refills[band] = counted.last.refills
        assert runs[0.5] == runs[0.8] == runs[0.95] == runs[0.0]
        # The floor-only heap never refills. At 0.95 the list is read back,
        # unless the run stops at its few rows before the heap runs dry.
        assert refills[0.0] == 0
        if max_rows is None:
            assert refills[0.95] > 0

    def test_dense_headline_row_pops_few_entries_per_push(self, monkeypatch):
        # The dense row of tests/test_headline.py at S=3200 (binary costs,
        # H = S // 8, p 10, alpha 0.5, epsilon 0.15, n from
        # sample_size_backward), and the draws of the ROADMAP's table.
        # Measured: 1.75 pops per push; a heap that pops the whole tie set
        # and re-enters it at each selection makes 23.8.
        S = 3200
        inst = random_instance(S=S, p=10, alpha=0.5, seed=(7, "instance", S, 0), cost_model="binary", H=S // 8)
        pops = []
        pop = heapq.heappop
        monkeypatch.setattr(heapq, "heappop", lambda heap: pops.append(1) or pop(heap))
        sampler = CountingSampler(inst, (7, "run", S, 0, "backward"))
        report = backward_epe(sampler, 0.15, sample_size_backward(0.15, 0.1, 0.5, 1.0, S))
        monkeypatch.undo()
        assert (report.samples_used, report.encountered_size, report.iterations) == (3_362_242, 2906, 791)
        assert len(pops) <= 2.0 * report.iterations

    def test_heap_takes_few_entries_per_push(self, monkeypatch, counted):
        # The instance of TestHeapCompaction's size test. Measured: 1.66
        # heap pushes and 0.19 entries moved by refills per push, and at
        # most 365 entries. The heap that takes every residual above the
        # floor makes 4.37 heap pushes per push and reaches 968 entries.
        inst = random_instance(S=800, p=10, alpha=0.9, seed="bound")
        pushes = []
        heappush = heapq.heappush
        monkeypatch.setattr(heapq, "heappush", lambda heap, entry: pushes.append(1) or heappush(heap, entry))
        outcome = run_push_loop(ExactRows(inst), 10 / inst.S, make_rng("ties"))
        heap = counted.last
        monkeypatch.undo()
        assert outcome.iterations > 3 * inst.S
        assert len(pushes) + heap.moved <= 2.0 * outcome.iterations
        assert heap.largest <= inst.S / 2


class TestCompletions:
    def test_under_everywhere_encountered_is_estimate(self):
        inst = random_instance(S=10, p=4, alpha=0.5, seed="full")
        _, report = run_traced(inst, 2, epsilon=0.01, n=5)
        if report.encountered_size == 10:
            q_under = build_q_under(report.trace.final_rows, report.trace.encountered, inst)
            q_over = build_q_over(
                report.trace.final_rows, report.trace.encountered, inst, 5, make_rng("off")
            )
            assert np.array_equal(q_under, q_over)

    def test_empty_encounter_gives_truth_and_offline(self):
        inst = random_instance(S=8, p=3, alpha=0.5, seed="empty")
        q_under = build_q_under({}, frozenset(), inst)
        assert np.array_equal(q_under, inst.Q)
        q_over = build_q_over({}, frozenset(), inst, 50, make_rng("off2"))
        assert np.allclose(q_over.sum(axis=1), 1.0, atol=1e-12)
        assert not np.array_equal(q_over, inst.Q)

    def test_completions_agree_on_encountered_rows(self):
        inst = random_instance(S=12, p=4, alpha=0.5, seed="agree")
        _, report = run_traced(inst, 3, epsilon=0.2, n=4)
        q_under = build_q_under(report.trace.final_rows, report.trace.encountered, inst)
        q_over = build_q_over(report.trace.final_rows, report.trace.encountered, inst, 4, make_rng("o"))
        for s in report.trace.encountered:
            assert np.array_equal(q_under[s], q_over[s])
        assert np.allclose(q_under.sum(axis=1), 1.0, atol=1e-9)
        assert np.allclose(q_over.sum(axis=1), 1.0, atol=1e-9)

    @pytest.mark.parametrize("completion", ["under", "over"])
    def test_completions_refuse_a_missing_or_unnormalized_row(self, completion):
        inst = random_instance(S=8, p=3, alpha=0.5, seed="rows")

        def build(rows, encountered):
            if completion == "under":
                return build_q_under(rows, encountered, inst)
            return build_q_over(rows, encountered, inst, 4, make_rng("rows"))

        row = {0: 0.25, 1: 0.75}
        assert np.array_equal(build({2: row}, frozenset({2}))[2, :3], [0.25, 0.75, 0.0])
        with pytest.raises(ContractViolation, match="^no estimated row for encountered state 3$"):
            build({2: row}, frozenset({2, 3}))
        with pytest.raises(ContractViolation, match="^estimated row 2 sums to 0.75$"):
            build({2: {1: 0.75}}, frozenset({2}))

    def test_dense_oracles_refuse_large_S_before_allocating(self):
        S = model.DENSE_ORACLE_MAX_S + 1
        inst = random_instance(S=S, p=4, alpha=0.5, seed="too large")
        _, report = run_traced(inst, 1, epsilon=inst.cost_inf, n=2)
        P = np.eye(S)
        calls = (
            lambda: build_q_under({}, frozenset(), inst),
            lambda: build_q_over({}, frozenset(), inst, 5, make_rng("large")),
            lambda: replay_invariant(report.trace, P, inst.supergraph),
            lambda: inst.Q,
            lambda: edge_mask(inst.supergraph),
            lambda: value_function(P, inst.cost, inst.alpha),
            lambda: discounted_occupancy(P, inst.alpha),
            lambda: error_process(report.trace, P),
        )
        for call in calls:
            tracemalloc.start()
            try:
                with pytest.raises(ContractViolation, match=f"S={S} is above DENSE_ORACLE_MAX_S={S - 1}"):
                    call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1e6


class TestReplayInvariant:
    @pytest.mark.parametrize("n", [1, 5, 50])
    def test_fixed_point_holds_for_both_completions(self, n):
        inst = random_instance(S=12, p=4, alpha=0.6, seed=("inv", n))
        _, report = run_traced(inst, ("r", n), epsilon=0.1, n=n)
        trace = report.trace
        q_under = build_q_under(trace.final_rows, trace.encountered, inst)
        q_over = build_q_over(trace.final_rows, trace.encountered, inst, n, make_rng(("off", n)))
        assert replay_invariant(trace, q_under, inst.supergraph) <= 1e-9
        assert replay_invariant(trace, q_over, inst.supergraph) <= 1e-9

    def test_estimate_within_epsilon_of_completion_value(self):
        epsilon = 0.15
        inst = random_instance(S=12, p=4, alpha=0.6, seed="acc")
        _, report = run_traced(inst, 11, epsilon=epsilon, n=5)
        trace = report.trace
        q_over = build_q_over(trace.final_rows, trace.encountered, inst, 5, make_rng("accoff"))
        v_over = value_function(q_over, inst.cost, inst.alpha)
        assert np.max(np.abs(report.estimate - v_over)) <= epsilon + 1e-9

    def test_rejects_a_matrix_that_is_no_completion(self):
        inst = random_instance(S=30, p=4, alpha=0.6, seed="inv", cost_model="binary", H=3)
        _, report = run_traced(inst, 4, epsilon=0.1, n=5)
        trace = report.trace
        q_under = build_q_under(trace.final_rows, trace.encountered, inst)
        assert replay_invariant(trace, q_under, inst.supergraph) <= 1e-9
        with pytest.raises(ContractViolation, match="^P must be 30x30$"):
            replay_invariant(trace, q_under[:, :29], inst.supergraph)
        halved = q_under.copy()
        halved[0] /= 2.0
        with pytest.raises(ContractViolation, match="^P is not row stochastic$"):
            replay_invariant(trace, halved, inst.supergraph)
        # Move a row's mass onto a non-edge, in a row the run never estimated.
        sg = inst.supergraph
        s = min(set(range(30)) - trace.encountered)
        t = min(set(range(30)) - set(sg.indices[sg.indptr[s] : sg.indptr[s + 1]].tolist()))
        moved = q_under.copy()
        moved[s] = 0.0
        moved[s, t] = 1.0
        with pytest.raises(ContractViolation, match="^P has mass outside the supergraph support$"):
            replay_invariant(trace, moved, inst.supergraph)
        # A NaN on an edge would pass the three checks above: a comparison with NaN is False.
        t = int(sg.indices[sg.indptr[s]])
        unfinished = q_under.copy()
        unfinished[s, t] = np.nan
        with pytest.raises(ContractViolation, match=rf"^P\[{s}, {t}\] is nan, not finite$"):
            replay_invariant(trace, unfinished, inst.supergraph)

    def test_rejects_incompatible_matrix(self):
        inst = random_instance(S=8, p=3, alpha=0.5, seed="rej")
        _, report = run_traced(inst, 1, epsilon=0.2, n=3)
        if report.encountered_size:
            with pytest.raises(ContractViolation):
                replay_invariant(report.trace, inst.Q, inst.supergraph)


class TestSupergraphBeyondSupport:
    """A supergraph with one edge that Q never takes: Q stores 0.0 on it."""

    @pytest.fixture(scope="class")
    def pair(self):
        base = random_instance(S=12, p=4, alpha=0.6, seed="beyond")
        Q = base.Q
        s, t = map(int, np.argwhere(Q == 0.0)[0])
        mask = Q != 0.0
        mask[s, t] = True
        return base, ProblemInstance.from_arrays(base.alpha, base.cost, Q, Supergraph.from_mask(mask)), s, t

    def test_extra_edge_is_stored_as_zero(self, pair):
        base, inst, s, t = pair
        sg = inst.supergraph
        assert sg.indices.size == base.supergraph.indices.size + 1
        lo, hi = sg.indptr[s], sg.indptr[s + 1]
        assert inst.q_values[lo + sg.indices[lo:hi].tolist().index(t)] == 0.0

    def test_in_neighbors_list_the_edge_but_transitions_leave_it_out(self, pair):
        base, inst, s, t = pair
        assert s in inst.supergraph.in_neighbors(t) and s not in base.supergraph.in_neighbors(t)
        assert t not in inst.transitions.row(s)[0].tolist()
        for name in ("indptr", "indices", "probs", "cum"):
            assert getattr(inst.transitions, name).tobytes() == getattr(base.transitions, name).tobytes()

    def test_the_zero_edge_is_never_drawn(self, pair):
        _, inst, s, t = pair
        sampler = CountingSampler(inst, 8)
        assert t not in sampler.sample_next_batch(np.full(10**5, s)).tolist()
        assert t not in sampler.sample_empirical_row(s, 10**6)
        assert all(sampler.sample_empirical_column(t, 10**4)[s] == 0.0 for _ in range(100))

    def test_estimates_land_within_epsilon_of_the_truth(self, pair):
        base, inst, _, t = pair
        truth = exact_value(inst)
        assert truth.tobytes() == exact_value(base).tobytes()
        epsilon = 0.05
        sampler = CountingSampler(inst, 4)
        report = backward_epe(sampler, epsilon, 10**6, trace=True)
        assert t in {rec.state for rec in report.trace.records}  # the extra edge's column was read
        assert np.max(np.abs(report.estimate - truth)) <= epsilon
        known = approx_contributions(inst, epsilon, make_rng("beyond"))
        assert np.max(np.abs(known.estimate - truth)) <= epsilon

    def test_replay_invariant_accepts_the_under_completion(self, pair):
        _, inst, _, _ = pair
        _, report = run_traced(inst, 5, epsilon=0.1, n=5)
        trace = report.trace
        q_under = build_q_under(trace.final_rows, trace.encountered, inst)
        assert replay_invariant(trace, q_under, inst.supergraph) <= 1e-9


class TestTraceReplay:
    def test_building_refuses_a_selection_that_is_not_a_maximizer(self):
        # Push 1 takes state 1 at its true residual 0.5 while state 0 holds 1.0.
        with pytest.raises(ContractViolation, match="not a true residual maximizer at k=1$"):
            PushTrace(alpha=0.5, cost=np.array([1.0, 0.5]), records=[PushRecord(1, 0.5, {0: 1.0})], final_rows={})

    def test_building_refuses_a_recorded_residual_the_replay_does_not_reach(self):
        inst = random_instance(S=10, p=4, alpha=0.6, seed="corrupt")
        _, report = run_traced(inst, 8, epsilon=0.15, n=4)
        records = report.trace.records
        assert len(records) >= 3
        records[2].residual = np.nextafter(records[2].residual, np.inf)
        with pytest.raises(ContractViolation, match="^trace corrupt at k=3: recorded residual"):
            PushTrace(alpha=inst.alpha, cost=inst.cost, records=records, final_rows=report.trace.final_rows)


class TestSampleSizeBackward:
    def test_frozen_formula_value(self):
        assert sample_size_backward(0.1, 0.1, 0.5, 1.0, 10) == 1476

    def test_inner_log_clamps(self):
        # epsilon >= 4 c_inf drives the horizon log nonpositive; still total.
        n_clamped = sample_size_backward(4.0, 0.1, 0.5, 1.0, 10)
        assert n_clamped >= 1

    def test_monotonicity(self):
        base = sample_size_backward(0.1, 0.1, 0.5, 1.0, 10)
        assert sample_size_backward(0.2, 0.1, 0.5, 1.0, 10) <= base
        assert sample_size_backward(0.05, 0.1, 0.5, 1.0, 10) >= base
        assert sample_size_backward(0.1, 0.1, 0.5, 1.0, 100) >= base

    def test_rejects_bad_domain(self):
        with pytest.raises(ContractViolation):
            sample_size_backward(0.0, 0.1, 0.5, 1.0, 10)
        with pytest.raises(ContractViolation):
            sample_size_backward(0.1, 0.1, 1.0, 1.0, 10)


class TestExactRowCoupling:
    def test_exact_rows_match_known_matrix_push(self):
        # With true rows substituted for sampled ones and a shared tie
        # stream, the push loop reproduces the known-matrix estimator.
        inst = random_instance(S=10, p=4, alpha=0.6, seed="couple")
        outcome = run_push_loop(
            epsilon=0.1,
            row_source=ExactRows(inst),
            tie_rng=make_rng("ties"),
            trace=True,
        )
        report = approx_contributions(inst, 0.1, make_rng("ties"), trace=True)
        assert np.array_equal(outcome.estimate, report.estimate)
        assert outcome.iterations == report.iterations
        assert [r.state for r in outcome.trace.records] == [r.state for r in report.trace.records]
        assert np.max(np.abs(report.estimate - exact_value(inst))) <= 0.1 + 1e-12
