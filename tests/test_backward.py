import heapq
import json
import math
import tracemalloc

import numpy as np
import pytest

from epelab import (
    ContractViolation,
    CountingSampler,
    ProblemInstance,
    Supergraph,
    approx_contributions,
    backward_epe,
    build_q_over,
    build_q_under,
    exact_value,
    replay_invariant,
    sample_size_backward,
    value_function,
)
from epelab import backward, push
from epelab.push import ExactRows, replay_states, run_push_loop
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
    comes back through ``notify`` after its push."""

    class RepushSelected(push._MaxResidualHeap):
        # The former rule: the selected state's entry goes back too, and
        # turns stale at the push's own notify.
        def select(self, value, tie_rng):
            s_k = super().select(value, tie_rng)
            heapq.heappush(self._heap, (-value, s_k))
            return s_k

    class CheckedHeap(push._MaxResidualHeap):
        def select(self, value, tie_rng):
            s_k = super().select(value, tie_rng)
            assert (-value, s_k) not in self._heap
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
        report = backward_epe(sampler, 0.02, 8, tie_rng=tie_rng, trace=True)
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

    def test_dense_oracles_refuse_large_S_before_allocating(self):
        S = backward.DENSE_ORACLE_MAX_S + 1
        inst = random_instance(S=S, p=4, alpha=0.5, seed="too large")
        _, report = run_traced(inst, 1, epsilon=inst.cost_inf, n=2)
        P = np.eye(S)
        calls = (
            lambda: build_q_under({}, frozenset(), inst),
            lambda: build_q_over({}, frozenset(), inst, 5, make_rng("large")),
            lambda: replay_invariant(report.trace, P, inst.supergraph),
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


class TestTraceSerialization:
    def test_jsonl_round_trip_preserves_replay(self, tmp_path):
        inst = random_instance(S=10, p=4, alpha=0.6, seed="jsonl")
        _, report = run_traced(inst, 8, epsilon=0.15, n=4)
        path = tmp_path / "trace.jsonl"
        report.trace.to_jsonl(path)
        back = type(report.trace).from_jsonl(path)
        assert np.array_equal(back.final_estimate, report.trace.final_estimate)
        assert np.array_equal(back.final_residual, report.trace.final_residual)
        assert back.encountered == report.trace.encountered
        q_under = build_q_under(back.final_rows, back.encountered, inst)
        assert replay_invariant(back, q_under, inst.supergraph) <= 1e-9

    def test_header_encountered_must_match_final_rows(self, tmp_path):
        inst = random_instance(S=10, p=4, alpha=0.6, seed="jsonl")
        _, report = run_traced(inst, 8, epsilon=0.15, n=4)
        path = tmp_path / "trace.jsonl"
        report.trace.to_jsonl(path)
        header, *records = path.read_text(encoding="utf-8").splitlines(keepends=True)
        doc = json.loads(header)
        assert doc["encountered"] == sorted(int(s) for s in doc["final_rows"])
        doc["encountered"] = doc["encountered"][1:]
        path.write_text(json.dumps(doc) + "\n" + "".join(records), encoding="utf-8")
        with pytest.raises(ContractViolation, match="encountered"):
            type(report.trace).from_jsonl(path)


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
            cost=inst.cost,
            alpha=inst.alpha,
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
