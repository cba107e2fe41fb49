import dataclasses
import hashlib
import json
import math
import re
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from epelab import (
    ContractViolation,
    CountingSampler,
    ForwardConfig,
    ProblemInstance,
    Supergraph,
    approx_contributions,
    backward_epe,
    backward_epe_alternative,
    exact_value,
    exact_value_power_series,
    forward_epe,
    instance_from_dict,
    instance_to_dict,
    plug_in_estimate,
    validate_instance,
    value_function,
)
from epelab import model
from epelab.model import TransitionTable
from epelab.rng import make_rng
from conftest import instance_from, random_instance


def certified_tau(inst):
    """The bound within which exact_value's sweeps stop."""
    return 2.0**-50 * max((1.0 - inst.alpha) * inst.cost_inf, 1.0)


def assert_matches_dense_solve(inst):
    """exact_value within tau of the dense solve, plus the solve's own forward
    error: cond_inf(I - alpha Q) <= (1 + alpha) / (1 - alpha) ulps of ||v||."""
    v, dense = exact_value(inst), value_function(inst.Q, inst.cost, inst.alpha)
    oracle = (1.0 + inst.alpha) / (1.0 - inst.alpha) * 2.0**-52 * max(np.max(np.abs(dense)), 1.0)
    assert np.max(np.abs(v - dense)) <= certified_tau(inst) + oracle


class TestValidate:
    def test_degenerate_valid_instance(self, point_mass):
        assert validate_instance(point_mass) == []

    def test_absolute_continuity_violation(self):
        # Q is stored on the supergraph's edges, so an entry off them cannot be built.
        sg = Supergraph(2, [0, 1, 2], [0, 0])
        with pytest.raises(ContractViolation, match=r"Q\[0, 1\] = 0.5 lies off the supergraph"):
            ProblemInstance.from_arrays(0.5, [1.0, 1.0], [[0.5, 0.5], [1.0, 0.0]], sg)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Supergraph(0, [0], []),
            lambda: ProblemInstance.from_arrays(0.5, [], np.zeros((0, 0))),
            lambda: instance_from_dict(
                {"S": 0, "alpha": 0.5, "cost": [], "supergraph": {"indptr": [0], "indices": []}, "q_values": []}
            ),
            # An indptr of S + 1 = 0 entries, which has no first entry to check.
            lambda: instance_from_dict(
                {"S": -1, "alpha": 0.5, "cost": [], "supergraph": {"indptr": [], "indices": []}, "q_values": []}
            ),
        ],
        ids=["supergraph", "from_arrays", "document", "negative_document"],
    )
    def test_zero_states_are_refused_where_they_are_built(self, build):
        with pytest.raises(ContractViolation, match=r"^S must be >= 1, got (0|-1)$"):
            build()

    def test_supergraph_of_another_size_is_refused(self):
        sg = Supergraph(1, [0, 1], [0])
        with pytest.raises(ContractViolation, match="one row per supergraph state"):
            ProblemInstance.from_arrays(0.5, [1.0, 1.0], [[0.0, 1.0], [1.0, 0.0]], sg)
        with pytest.raises(ContractViolation, match="supergraph has 1 states, the instance S=2"):
            ProblemInstance(2, 0.5, [1.0, 1.0], sg, [1.0])

    def test_row_sum_violation(self):
        inst = ProblemInstance.from_arrays(0.5, [1.0, 1.0], [[0.5, 0.4], [0.5, 0.5]])
        violations = validate_instance(inst)
        assert any(v.kind == "row_sum" and v.where == (0,) for v in violations)

    def test_negative_cost(self):
        inst = ProblemInstance.from_arrays(0.5, [-0.1], [[1.0]])
        assert any(v.kind == "negative_cost" for v in validate_instance(inst))

    def test_generated_instances_valid(self):
        for i in range(20):
            inst = random_instance(S=10, p=3, alpha=0.7, seed=("valid", i))
            assert validate_instance(inst) == []


class TestExactValue:
    def test_point_mass_value_is_cost(self):
        for alpha in (0.1, 0.5, 0.9):
            inst = instance_from(alpha, [2.5], [[1.0]])
            assert exact_value(inst) == pytest.approx([2.5], abs=1e-12)

    def test_two_cycle(self, two_cycle):
        assert exact_value(two_cycle) == pytest.approx([2 / 3, 1 / 3], abs=1e-12)

    def test_zero_cost(self):
        inst = instance_from(0.5, [0.0, 0.0], [[0.0, 1.0], [1.0, 0.0]])
        assert np.all(exact_value(inst) == 0.0)

    def test_values_within_cost_range(self):
        for i in range(10):
            inst = random_instance(S=15, p=4, alpha=0.8, seed=("range", i))
            v = exact_value(inst)
            assert np.all(v >= -1e-12)
            assert np.all(v <= inst.cost_inf + 1e-12)

    def test_solve_equals_eye_minus_alpha_q(self):
        # The oracle is the solve of np.eye(S) - alpha * Q, byte for byte; the
        # certified value agrees with it within tau plus the solve's own error.
        inst = random_instance(S=60, p=5, alpha=0.93, seed="inplace")
        reference = np.linalg.solve(np.eye(inst.S) - inst.alpha * inst.Q, (1.0 - inst.alpha) * inst.cost)
        assert value_function(inst.Q, inst.cost, inst.alpha).tobytes() == reference.tobytes()
        assert value_function(inst.Q.T, inst.cost, 0.5).tobytes() == np.linalg.solve(
            np.eye(inst.S) - 0.5 * inst.Q.T, 0.5 * inst.cost
        ).tobytes()
        assert_matches_dense_solve(inst)

    def test_generated_instances_match_the_dense_solve(self):
        for i, (S, p, alpha) in enumerate(((1, 1, 0.5), (2, 2, 0.3), (40, 4, 0.9), (150, 10, 0.999))):
            assert_matches_dense_solve(random_instance(S=S, p=p, alpha=alpha, seed=("csr", i)))

    def test_agrees_with_the_dense_solve_at_small_alpha(self):
        assert_matches_dense_solve(random_instance(S=40, p=4, alpha=1e-3, seed="small-alpha"))

    def test_absorbing_and_degree_one_rows(self):
        base = random_instance(S=80, p=6, alpha=0.7, seed="csr-mixed")
        Q = base.Q
        Q[3] = 0.0
        Q[3, 3] = 1.0
        for s, t in ((0, 79), (40, 0), (79, 78)):
            Q[s] = 0.0
            Q[s, t] = 1.0
        inst = instance_from(0.7, base.cost, Q)
        assert_matches_dense_solve(inst)
        sg = inst.supergraph
        assert sg.indices[sg.indptr[3]:sg.indptr[4]].tolist() == [3]

    def test_point_mass_rows_only(self):
        # A deterministic chain: a 3-cycle, a fixed point, and a path into each.
        succ = [1, 2, 0, 3, 3, 0, 5]
        Q = np.zeros((7, 7))
        Q[np.arange(7), succ] = 1.0
        for alpha in (1e-3, 0.5, 0.999):
            assert_matches_dense_solve(instance_from(alpha, [0.3, 1.0, 0.0, 2.0, 0.0, 0.7, 0.1], Q))

    def test_periodic_two_cycle_at_high_alpha(self):
        # Periodic, so the bounds close at rate alpha only; the closed form is
        # v = (1/(1 + alpha), alpha/(1 + alpha)).
        inst = instance_from(0.999, [1.0, 0.0], [[0.0, 1.0], [1.0, 0.0]])
        a = Fraction(0.999)
        exact = np.array([float(1 / (1 + a)), float(a / (1 + a))])
        assert np.max(np.abs(exact_value(inst) - exact)) <= certified_tau(inst)
        assert_matches_dense_solve(inst)

    def test_zero_cost_absorbing_class(self):
        # States 0-2 form a closed class with zero cost; the rest drain into it.
        rng = np.random.default_rng(7)
        Q = rng.random((30, 30))
        Q[:3, 3:] = 0.0
        Q /= Q.sum(axis=1, keepdims=True)
        cost = rng.random(30)
        cost[:3] = 0.0
        inst = instance_from(0.99, cost, Q)
        v = exact_value(inst)
        assert np.all(np.abs(v[:3]) <= certified_tau(inst))
        threshold = 1e-12 * max(inst.cost_inf, 1.0)
        dense = value_function(inst.Q, inst.cost, 0.99)
        assert np.count_nonzero(v <= threshold) == np.count_nonzero(dense <= threshold) == 3
        assert_matches_dense_solve(inst)

    def test_sweeps_stop_early_on_ergodic_chains_and_at_the_cap_otherwise(self, monkeypatch):
        sweeps = []
        bincount = np.bincount
        monkeypatch.setattr(np, "bincount", lambda *a, **k: sweeps.append(1) or bincount(*a, **k))
        for alpha in (1e-3, 0.5, 0.999):
            cap = math.ceil(math.log(2.0**-50) / math.log(alpha))
            sweeps.clear()
            exact_value(instance_from(alpha, [1.0, 0.0], [[0.0, 1.0], [1.0, 0.0]]))
            assert 1 <= len(sweeps) <= cap
            inst = random_instance(S=200, p=10, alpha=alpha, seed="sweeps")
            sweeps.clear()
            exact_value(inst)
            assert len(sweeps) <= min(cap, 60)
        # Two absorbing states, one of cost 100: the bounds close at rate
        # alpha from 100 apart, so only the cap stops the sweeps.
        inst = instance_from(0.99, [100.0, 0.0], [[1.0, 0.0], [0.0, 1.0]])
        sweeps.clear()
        v = exact_value(inst)
        assert len(sweeps) == math.ceil(math.log(2.0**-50) / math.log(0.99))
        assert np.max(np.abs(v - [100.0, 0.0])) <= 2.0**-50 * 100.0

    def test_rejects_alpha_outside_the_open_unit_interval(self):
        for alpha in (0.0, 1.0, 1.5):
            with pytest.raises(ContractViolation, match="alpha must lie in"):
                exact_value(instance_from(alpha, [1.0], [[1.0]]))

    def test_allocates_no_dense_matrix(self):
        # The truth and the plug-in estimate, which shares its solver.
        inst = random_instance(S=3200, p=10, alpha=0.9, seed="memory")
        sampler = CountingSampler(inst, "memory")
        tracemalloc.start()
        try:
            exact_value(inst)
            plug_in_estimate(sampler, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6  # one dense S x S float array is 82 MB

    def test_large_S_at_high_alpha(self):
        inst = random_instance(S=20000, p=10, alpha=0.999, seed="large")
        started = time.perf_counter()
        v = exact_value(inst)
        assert time.perf_counter() - started < 10.0
        # A level error delta would leave a fixed-point residual (1 - alpha) delta.
        rows, indices, values = inst.q_entries()
        qv = np.bincount(rows, values * v[indices], minlength=inst.S)
        residual = (1.0 - inst.alpha) * inst.cost + inst.alpha * qv - v
        assert np.max(np.abs(residual)) <= 8 * 2.0**-52 * np.max(v)
        assert np.all(v >= 0.0) and np.all(v <= inst.cost_inf)


class TestPowerSeries:
    def test_single_term(self, two_cycle):
        assert exact_value_power_series(two_cycle, 1) == pytest.approx(0.5 * two_cycle.cost, abs=0)

    def test_converges_to_solve(self, two_cycle):
        series = exact_value_power_series(two_cycle, 30)
        assert np.max(np.abs(series - exact_value(two_cycle))) <= 1e-8

    def test_zero_cost(self):
        inst = instance_from(0.5, [0.0], [[1.0]])
        assert np.all(exact_value_power_series(inst, 7) == 0.0)

    def test_truncation_bound_over_instances(self):
        # |solve - series(T)| <= ||c||_inf * alpha^T for every T.
        for i in range(5):
            inst = random_instance(S=12, p=4, alpha=0.6, seed=("trunc", i))
            v = exact_value(inst)
            for T in range(1, 51):
                gap = np.max(np.abs(v - exact_value_power_series(inst, T)))
                assert gap <= inst.cost_inf * inst.alpha**T + 1e-12

    def test_rejects_bad_T(self, point_mass):
        with pytest.raises(ContractViolation):
            exact_value_power_series(point_mass, 0)


class TestCountingSampler:
    def test_point_mass_row_always_hits(self, two_cycle):
        sampler = CountingSampler(two_cycle, 0)
        assert all(sampler.sample_next(0) == 1 for _ in range(20))
        assert all(sampler.sample_next(1) == 0 for _ in range(20))

    def test_draw_count_increments_by_one(self, two_cycle):
        sampler = CountingSampler(two_cycle, 0)
        for expected in range(1, 11):
            sampler.sample_next(0)
            assert sampler.draw_count == expected

    def test_same_seed_same_draws(self, two_cycle):
        inst = random_instance(S=8, p=3, alpha=0.5, seed="det")
        a = CountingSampler(inst, 42)
        b = CountingSampler(inst, 42)
        seq_a = [a.sample_next(i % 8) for i in range(200)]
        seq_b = [b.sample_next(i % 8) for i in range(200)]
        assert seq_a == seq_b

    def test_batch_matches_single_draws(self):
        inst = random_instance(S=6, p=3, alpha=0.5, seed="batch")
        a = CountingSampler(inst, 7)
        b = CountingSampler(inst, 7)
        states = np.array([0, 3, 3, 5, 1, 0, 2, 4] * 5)
        batch = a.sample_next_batch(states)
        singles = np.array([b.sample_next(s) for s in states])
        assert np.array_equal(batch, singles)
        assert a.draw_count == b.draw_count == states.size

    def test_empirical_frequencies_match_row(self):
        inst = instance_from(0.5, [1.0, 1.0], [[0.5, 0.5], [0.3, 0.7]])
        sampler = CountingSampler(inst, 123)
        draws = sampler.sample_next_batch(np.zeros(100_000, dtype=np.int64))
        freq = np.mean(draws == 1)
        assert abs(freq - 0.5) < 0.01
        assert sampler.draw_count == 100_000

    def test_empirical_row_counts_n(self):
        inst = random_instance(S=8, p=3, alpha=0.5, seed="rowchan")
        sampler = CountingSampler(inst, 1)
        row = sampler.sample_empirical_row(2, 1000)
        assert sampler.draw_count == 1000
        assert sum(row.values()) == pytest.approx(1.0, abs=1e-12)
        support = set(np.flatnonzero(inst.Q[2] > 0))
        assert set(row) <= support

    def test_empirical_row_keys_ascend(self):
        # TransitionTable.from_rows takes these dicts as they are.
        inst = random_instance(S=40, p=8, alpha=0.5, seed="rowkeys")
        sampler = CountingSampler(inst, 2)
        for s in range(inst.S):
            for n in (1, 5, 1000):
                keys = list(sampler.sample_empirical_row(s, n))
                assert keys == sorted(set(keys))

    def test_invalid_state_rejected(self, two_cycle):
        sampler = CountingSampler(two_cycle, 0)
        with pytest.raises(ContractViolation):
            sampler.sample_next(2)

    def test_spawned_children_independent_of_parent_draws(self, two_cycle):
        inst = random_instance(S=8, p=3, alpha=0.5, seed="spawn")
        a = CountingSampler(inst, 9)
        b = CountingSampler(inst, 9)
        a.sample_next_batch(np.zeros(50, dtype=np.int64))  # consume parent stream
        child_a = a.spawn("walks", 3)
        child_b = b.spawn("walks", 3)
        assert [child_a.sample_next(1) for _ in range(20)] == [child_b.sample_next(1) for _ in range(20)]


def column_instance():
    """Column 2: states 0, 1, 2 and 4 lead to it, state 3 has an edge to it
    that carries 0.0, state 1 is a degree-1 row, and state 4 reaches it with
    probability 0.7."""
    Q = np.array(
        [
            [0.0, 0.2, 0.5, 0.3, 0.0],
            [0.0, 0.0, 1.0, 0.0, 0.0],
            [0.4, 0.0, 0.1, 0.0, 0.5],
            [0.6, 0.0, 0.0, 0.0, 0.4],
            [0.0, 0.0, 0.7, 0.3, 0.0],
        ]
    )
    mask = Q != 0
    mask[3, 2] = True
    return instance_from(0.5, [1.0] * 5, Q, Supergraph.from_mask(mask))


class TestEmpiricalColumn:
    def test_zero_edge_and_degree_one_row_are_exact(self):
        sampler = CountingSampler(column_instance(), 11)
        for n in (1, 3, 7, 50):
            for _ in range(10):
                before = sampler.draw_count
                column = sampler.sample_empirical_column(2, n)
                assert list(column) == [0, 1, 2, 3, 4]
                assert column[3] == 0.0 and column[1] == 1.0
                assert all(type(q) is float for q in column.values())
                assert sampler.draw_count - before == 5 * n

    def test_entries_match_q_in_mean_and_variance(self):
        # Each entry is hits / n with hits ~ Binomial(n, Q(s, t)): over many
        # draws its mean and variance lie within 5 standard errors of
        # Q(s, t) and Q(s, t) (1 - Q(s, t)) / n.
        inst = random_instance(S=40, p=4, alpha=0.5, seed="colchan")
        sampler = CountingSampler(inst, 3)
        assert "in_edge_probs" not in vars(inst)  # built on the channel's first use
        Q, degrees, n, reps = inst.Q, inst.supergraph.in_degrees, 20, 400
        for t in range(inst.S):
            sources = inst.supergraph.in_neighbors(t)
            before = sampler.draw_count
            draws = np.array([list(sampler.sample_empirical_column(t, n).values()) for _ in range(reps)])
            assert sampler.draw_count - before == reps * n * int(degrees[t])
            if not sources:
                continue
            q = Q[sources, t]
            var = q * (1.0 - q) / n
            fourth = n * q * (1.0 - q) * (1.0 + 3.0 * (n - 2) * q * (1.0 - q)) / n**4
            assert np.all(np.abs(draws.mean(axis=0) - q) <= 5.0 * np.sqrt(var / reps) + 1e-12)
            assert np.all(np.abs(draws.var(axis=0, ddof=1) - var) <= 5.0 * np.sqrt((fourth - var**2) / reps) + 1e-12)
        assert type(inst.in_edge_probs) is tuple

    @pytest.mark.parametrize("n", [1, 20, 1000, 10**6])
    def test_columns_and_the_stream_after_equal_one_vector_call(self, n):
        # One scalar binomial per in-edge reads the stream as one vector call
        # over the column does, for p = 0, p = 1, p > 0.5 and n past the
        # inversion sampler's range; the uniforms after the columns agree too.
        for inst in (column_instance(), random_instance(S=30, p=4, alpha=0.5, seed="colstream")):
            sampler, reference = CountingSampler(inst, 7), CountingSampler(inst, 7).rng
            colptr, _, sources = inst.supergraph.transpose
            probs = np.array(inst.in_edge_probs)
            for t in list(range(inst.S)) * 2:
                lo, hi = colptr[t], colptr[t + 1]
                column = sampler.sample_empirical_column(t, n)
                assert list(column) == sources[lo:hi]
                assert list(column.values()) == (reference.binomial(n, probs[lo:hi]) / n).tolist()
            assert sampler.rng.random(4).tolist() == reference.random(4).tolist()

    def test_out_of_range_target_or_bad_count_refused_before_any_draw(self, two_cycle):
        a, b = CountingSampler(two_cycle, 5), CountingSampler(two_cycle, 5)
        cases = [(2, 4, "out of range"), (-1, 4, "out of range"), (0, 0, ">= 1"), (1, -3, ">= 1")]
        cases += [(0.0, 4, "must be an integer"), (0, 2.5, "whole number"), (True, 4, "must be an integer")]
        for t, n, message in cases:
            with pytest.raises(ContractViolation, match=message):
                a.sample_empirical_column(t, n)
        assert a.draw_count == 0
        assert a.rng.random() == b.rng.random()

    def test_all_zero_row_rejected(self):
        # State 1 has edges to both states, and both carry 0.0: the instance
        # is built, and the sampler, with its column channel, is refused.
        inst = instance_from(0.5, [1.0, 0.0], [[0.5, 0.5], [0.0, 0.0]], Supergraph.from_mask(np.ones((2, 2))))
        assert [v.kind for v in validate_instance(inst)] == ["row_sum"]
        with pytest.raises(ContractViolation, match="^state 1 has an all-zero transition row$"):
            CountingSampler(inst, 0)


def out_rows(sg):
    return [sg.indices[lo:hi].tolist() for lo, hi in zip(sg.indptr, sg.indptr[1:])]


def loop_transpose(S, out_edges):
    incoming = [[] for _ in range(S)]
    for s, row in enumerate(out_edges):
        for t in row:
            incoming[int(t)].append(s)
    return incoming


class TestSupergraph:
    def check_transpose(self, sg):
        expected = loop_transpose(sg.S, out_rows(sg))
        rows = [sg.in_neighbors(t) for t in range(sg.S)]
        assert rows == expected
        assert all(type(s) is int for row in rows for s in row)
        assert sg.in_degrees.tolist() == [len(row) for row in expected]
        # Edge order[i] runs from sources[i] to the state whose column holds i.
        colptr, order, sources = sg.transpose
        assert model.csr_rows(sg.indptr)[order].tolist() == sources
        assert sg.indices[order].tolist() == [t for t, row in enumerate(expected) for _ in row]
        assert colptr == np.cumsum([0] + [len(row) for row in expected]).tolist()

    def test_transpose_matches_loop_on_random_graph(self):
        mask = np.random.default_rng(5).random((60, 60)) < 0.08
        sg = Supergraph.from_mask(mask)
        assert out_rows(sg) == [np.flatnonzero(r).tolist() for r in mask]
        self.check_transpose(sg)

    def test_transpose_with_empty_in_rows(self):
        # Nobody reaches states 0, 3 and 5; state 5 also has no out-edges.
        sg = Supergraph(6, [0, 2, 3, 5, 7, 8, 8], [1, 2, 2, 1, 4, 1, 4, 2])
        self.check_transpose(sg)
        assert sg.in_degrees.tolist() == [0, 3, 3, 0, 2, 0]
        mask = np.zeros((4, 4), dtype=bool)
        mask[:, 2] = True
        self.check_transpose(Supergraph.from_mask(mask))

    def test_out_of_range_target_rejected(self):
        for bad in (2, -1):
            with pytest.raises(ContractViolation, match="out of range"):
                Supergraph(2, [0, 1, 3], [0, 1, bad])

    def test_arrays_are_shared_read_only_and_derived_once(self):
        inst = random_instance(S=30, p=4, alpha=0.5, seed="shared")
        sg = inst.supergraph
        # Q is stored on the supergraph's edges: one CSR pair, no second one.
        assert [f.name for f in dataclasses.fields(ProblemInstance)] == ["S", "alpha", "cost", "supergraph", "q_values"]
        _, indices, values = inst.q_entries()
        assert indices is sg.indices and values is inst.q_values and values.size == sg.indices.size
        assert not sg.indptr.flags.writeable and not sg.indices.flags.writeable
        assert sg.transpose is sg.transpose and not sg.transpose[1].flags.writeable
        assert sg.avg_degree == sg.indices.size / sg.S


    def test_push_estimators_share_one_transpose(self, monkeypatch):
        # The two sampled push estimators and the known-matrix one read the
        # supergraph's in-edges; one instance transposes them once.
        calls = []
        transpose = model.csr_transpose
        monkeypatch.setattr(model, "csr_transpose", lambda *args: calls.append(1) or transpose(*args))
        inst = random_instance(S=40, p=4, alpha=0.6, seed="once")
        backward_epe(CountingSampler(inst, 1), 0.05, 5)
        backward_epe_alternative(CountingSampler(inst, 2), 0.05, 5)
        approx_contributions(inst, 0.05, make_rng(3))
        assert len(calls) == 1


def searchsorted_reference(Q, states, u):
    """Draws as the per-row CDF search computes them, row by row from Q."""
    out = np.empty(states.size, dtype=np.int64)
    for i, (s, x) in enumerate(zip(states, u)):
        idx = np.flatnonzero(Q[s] > 0)
        probs = Q[s, idx] / Q[s, idx].sum()
        cum = np.cumsum(probs)
        cum[-1] = 1.0
        out[i] = idx[min(np.searchsorted(cum, x, side="right"), idx.size - 1)]
    return out


def cum_row(table, s):
    """Row s of the table's cumulative sums."""
    return table.cum[table.indptr[s] : table.indptr[s + 1]]


def assert_boundary_draws_equal_reference(inst):
    """draw_batch equals the reference for uniforms on, one ulp below and
    one ulp above every CDF entry of every row, and at 0 and the largest
    float below 1, all clipped to [0, 1)."""
    table = inst.transitions
    width = np.diff(table.indptr)
    entry_states = np.repeat(np.arange(inst.S), width)
    below, above = np.nextafter(table.cum, -np.inf), np.nextafter(table.cum, np.inf)
    drawable = np.flatnonzero(width)
    states = np.concatenate([entry_states] * 3 + [drawable] * 2)
    u = np.concatenate([below, table.cum, above, np.zeros(drawable.size), np.full(drawable.size, 1.0)])
    u = np.clip(u, 0.0, np.nextafter(1.0, 0.0))
    assert np.array_equal(table.draw_batch(states, u), searchsorted_reference(inst.Q, states, u))


class TestTransitionTable:
    @pytest.fixture(scope="class")
    def mixed_rows(self):
        # A random chain with an absorbing state and degree-1 rows spliced in.
        base = random_instance(S=300, p=10, alpha=0.9, seed="table")
        Q = base.Q.copy()
        Q[7] = 0.0
        Q[7, 7] = 1.0
        for s, t in ((11, 250), (12, 0), (299, 298)):
            Q[s] = 0.0
            Q[s, t] = 1.0
        return instance_from(0.9, base.cost, Q)

    @pytest.mark.parametrize("widest", [3, 300, 70_000])
    def test_row_blocks_group_rows_by_length_in_row_order(self, widest):
        # Many tied lengths, the widest needing an 8-, 16- or 32-bit sort key.
        degree = np.random.default_rng(widest).integers(0, 4, 2000)
        degree[[5, 1500]] = widest
        indptr = np.concatenate(([0], np.cumsum(degree)))
        expected = {}
        for s, d in enumerate(degree.tolist()):
            if d:
                expected.setdefault(d, []).append(list(range(indptr[s], indptr[s + 1])))
        blocks = list(model.csr_row_blocks(indptr))
        assert [block.tolist() for block in blocks] == [expected[d] for d in sorted(expected)]

    def test_rows_match_dense_matrix(self, mixed_rows):
        table = mixed_rows.transitions
        for s in range(mixed_rows.S):
            idx, probs = table.row(s)
            assert np.array_equal(idx, np.flatnonzero(mixed_rows.Q[s] > 0))
            assert np.array_equal(probs, mixed_rows.Q[s, idx] / mixed_rows.Q[s, idx].sum())
            assert cum_row(table, s)[-1] == 1.0
        assert table.row(7)[0].tolist() == [7]
        assert table.row(11)[0].tolist() == [250]

    def test_batch_draws_equal_single_draws(self, mixed_rows):
        S, n = mixed_rows.S, 120_000
        rng = np.random.default_rng(5)
        states = rng.integers(0, S, n)
        states[:300] = [7, 11, 12, 299] * 75
        a = CountingSampler(mixed_rows, 3)
        b = CountingSampler(mixed_rows, 3)
        batch = a.sample_next_batch(states)
        assert np.array_equal(batch, mixed_rows.transitions.draw_batch(states, make_rng(3).random(n)))
        # Single draws on a prefix that visits every state.
        prefix = 4000
        assert set(states[:prefix].tolist()) == set(range(S))
        singles = np.array([b.sample_next(s) for s in states[:prefix]])
        assert np.array_equal(batch[:prefix], singles)
        assert a.draw_count == n and b.draw_count == prefix
        assert set(batch[:300].tolist()) == {7, 250, 0, 298}
        with pytest.raises(ContractViolation, match="out of range"):
            a.sample_next_batch(np.array([0, S]))
        assert a.draw_count == n

    def test_draws_equal_reference_on_cdf_boundaries(self, mixed_rows):
        # Uniforms on and one ulp either side of a row's CDF entries are
        # where a shifted or re-summed CDF would disagree with the row search.
        table = mixed_rows.transitions
        rng = np.random.default_rng(6)
        states = rng.integers(0, mixed_rows.S, 6000)
        lo, hi = table.indptr[states], table.indptr[states + 1]
        u = table.cum[lo + (rng.random(states.size) * (hi - lo)).astype(np.int64)]
        u = np.where(u >= 1.0, rng.random(states.size), u)
        shift = np.arange(u.size) % 3  # on the entry, one ulp below, one ulp above
        u = np.where(shift == 1, np.nextafter(u, -np.inf), np.where(shift == 2, np.nextafter(u, np.inf), u))
        u = np.clip(u, 0.0, np.nextafter(1.0, 0.0))
        expected = searchsorted_reference(mixed_rows.Q, states, u)
        assert np.array_equal(table.draw_batch(states, u), expected)

    @pytest.mark.parametrize("widest", [2, 3, 4, 5, 8, 9, 16, 17, 32, 33, 64, 65])
    def test_rows_of_width_power_of_two_and_one_more(self, widest):
        # Row r has width r + 1, so the widest row sets the pass count:
        # at 2^k it is k, and a row of 2^k + 1 needs one pass more.
        rng = np.random.default_rng(widest)
        S = widest + 3
        Q = np.zeros((S, S))
        for r in range(S):
            cols = rng.choice(S, size=min(r + 1, widest), replace=False)
            Q[r, cols] = rng.random(cols.size) + 0.01
        inst = instance_from(0.5, np.ones(S), Q)
        assert inst.transitions._passes == (widest - 1).bit_length()
        assert_boundary_draws_equal_reference(inst)

    def test_point_mass_rows_take_no_pass(self):
        S = 40
        successor = np.random.default_rng(3).permutation(S)
        Q = np.zeros((S, S))
        Q[np.arange(S), successor] = 1.0
        inst = instance_from(0.5, np.ones(S), Q)
        assert inst.transitions._passes == 0
        assert_boundary_draws_equal_reference(inst)
        u = np.random.default_rng(4).random(1000)
        states = np.arange(u.size) % S
        assert np.array_equal(inst.transitions.draw_batch(states, u), successor[states])

    def test_tiny_probability_leaves_equal_cdf_entries(self):
        # A probability below half an ulp of the running sum adds nothing to
        # it, so its entry repeats the CDF entry before it and is never drawn.
        # Row 2's tiny entry comes first instead: only a u below 1e-20 draws it.
        Q = np.zeros((4, 4))
        Q[0, :3] = [0.5, 1e-20, 0.5]
        Q[1] = [0.25, 1e-30, 1e-30, 0.75]
        Q[2, 1:] = [1e-20, 0.5, 0.5]
        Q[3, [0, 3]] = [1.0, 1e-25]
        inst = instance_from(0.5, np.ones(4), Q)
        table = inst.transitions
        assert cum_row(table, 0).tolist() == [0.5, 0.5, 1.0]
        assert cum_row(table, 1).tolist() == [0.25, 0.25, 0.25, 1.0]
        assert cum_row(table, 2).tolist() == [1e-20, 0.5, 1.0]
        assert cum_row(table, 3).tolist() == [1.0, 1.0]
        assert_boundary_draws_equal_reference(inst)
        assert table.draw_batch(np.array([0, 0, 1]), np.array([0.5, np.nextafter(0.5, 0.0), 0.25])).tolist() == [2, 0, 3]

    def test_overshooting_cdf_is_clamped_to_one(self):
        # Rows whose running sum ends above 1.0 before the clamp; in some,
        # a last probability below an ulp puts the entry before it above
        # 1.0 too, so the stored CDF falls at its end.
        rng = np.random.default_rng(8)
        rows = []
        for width in (3, 4, 5, 9, 17):
            for tiny_last in (False, True):
                while True:
                    q = rng.random(width)
                    if tiny_last:
                        q[-1] *= 1e-17
                    cum = np.cumsum(q / q.sum())
                    if cum[-2 if tiny_last else -1] > 1.0:
                        rows.append(q)
                        break
        S = 20
        Q = np.zeros((S, S))
        for s, q in enumerate(rows):
            Q[s, np.sort(rng.choice(S, size=q.size, replace=False))] = q
        for s in range(len(rows), S):
            Q[s, s] = 1.0
        inst = instance_from(0.5, np.ones(S), Q)
        table = inst.transitions
        for s in range(len(rows)):
            _, probs = table.row(s)
            assert np.cumsum(probs)[-1] > 1.0 and cum_row(table, s)[-1] == 1.0
        assert sum(cum_row(table, s)[-2] > 1.0 for s in range(len(rows))) == 5
        assert_boundary_draws_equal_reference(inst)

    def test_spawned_children_share_the_instance_table(self, mixed_rows):
        parent = CountingSampler(mixed_rows, 1)
        child = parent.spawn("walks", 4)
        grandchild = child.spawn("again")
        assert parent.table is child.table is grandchild.table is mixed_rows.transitions
        for sampler in (parent, child, grandchild):
            sampler.sample_next(3)
            assert not any(isinstance(v, dict) for v in vars(sampler).values())

    def test_build_copies_nothing_of_nnz_size(self):
        # The table keeps its four arrays, cum built by the first batch
        # draw, and the S + 1 row pointers.
        inst = random_instance(S=20000, p=10, alpha=0.9, seed="table memory")
        tracemalloc.start()
        try:
            table = inst.transitions
            table.draw_batch(np.array([0]), np.array([0.5]))
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        arrays = sum(arr.nbytes for arr in (table.indptr, table.indices, table.probs, table.cum))
        assert retained <= 1.5 * arrays

    def test_only_a_batch_draw_builds_cum(self):
        # The headline's sparse instance at S = 10^5: backward reads 74 rows
        # through the row channel and never the cumulative sums; a forward
        # run builds them, with the digest of the eager build they replace.
        S = 10**5
        inst = random_instance(S=S, p=10, alpha=0.5, seed=(7, "instance", S, 0), cost_model="binary", H=5)
        report = backward_epe(CountingSampler(inst, (7, "run", S, 0, "backward")), 0.15, 1463)
        assert (report.samples_used, report.encountered_size) == (108_262, 74)
        assert "cum" not in vars(inst.transitions)
        forward_epe(CountingSampler(inst, 1), ForwardConfig(T=2, m=1))
        digest = hashlib.sha256(vars(inst.transitions)["cum"].tobytes()).hexdigest()
        assert digest == "635dd36301ef5964f1e19d50ab430c8196f6d71aed741b830758b5398831c020"

    def test_table_is_read_only(self, mixed_rows):
        table = mixed_rows.transitions
        for arr in (table.indptr, table.indices, table.probs, table.cum):
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_instance_table_equals_per_row_build(self):
        # A random matrix with a point-mass row; every array of the table
        # built from the instance's CSR entries must equal a row-by-row
        # build of the dense view's rows.
        rng = np.random.default_rng(11)
        S = 200
        Q = rng.random((S, S)) * (rng.random((S, S)) < 0.08)
        Q[5] = 0.0
        Q[5, 17] = 0.3
        Q[S - 1, :] = rng.random(S)  # a dense row, longer than a pairwise-sum block
        Q[7, 3] = -0.25  # stored in the instance, left out of the table
        inst = instance_from(0.5, np.ones(S), Q)
        dense = inst.Q
        assert dense.tobytes() == Q.tobytes()
        rows = {}
        for s in range(S):
            idx = np.flatnonzero(dense[s] > 0)
            rows[s] = dict(zip(idx.tolist(), (dense[s, idx] / dense[s, idx].sum()).tolist()))
        table = inst.transitions
        reference = TransitionTable.from_rows(S, rows)
        for name in ("indptr", "indices", "probs", "cum"):
            assert getattr(table, name).tobytes() == getattr(reference, name).tobytes(), name
        for s, row in rows.items():
            cum = np.cumsum(list(row.values()))
            cum[-1] = 1.0
            assert cum_row(table, s).tobytes() == cum.tobytes()
        assert table.row(5)[0].tolist() == [17] and table.row(5)[1].tolist() == [1.0]
        Q[9] = 0.0
        with pytest.raises(ContractViolation, match="^state 9 has an all-zero transition row$"):
            instance_from(0.5, np.ones(S), Q).transitions

    def test_all_zero_row_constructs_but_cannot_be_drawn(self):
        # State 1 has no edge; no sampler, so no channel, draws on this instance.
        inst = instance_from(0.5, [1.0, 0.0], [[0.5, 0.5], [0.0, 0.0]])
        assert [v.kind for v in validate_instance(inst)] == ["row_sum"]
        with pytest.raises(ContractViolation, match="^state 1 has an all-zero transition row$"):
            CountingSampler(inst, 0)


class TestSerialization:
    def test_round_trip_bit_exact(self):
        inst = random_instance(S=9, p=3, alpha=0.77, seed="json")
        doc = json.loads(json.dumps(instance_to_dict(inst)))
        back = instance_from_dict(doc)
        assert back.S == inst.S
        assert back.alpha == inst.alpha
        assert np.array_equal(back.cost, inst.cost)
        assert np.array_equal(back.Q, inst.Q)
        assert np.array_equal(back.supergraph.indptr, inst.supergraph.indptr)
        assert np.array_equal(back.supergraph.indices, inst.supergraph.indices)

    def test_supergraph_fields_consistent(self):
        inst = random_instance(S=9, p=3, alpha=0.5, seed="sg")
        sg = inst.supergraph
        assert sg.avg_degree == pytest.approx(float(np.mean(sg.in_degrees)))
        for s in range(9):
            assert sg.in_degrees[s] == len(sg.in_neighbors(s))

    # One case per rule: (field, position, new entry or None to delete it,
    # expected message). The valid document below has supergraph.indptr
    # [0, 2, 4, 5] and supergraph.indices [0, 1, 1, 2, 0]. Those are also
    # Q's row pointers and column indices, so the rows keyed q_indptr and
    # q_indices edit them too, and every CSR message names supergraph.*.
    MALFORMED = [
        ("q_indptr", -1, None, r"supergraph.indptr needs S \+ 1 = 4 entries"),
        ("q_values", -1, None, "q_values has 4 entries for 5 edges"),
        ("q_indptr", 0, 1, "supergraph.indptr must rise from 0"),
        ("q_indptr", 2, 1, "supergraph.indptr must rise"),
        ("q_indices", 0, 3, "supergraph.indices: 3 out of range"),
        ("q_indices", 4, -1, "supergraph.indices: -1 out of range"),
        ("q_indices", 1, 0, "supergraph.indices: row 0 is not strictly ascending"),
        ("supergraph.indptr", 0, None, r"supergraph.indptr needs S \+ 1"),
        ("supergraph.indptr", 3, 4, "supergraph.indptr must rise from 0 to nnz = 5"),
        ("supergraph.indices", 2, 3, "supergraph.indices: 3 out of range"),
        ("supergraph.indices", 3, 1, "supergraph.indices: row 1 is not strictly ascending"),
        # Entries that would truncate or parse to a valid index.
        ("q_indices", 2, 1.7, r"^supergraph.indices: entry 2 must be an integer, got 1\.7$"),
        ("q_indices", 2, "1", r"^supergraph.indices: entry 2 must be an integer, got '1'$"),
        ("q_indptr", 1, 2.5, r"^supergraph.indptr: entry 1 must be an integer, got 2\.5$"),
        ("q_indptr", 1, "2", r"^supergraph.indptr: entry 1 must be an integer, got '2'$"),
        ("supergraph.indptr", 2, 4.0, r"^supergraph.indptr: entry 2 must be an integer, got 4\.0$"),
        ("supergraph.indices", 1, "1", r"^supergraph.indices: entry 1 must be an integer, got '1'$"),
        # A bool among integers, which numpy reads as 0 or 1, and ragged nesting.
        ("q_indices", 2, True, r"^supergraph.indices: entry 2 must be an integer, got True$"),
        ("supergraph.indptr", 1, False, r"^supergraph.indptr: entry 1 must be an integer, got False$"),
        ("q_indices", 0, [0, 1], r"^supergraph.indices: entry 0 must be an integer, got \[0, 1\]$"),
        ("supergraph.indices", 1, [1, 2], r"^supergraph.indices: entry 1 must be an integer, got \[1, 2\]$"),
        ("q_values", 1, [0.5, 0.5], "q_values: "),
        ("cost", 0, [1.0], "cost: "),
        # A cost one entry short, and entries that are not finite.
        ("cost", -1, None, r"cost has shape \(2,\), the instance S=3 needs \(3,\)"),
        ("cost", 1, float("nan"), "cost: entry 1 is nan, not finite"),
        ("q_values", 2, float("nan"), "q_values: entry 2 is nan, not finite"),
        # Scalars that int() or float() would coerce, or refuse with a bare ValueError.
        ("S", None, True, "S: must be an integer, got True"),
        ("S", None, 1.9, "S: must be an integer, got 1.9"),
        ("S", None, 3.0, "S: must be an integer, got 3.0"),
        ("S", None, "1", "S: must be an integer, got '1'"),
        ("S", None, "x", "S: must be an integer, got 'x'"),
        ("alpha", None, "x", "alpha: must be a number, got 'x'"),
        ("alpha", None, "0.5", "alpha: must be a number, got '0.5'"),
        ("alpha", None, False, "alpha: must be a number, got False"),
        ("alpha", None, None, "alpha: must be a number, got None"),
        # Cost and Q entries that numpy would read as floats, and a field that is no list.
        ("cost", 0, "1", "^cost: entry 0 must be a number, got '1'$"),
        ("cost", 1, True, "^cost: entry 1 must be a number, got True$"),
        ("cost", None, [1.0, 1.0, None], "^cost: entry 2 must be a number, got None$"),
        ("q_values", 0, "0.2", "^q_values: entry 0 must be a number, got '0.2'$"),
        ("q_values", 4, True, "^q_values: entry 4 must be a number, got True$"),
        ("q_values", None, [0.2, 0.8, 0.5, None, 1.0], "^q_values: entry 3 must be a number, got None$"),
        ("cost", None, {"0": 1.0}, r"^cost: must be a list of numbers, got \{'0': 1.0\}$"),
        # A supergraph that is no object, or an index field that is no list.
        ("supergraph", None, 5, "^supergraph: must be an object, got 5$"),
        ("supergraph", None, None, "^supergraph: must be an object, got None$"),
        ("supergraph", None, "indptr indices", "^supergraph: must be an object, got 'indptr indices'$"),
        ("supergraph", None, [0, 1], r"^supergraph: must be an object, got \[0, 1\]$"),
        ("supergraph.indptr", None, 4, "^supergraph.indptr: must be a list of integers, got 4$"),
        # Fields that no reader would look at.
        ("costs", None, [1.0, 1.0, 0.0], r"^costs: unknown field; the fields are \['S', 'alpha', 'cost', 'q_values', 'supergraph'\]$"),
        ("supergraph.weights", None, [1.0] * 5, r"^supergraph.weights: unknown field; the fields are \['indices', 'indptr'\]$"),
    ]

    @pytest.mark.parametrize("field,position,value,message", MALFORMED, ids=[f"{c[0]}-{c[1]}-{c[2]}" for c in MALFORMED])
    def test_malformed_csr_names_the_field(self, field, position, value, message):
        inst = instance_from(0.5, [1.0, 1.0, 0.0], [[0.2, 0.8, 0.0], [0.0, 0.5, 0.5], [1.0, 0.0, 0.0]])
        doc = json.loads(json.dumps(instance_to_dict(inst)))
        field = {"q_indptr": "supergraph.indptr", "q_indices": "supergraph.indices"}.get(field, field)
        owner, key = (doc["supergraph"], field[11:]) if field.startswith("supergraph.") else (doc, field)
        if position is None:
            owner[key] = value
        elif value is None:
            del owner[key][position]
        else:
            owner[key][position] = value
        with pytest.raises(ContractViolation, match=message):
            instance_from_dict(doc)

    @pytest.mark.parametrize("doc", [5, None, "S", [0, 1]])
    def test_a_document_that_is_no_object_is_refused(self, doc):
        with pytest.raises(ContractViolation, match=f"^the instance document must be an object, got {re.escape(repr(doc))}$"):
            instance_from_dict(doc)

    # One case per kind of violation: (field, its new value, expected message).
    # The document's q_values are [0.2, 0.8, 0.5, 0.5, 1.0] on the edges
    # (0, 0), (0, 1), (1, 1), (1, 2), (2, 0).
    INVALID = [
        ("q_values", [0.2, 0.3, 0.5, 0.5, 1.0], r"row_sum at \(0,\): row sums to 0.5$"),
        ("alpha", 1.5, r"discount_domain at \(\): alpha=1.5 not in \(0,1\)$"),
        ("q_values", [0.2, 0.8, 1.5, -0.5, 1.0], r"negative_entry at \(1, 2\): Q entry -0.5$"),
        ("cost", [1.0, -0.25, 0.0], r"negative_cost at \(1,\): cost entry -0.25$"),
    ]

    @pytest.mark.parametrize("field,value,message", INVALID, ids=[c[2].split()[0] for c in INVALID])
    def test_invalid_instance_is_refused_naming_its_first_violation(self, field, value, message):
        inst = instance_from(0.5, [1.0, 1.0, 0.0], [[0.2, 0.8, 0.0], [0.0, 0.5, 0.5], [1.0, 0.0, 0.0]])
        doc = json.loads(json.dumps(instance_to_dict(inst)))
        doc[field] = value
        # The constructor stays permissive; the loader is not.
        ProblemInstance(doc["S"], doc["alpha"], doc["cost"], inst.supergraph, doc["q_values"])
        with pytest.raises(ContractViolation, match="^invalid instance: " + message):
            instance_from_dict(doc)

    @pytest.mark.parametrize(
        "field", ["S", "alpha", "cost", "supergraph", "q_values", "supergraph.indptr", "supergraph.indices"]
    )
    def test_missing_field_is_refused_by_name(self, field):
        doc = instance_to_dict(instance_from(0.5, [1.0, 0.0], [[0.0, 1.0], [1.0, 0.0]]))
        parent, _, key = field.rpartition(".")
        del (doc[parent] if parent else doc)[key]
        with pytest.raises(ContractViolation, match=f"^{field}: missing from the instance document"):
            instance_from_dict(doc)

    @pytest.mark.parametrize("field", ["q_indptr", "q_indices"])
    def test_document_with_a_separate_q_pair_is_refused(self, field):
        # The older form kept Q's own index pair beside the supergraph's.
        doc = instance_to_dict(instance_from(0.5, [1.0, 0.0], [[0.0, 1.0], [1.0, 0.0]]))
        doc[field] = doc["supergraph"][field[2:]]
        with pytest.raises(ContractViolation, match=f"^{field}: "):
            instance_from_dict(doc)

    def test_load_instance_refuses_an_unreadable_file_naming_it(self, tmp_path):
        path = tmp_path / "instance.json"
        with pytest.raises(ContractViolation, match=f"^cannot read {re.escape(str(path))}: No such file or directory$"):
            model.load_instance(path)
        model.save_instance(instance_from(0.5, [1.0, 0.0], [[0.0, 1.0], [1.0, 0.0]]), path)
        text = path.read_text()
        for broken in (text[:-1], "[" * 100000 + "]" * 100000):  # cut short, and nested too deeply to decode
            path.write_text(broken)
            with pytest.raises(ContractViolation, match=f"^{re.escape(str(path))} is not JSON: "):
                model.load_instance(path)
        path.write_bytes(b"\xff" + text.encode())
        with pytest.raises(ContractViolation, match=f"^cannot read {re.escape(str(path))}: 'utf-8' codec can't decode"):
            model.load_instance(path)

    def test_each_construction_checks_the_csr_pair_once(self, monkeypatch):
        calls = []
        check = model.check_csr
        monkeypatch.setattr(model, "check_csr", lambda *args: calls.append(args) or check(*args))
        inst = random_instance(S=30, p=4, alpha=0.5, seed="once")
        assert len(calls) == 1
        ProblemInstance.from_arrays(inst.alpha, inst.cost, inst.Q)
        assert len(calls) == 2
        instance_from_dict(instance_to_dict(inst))
        assert len(calls) == 3
