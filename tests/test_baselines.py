import math

import numpy as np
import pytest

from epelab import (
    ContractViolation,
    CountingSampler,
    approx_contributions,
    backward_epe,
    backward_epe_alternative,
    error_process,
    exact_value,
)
from epelab.push import CachedEmpiricalRows, ExactRows, run_push_loop
from epelab.rng import make_rng
from conftest import instance_from, random_instance


class TestApproxContributions:
    def test_single_state_hand_trace(self, point_mass):
        report = approx_contributions(point_mass, 0.3, make_rng(0), trace=True)
        assert report.iterations == 2
        assert report.estimate == pytest.approx([0.75], abs=0)
        assert report.samples_used == 0

    def test_large_epsilon_zero_vector(self, two_cycle):
        report = approx_contributions(two_cycle, 1.5, make_rng(0))
        assert report.iterations == 0
        assert np.all(report.estimate == 0.0)

    def test_fixed_point_identity_every_iteration(self):
        for i in range(5):
            inst = random_instance(S=10, p=4, alpha=0.6, seed=("fp", i))
            report = approx_contributions(inst, 0.05, make_rng(i), trace=True)
            errors = error_process(report.trace, inst.Q)
            assert np.max(np.abs(errors.values)) <= 1e-10

    def test_error_within_epsilon(self):
        for i in range(5):
            inst = random_instance(S=10, p=4, alpha=0.6, seed=("eps", i))
            report = approx_contributions(inst, 0.1, make_rng(i))
            assert np.max(np.abs(report.estimate - exact_value(inst))) <= 0.1 + 1e-10

    def test_iteration_bound_by_value_mass(self):
        epsilon, alpha = 0.1, 0.6
        for i in range(5):
            inst = random_instance(S=10, p=4, alpha=alpha, seed=("kb", i))
            report = approx_contributions(inst, epsilon, make_rng(i))
            bound = np.sum(exact_value(inst)) / (epsilon * (1 - alpha))
            assert report.iterations <= bound + 1e-9


class TestExactRows:
    def test_columns_equal_dense_entries_on_superset_neighbors(self):
        # Looked up over every state, a column gives the dense entry Q[s, t]
        # wherever that entry is positive and nothing (read as 0) elsewhere.
        inst = random_instance(S=12, p=3, alpha=0.5, seed="cols")
        rows = ExactRows(inst)
        assert rows.rows == {}
        for t in range(12):
            column = rows.column(t)
            assert column is rows.columns[t]
            assert [column.get(s, 0.0) for s in range(12)] == inst.Q[:, t].tolist()
            assert all(type(q) is float for q in column.values())

    def test_default_in_neighbors_are_the_column_supports(self):
        # One state's row carries a negative entry, stored in the instance
        # but left out of every column.
        base = random_instance(S=15, p=3, alpha=0.5, seed="supp")
        Q = base.Q.copy()
        Q[4, np.flatnonzero(Q[4] == 0)[0]] = -0.25
        inst = instance_from(0.5, base.cost, Q)
        rows = ExactRows(inst)
        for t in range(15):
            column = rows.column(t)
            support = np.flatnonzero(Q[:, t] > 0).tolist()
            assert list(column) == support == base.supergraph.in_neighbors(t)
            assert [column[s] for s in support] == Q[support, t].tolist()


class TestBackwardAlternative:
    def test_point_mass_matches_sampled_variant(self, point_mass):
        # Deterministic rows leave no sampling noise to differ on.
        s1 = CountingSampler(point_mass, 1)
        s2 = CountingSampler(point_mass, 1)
        alt = backward_epe_alternative(s1, 0.3, 4)
        plain = backward_epe(s2, 0.3, 4)
        assert np.array_equal(alt.estimate, plain.estimate)
        assert alt.samples_used == 8  # resampled at both pushes
        assert plain.samples_used == 4

    def test_resampling_never_cheaper(self):
        for i in range(10):
            inst = random_instance(S=8, p=3, alpha=0.5, seed=("cost", i))
            alt = backward_epe_alternative(CountingSampler(inst, i), 0.2, 3)
            plain = backward_epe(CountingSampler(inst, i), 0.2, 3)
            assert alt.samples_used >= plain.samples_used

    def test_sample_accounting_total_in_degree(self):
        inst = random_instance(S=8, p=3, alpha=0.5, seed="acct")
        sampler = CountingSampler(inst, 0)
        report = backward_epe_alternative(sampler, 0.2, 3, trace=True)
        degrees = inst.supergraph.in_degrees
        expected = 3 * sum(int(degrees[r.state]) for r in report.trace.records)
        assert report.samples_used == expected == sampler.draw_count

    def test_error_process_starts_at_zero(self):
        inst = random_instance(S=6, p=3, alpha=0.5, seed="e0")
        sampler = CountingSampler(inst, 4)
        report = backward_epe_alternative(sampler, 0.1, 3, trace=True)
        errors = error_process(report.trace, inst.Q)
        assert np.all(errors.values[0] == 0.0)

    def test_final_error_mean_near_zero(self):
        # Unbiasedness smoke test; the acceptance suite runs the full version.
        inst = random_instance(S=4, p=2, alpha=0.5, seed="mart")
        finals = []
        for i in range(400):
            sampler = CountingSampler(inst, ("run", i))
            report = backward_epe_alternative(sampler, 0.1, 3, trace=True)
            finals.append(error_process(report.trace, inst.Q).final)
        finals = np.array(finals)
        mean = finals.mean(axis=0)
        stderr = finals.std(axis=0, ddof=1) / np.sqrt(len(finals))
        assert np.all(np.abs(mean) <= 4 * stderr + 1e-12)


class TestErrorProcess:
    def test_martingale_increment_mean_near_zero(self):
        inst = random_instance(S=4, p=2, alpha=0.5, seed="inc")
        first_increments = []
        for i in range(600):
            sampler = CountingSampler(inst, ("inc", i))
            report = backward_epe_alternative(sampler, 0.15, 2, trace=True)
            inc = error_process(report.trace, inst.Q).increments
            if len(inc):
                first_increments.append(inc[0])
        arr = np.array(first_increments)
        mean = arr.mean(axis=0)
        stderr = arr.std(axis=0, ddof=1) / np.sqrt(len(arr))
        assert np.all(np.abs(mean) <= 4 * stderr + 1e-12)

    def test_rejects_bad_epsilon(self, two_cycle):
        with pytest.raises(ContractViolation):
            approx_contributions(two_cycle, 0.0, make_rng(0))
        with pytest.raises(ContractViolation):
            backward_epe_alternative(CountingSampler(two_cycle, 0), -0.1, 3)


class TestThresholdRule:
    """The push loop alone checks the threshold, before any draw."""

    @pytest.mark.parametrize("epsilon", [0.0, -0.1, math.nan])
    def test_refused_before_any_draw(self, two_cycle, epsilon):
        runs = {
            "backward": lambda s: backward_epe(s, epsilon, 3),
            "backward_alternative": lambda s: backward_epe_alternative(s, epsilon, 3),
            "approx_contributions": lambda s: approx_contributions(two_cycle, epsilon, s.derive("tie_break")),
        }
        for name, run in runs.items():
            sampler = CountingSampler(two_cycle, 0)
            with pytest.raises(ContractViolation, match="termination threshold"):
                run(sampler)
            assert sampler.draw_count == 0, name
            assert sampler.rng.random() == CountingSampler(two_cycle, 0).rng.random(), name

    def test_zero_epsilon_needs_max_rows(self):
        inst = random_instance(S=20, p=4, alpha=0.6, seed="maxrows")
        rows = CachedEmpiricalRows(CountingSampler(inst, 0), 3)
        with pytest.raises(ContractViolation, match="termination threshold"):
            run_push_loop(inst.cost, inst.alpha, 0.0, rows, make_rng(0))
        assert rows.rows == {}
        outcome = run_push_loop(inst.cost, inst.alpha, 0.0, rows, make_rng(0), max_rows=5)
        assert outcome.stop_reason == "dynamic"
        assert outcome.rows is rows.rows and len(rows.rows) >= 5


class TestCoupledTieBreaks:
    def test_identical_tie_streams_couple_push_sequences(self):
        # Equal residuals (binary costs) force ties; a shared tie stream
        # makes the known-matrix run and the exact-row run pick identically.
        inst = random_instance(S=8, p=3, alpha=0.5, seed="ties", cost_model="binary", H=4)
        r1 = approx_contributions(inst, 0.2, make_rng("t"), trace=True)
        r2 = approx_contributions(inst, 0.2, make_rng("t"), trace=True)
        assert [a.state for a in r1.trace.records] == [b.state for b in r2.trace.records]
