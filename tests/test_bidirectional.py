import numpy as np
import pytest

from epelab import (
    BidirectionalConfig,
    ContractViolation,
    CountingSampler,
    bidirectional_epe,
    build_q_under,
    discounted_occupancy,
    exact_value,
    geometric_length,
    plug_in_estimate,
    sample_size_backward_bd,
    sample_size_forward_bd,
)
from epelab import bidirectional as bd
from epelab.backward import run_backward
from epelab.bidirectional import dynamic_stop_threshold
from epelab.model import TransitionTable
from epelab.rng import make_rng
from conftest import instance_from, random_instance


class TestGeometricLength:
    def test_distribution_matches_geometric(self):
        alpha = 0.6
        rng = make_rng("geo")
        draws = geometric_length(alpha, rng.random(50_000))
        for t in range(4):
            freq = np.mean(draws == t)
            assert abs(freq - (1 - alpha) * alpha**t) < 0.01

    def test_zero_length_probability(self):
        rng = make_rng("geo0")
        draws = geometric_length(0.5, rng.random(20_000))
        assert abs(np.mean(np.array(draws) == 0) - 0.5) < 0.01


class TestBidirectionalEpe:
    def test_single_state_exact(self, point_mass):
        sampler = CountingSampler(point_mass, 0)
        config = BidirectionalConfig(epsilon=0.3, n_B=4, n_F=10)
        report = bidirectional_epe(sampler, config)
        # v_hat = 0.75 after two pushes, every walk ends at the single state
        # with residual 0.25, so the correction is exact.
        assert report.estimate == pytest.approx([1.0], abs=0)
        assert report.samples_used == sampler.draw_count

    def test_zero_cost_skips_walks(self):
        inst = instance_from(0.5, [0.0, 0.0], [[0.0, 1.0], [1.0, 0.0]])
        sampler = CountingSampler(inst, 0)
        config = BidirectionalConfig(epsilon=0.1, n_B=3, n_F=5)
        report = bidirectional_epe(sampler, config)
        assert np.all(report.estimate == 0.0)
        assert report.samples_used == 0

    def test_no_counted_draws_at_encountered_states(self):
        inst = random_instance(S=10, p=4, alpha=0.5, seed="freeu")
        sampler = CountingSampler(inst, 0)
        config = BidirectionalConfig(epsilon=0.05, n_B=10, n_F=20)
        report = bidirectional_epe(sampler, config)
        diag = report.diagnostics
        if report.encountered_size == 10:
            assert diag["forward_true_draws"] == 0
            assert diag["forward_free_draws"] > 0
        assert report.samples_used == diag["backward_draws"] + diag["forward_true_draws"]
        assert report.samples_used == sampler.draw_count

    def test_forward_stage_mean_matches_occupancy_correction(self):
        # Large n_F: the walk average converges to the completion's
        # residual expectation, the linear-solve oracle.
        inst = random_instance(S=6, p=3, alpha=0.6, seed="oracle")
        sampler = CountingSampler(inst, 5)
        config = BidirectionalConfig(epsilon=0.25, n_B=30, n_F=100_000)
        report = bidirectional_epe(sampler, config, trace=True)
        trace = report.trace
        q_under = build_q_under(trace.final_rows, trace.encountered, inst)
        mu = discounted_occupancy(q_under, inst.alpha)
        expected = trace.final_estimate + mu @ trace.final_residual
        r = trace.final_residual
        for s in range(6):
            var = float(mu[s] @ (r**2) - (mu[s] @ r) ** 2)
            tol = 3.0 * np.sqrt(max(var, 1e-12) / config.n_F)
            assert abs(report.estimate[s] - expected[s]) <= tol + 1e-9

    def test_dynamic_mode_stops_at_first_trigger(self):
        inst = random_instance(S=30, p=5, alpha=0.6, seed="dyn")
        sampler = CountingSampler(inst, 1)
        config = BidirectionalConfig(epsilon=None, n_B=30, n_F=10, termination_mode="dynamic")
        report = bidirectional_epe(sampler, config, trace=True)
        threshold = dynamic_stop_threshold(30, 30, 10, 0.6)
        assert report.diagnostics["stop_reason"] == "dynamic"
        assert report.encountered_size >= threshold
        # One iteration earlier the trigger had not fired.
        seen = set()
        sizes = []
        for rec in report.trace.records:
            seen.update(int(t) for t in rec.column)
            sizes.append(len(seen))
        assert all(size < threshold for size in sizes[:-1])
        assert sizes[-1] >= threshold

    @pytest.mark.parametrize("alpha, threshold", [(0.9, 34), (0.999, 50)])
    def test_dynamic_mode_stops_when_encountered_set_cannot_grow(self, alpha, threshold):
        # Cost sits only on an absorbing state that no other state reaches,
        # so the encountered set stays at 1 of the 34 (or 50) the trigger
        # needs and the self-loop residual decays by alpha per push without
        # reaching 0. At alpha 0.999 that takes about 36700 pushes, which
        # the default push cap must allow.
        S = 50
        Q = np.zeros((S, S))
        for s in range(S - 1):
            Q[s, (s + 1) % (S - 1)] += 0.5
            Q[s, (3 * s + 7) % (S - 1)] += 0.5
        Q[S - 1, S - 1] = 1.0
        cost = np.zeros(S)
        cost[S - 1] = 1.0
        inst = instance_from(alpha, cost, Q)
        config = BidirectionalConfig(epsilon=None, n_B=50, n_F=11, termination_mode="dynamic")
        assert dynamic_stop_threshold(S, 50, 11, alpha) == threshold
        sampler = CountingSampler(inst, 1)
        report = bidirectional_epe(sampler, config)
        assert report.diagnostics["stop_reason"] == "negligible"
        assert report.encountered_size == 1
        assert report.diagnostics["final_residual_max"] <= 2.0**-53
        assert report.samples_used == sampler.draw_count
        assert report.estimate == pytest.approx(exact_value(inst), abs=1e-12)

    def test_dynamic_threshold_balances_draw_bills(self):
        # Smallest encountered count whose backward bill covers the
        # expected charged walk bill of the remaining states.
        for S, n_B, n_F, alpha in [(100, 100, 15, 0.9), (800, 800, 43, 0.9), (30, 30, 10, 0.6)]:
            u = dynamic_stop_threshold(S, n_B, n_F, alpha)
            w = n_F * alpha / (1 - alpha)
            assert u * n_B >= w * (S - u)
            if u > 1:
                assert (u - 1) * n_B < w * (S - (u - 1))
            assert 1 <= u <= S

    def test_config_validation(self):
        with pytest.raises(ContractViolation):
            BidirectionalConfig(epsilon=0.0, n_B=1, n_F=1)
        with pytest.raises(ContractViolation):
            BidirectionalConfig(epsilon=0.1, n_B=0, n_F=1)
        with pytest.raises(ContractViolation):
            BidirectionalConfig(epsilon=0.1, n_B=1, n_F=1, termination_mode="sometimes")
        BidirectionalConfig(epsilon=None, n_B=1, n_F=1, termination_mode="dynamic")


def scalar_walk_oracle(sampler, inst, config):
    """Fixed-mode bidirectional run with the walk stage as a scalar loop:
    per walker block, per step, one walker at a time in the documented
    order, each free step a one-element ``draw_batch`` on one uniform from
    the walks stream and each charged step one ``sample_next``. The
    frontier must reproduce it bit for bit."""
    alpha, n_F = inst.alpha, config.n_F
    outcome = run_backward(sampler, config.epsilon, config.n_B)
    residual, estimate = outcome.residual, outcome.estimate.copy()
    cap = bd.walk_step_cap(alpha)
    before = sampler.draw_count
    free = capped = 0
    if residual.max() > 0.0:
        rows = outcome.rows
        stored = TransitionTable.from_rows(inst.S, rows)
        walks = sampler.derive("walks")
        per_block = max(1, bd.WALKER_BUDGET // n_F)
        for lo in range(0, inst.S, per_block):
            hi = min(lo + per_block, inst.S)
            lengths = bd.geometric_length(alpha, walks.random((hi - lo) * n_F)).tolist()
            capped += lengths.count(cap)
            at = [lo + j // n_F for j in range(len(lengths))]
            order = sorted(range(len(lengths)), key=lambda j: -lengths[j])
            for step in range(max(lengths)):
                for j in order:
                    if lengths[j] <= step:
                        break
                    if at[j] in rows:
                        at[j] = int(stored.draw_batch(np.array([at[j]]), walks.random(1))[0])
                        free += 1
                    else:
                        at[j] = sampler.sample_next(at[j])
            for s in range(lo, hi):
                acc = 0.0
                for j in range((s - lo) * n_F, (s - lo + 1) * n_F):
                    acc += float(residual[at[j]])
                estimate[s] += acc / n_F
    counted = sampler.draw_count - before
    counts = {"forward_true_draws": counted, "forward_free_draws": free, "capped_walks": capped}
    return estimate, outcome.samples_used + counted, counts


class TestWalkFrontier:
    """The vectorized walk stage against a scalar loop over the same layout."""

    @staticmethod
    def check(inst, config, seed=3):
        a, b = CountingSampler(inst, seed), CountingSampler(inst, seed)
        report = bidirectional_epe(a, config)
        estimate, samples, counts = scalar_walk_oracle(b, inst, config)
        assert report.estimate.tobytes() == estimate.tobytes()
        assert report.samples_used == samples == a.draw_count == b.draw_count
        for key, value in counts.items():
            assert report.diagnostics[key] == value, key
        return report

    def test_walks_overrunning_the_first_uniform_block(self):
        inst = random_instance(S=25, p=4, alpha=0.99, seed="overrun")
        config = BidirectionalConfig(epsilon=0.6, n_B=20, n_F=3)
        report = self.check(inst, config)
        assert report.diagnostics["forward_true_draws"] > 0 and report.diagnostics["forward_free_draws"] > 0

    def test_capped_walks(self, monkeypatch):
        monkeypatch.setattr(bd, "walk_step_cap", lambda alpha: 3)
        inst = random_instance(S=20, p=4, alpha=0.9, seed="capped")
        report = self.check(inst, BidirectionalConfig(epsilon=0.2, n_B=10, n_F=15))
        assert report.diagnostics["capped_walks"] > 0

    def test_every_state_encountered(self):
        inst = random_instance(S=12, p=4, alpha=0.8, seed="allseen")
        report = self.check(inst, BidirectionalConfig(epsilon=0.01, n_B=15, n_F=25))
        assert report.encountered_size == inst.S
        assert report.diagnostics["forward_true_draws"] == 0
        assert report.diagnostics["forward_free_draws"] > 0

    def test_no_state_encountered(self):
        inst = random_instance(S=15, p=4, alpha=0.8, seed="noneseen")
        report = self.check(inst, BidirectionalConfig(epsilon=float(inst.cost.max()), n_B=5, n_F=25))
        assert report.encountered_size == 0
        assert report.diagnostics["forward_free_draws"] == 0
        assert report.diagnostics["forward_true_draws"] > 0

    @pytest.mark.parametrize("budget", [7, 45])
    def test_many_walker_blocks(self, monkeypatch, budget):
        # n_F = 20: a budget of 7 walks one state per block, 45 two.
        monkeypatch.setattr(bd, "WALKER_BUDGET", budget)
        inst = random_instance(S=40, p=5, alpha=0.9, seed="blocks")
        config = BidirectionalConfig(epsilon=0.5, n_B=20, n_F=20)
        assert -(-inst.S // max(1, budget // config.n_F)) >= 3
        report = self.check(inst, config)
        assert 0 < report.encountered_size < inst.S

    def test_stream_count_does_not_grow_with_S(self, monkeypatch):
        labels = []
        derive = CountingSampler.derive

        def recorded(sampler, *args):
            labels.append(args)
            return derive(sampler, *args)

        monkeypatch.setattr(CountingSampler, "derive", recorded)
        monkeypatch.setattr(bd, "WALKER_BUDGET", 20)  # several walker blocks
        config = BidirectionalConfig(epsilon=0.3, n_B=10, n_F=6)
        for S in (30, 240):
            labels.clear()
            inst = random_instance(S=S, p=4, alpha=0.8, seed=("streams", S))
            report = bidirectional_epe(CountingSampler(inst, 2), config)
            assert report.diagnostics["forward_true_draws"] > 0
            assert labels == [("tie_break",), ("walks",)], S


class TestSampleSizeCalculators:
    def test_forward_frozen_value(self):
        assert sample_size_forward_bd(0.1, 0.5, 0.1, 0.1, 10) == 7765

    def test_forward_linear_in_epsilon(self):
        full = 324 * 0.1 * np.log(400) / (0.25 * 0.1)
        half = 324 * 0.05 * np.log(400) / (0.25 * 0.1)
        assert half == pytest.approx(full / 2)
        assert sample_size_forward_bd(0.05, 0.5, 0.1, 0.1, 10) <= sample_size_forward_bd(0.1, 0.5, 0.1, 0.1, 10)

    def test_forward_nondecreasing_in_S(self):
        assert sample_size_forward_bd(0.1, 0.5, 0.1, 0.1, 100) >= sample_size_forward_bd(0.1, 0.5, 0.1, 0.1, 10)

    def test_backward_frozen_value(self):
        assert sample_size_backward_bd(0.5, 0.1, 0.1, 0.5, 1.0, 10, 0.1) == 179897

    def test_backward_monotone_in_q_min_and_cost(self):
        base = sample_size_backward_bd(0.5, 0.1, 0.1, 0.5, 1.0, 10, 0.1)
        assert sample_size_backward_bd(0.5, 0.1, 0.1, 0.5, 1.0, 10, 0.2) <= base
        assert sample_size_backward_bd(0.5, 0.1, 0.1, 0.5, 2.0, 10, 0.1) >= base

    def test_domain_violations(self):
        with pytest.raises(ContractViolation):
            sample_size_forward_bd(0.1, 1.5, 0.1, 0.1, 10)
        with pytest.raises(ContractViolation):
            sample_size_backward_bd(0.5, 0.1, 0.1, 0.5, 1.0, 10, 0.0)


class TestPlugIn:
    def test_deterministic_rows_recover_exact_value(self, two_cycle):
        sampler = CountingSampler(two_cycle, 0)
        report = plug_in_estimate(sampler, 3)
        assert report.estimate == pytest.approx(exact_value(two_cycle), abs=1e-12)

    def test_sample_accounting(self):
        inst = random_instance(S=7, p=3, alpha=0.5, seed="pi")
        sampler = CountingSampler(inst, 0)
        report = plug_in_estimate(sampler, 11)
        assert report.samples_used == 11 * 7 == sampler.draw_count

    def test_accuracy_at_large_n(self):
        inst = random_instance(S=2, p=2, alpha=0.5, seed="piacc")
        sampler = CountingSampler(inst, 3)
        report = plug_in_estimate(sampler, 10_000)
        assert np.max(np.abs(report.estimate - exact_value(inst))) <= 0.05
