import numpy as np
import pytest

from epelab import (
    ContractViolation,
    CountingSampler,
    ForwardConfig,
    exact_value_power_series,
    forward_epe,
    sample_size_forward,
)
from conftest import instance_from, random_instance


class TestForwardEpe:
    def test_length_one_trajectories_draw_nothing(self, two_cycle):
        sampler = CountingSampler(two_cycle, 0)
        report = forward_epe(sampler, ForwardConfig(T=1, m=3))
        assert report.samples_used == 0
        assert report.estimate == pytest.approx(0.5 * two_cycle.cost, abs=0)

    def test_point_mass_partial_geometric_sum(self):
        inst = instance_from(0.5, [1.0], [[1.0]])
        sampler = CountingSampler(inst, 0)
        for T in (1, 3, 8):
            rep = forward_epe(sampler, ForwardConfig(T=T, m=2))
            assert rep.estimate == pytest.approx([1 - 0.5**T], abs=1e-12)

    def test_sample_accounting_exact(self):
        inst = random_instance(S=9, p=3, alpha=0.5, seed="fw")
        sampler = CountingSampler(inst, 0)
        report = forward_epe(sampler, ForwardConfig(T=6, m=4))
        assert report.samples_used == 9 * 4 * 5 == sampler.draw_count
        assert report.iterations == 9 * 4

    def test_miscounting_sampler_is_refused(self):
        # The draw-accounting check must be a raise, not an assert that
        # python -O strips.
        class SkipsCounting(CountingSampler):
            def sample_next_batch(self, states):
                out = super().sample_next_batch(states)
                self.draw_count -= 1
                return out

        inst = random_instance(S=9, p=3, alpha=0.5, seed="fw")
        with pytest.raises(ContractViolation, match="S\\*m\\*\\(T-1\\)"):
            forward_epe(SkipsCounting(inst, 0), ForwardConfig(T=3, m=2))

    def test_unbiased_for_truncated_value(self):
        # Mean over many trajectories matches the T-term series within 3 sigma.
        inst = random_instance(S=3, p=2, alpha=0.6, seed="unbias")
        T, m = 6, 10_000
        sampler = CountingSampler(inst, 1)
        report = forward_epe(sampler, ForwardConfig(T=T, m=m))
        target = exact_value_power_series(inst, T)
        # Discounted sums live in [0, ||c||_inf]; a generous sigma bound.
        sigma = inst.cost_inf / np.sqrt(m)
        assert np.all(np.abs(report.estimate - target) <= 3 * sigma)

    def test_truncation_bias_bound_on_point_mass(self):
        inst = instance_from(0.7, [1.0], [[1.0]])
        for T in (1, 2, 5, 10):
            rep = forward_epe(CountingSampler(inst, 0), ForwardConfig(T=T, m=1))
            assert abs(rep.estimate[0] - 1.0) <= inst.cost_inf * 0.7**T + 1e-12

    def test_config_validation(self):
        with pytest.raises(ContractViolation):
            ForwardConfig(T=0, m=1)
        with pytest.raises(ContractViolation):
            ForwardConfig(T=1, m=0)


class TestSampleSizeForward:
    def test_frozen_formula_values(self):
        T, m = sample_size_forward(0.1, 0.1, 0.5, 1.0, 10)
        assert (T, m) == (6, 355)

    def test_T_clamps_to_one(self):
        T, _ = sample_size_forward(2.5, 0.1, 0.5, 1.0, 10)
        assert T == 1

    def test_m_monotone_in_S(self):
        _, m10 = sample_size_forward(0.1, 0.1, 0.5, 1.0, 10)
        _, m1000 = sample_size_forward(0.1, 0.1, 0.5, 1.0, 1000)
        assert m1000 >= m10

    def test_rejects_bad_domain(self):
        with pytest.raises(ContractViolation):
            sample_size_forward(0.1, 0.1, 0.0, 1.0, 10)
        with pytest.raises(ContractViolation):
            sample_size_forward(-0.1, 0.1, 0.5, 1.0, 10)
