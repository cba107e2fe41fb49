import tracemalloc

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
from epelab import forward
from conftest import instance_from, random_instance


def one_batch_forward(sampler, T, m):
    """(estimate, draws) of forward as one batch over all S * m walkers."""
    cost, alpha, S = sampler.instance.cost, sampler.instance.alpha, sampler.instance.S
    current = np.repeat(np.arange(S, dtype=np.int64), m)
    acc = (1.0 - alpha) * cost[current]
    scale = 1.0
    for _ in range(1, T):
        current = sampler.sample_next_batch(current)
        scale *= alpha
        acc += (1.0 - alpha) * scale * cost[current]
    return acc.reshape(S, m).mean(axis=1), sampler.draw_count


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

    @pytest.mark.parametrize(
        "budget, S, m",
        [(7, 37, 5), (64, 37, 5), (None, 127, 129), (None, 128, 128), (None, 113, 145)],
        ids=["7", "64", "block-1", "block", "block+1"],
    )
    def test_walker_blocks_give_the_one_batch_floats(self, monkeypatch, budget, S, m):
        # 37 * 5 = 185 walkers: neither budget divides it, so the last block is
        # short. The others run forward's own block on 2**14 - 1, 2**14 and
        # 2**14 + 1 walkers: one short block, one full block, and a full block
        # followed by a block of one walker.
        inst = random_instance(S=S, p=4, alpha=0.7, seed="fw blocks")
        expected, draws = one_batch_forward(CountingSampler(inst, 5), T=6, m=m)
        if budget is None:
            assert forward.FORWARD_BLOCK == 1 << 14
        else:
            monkeypatch.setattr(forward, "FORWARD_BLOCK", budget)
        report = forward_epe(CountingSampler(inst, 5), ForwardConfig(T=6, m=m))
        assert report.estimate.tobytes() == expected.tobytes()
        assert report.samples_used == draws == S * m * 5

    def test_memory_is_two_walker_arrays_and_block_buffers(self):
        # 2.4 * 10^6 walkers, about 147 blocks: one batch over all of them
        # would hold several more walker-sized arrays at once.
        S, m = 24_000, 100
        inst = random_instance(S=S, p=10, alpha=0.5, seed="fw memory")
        sampler = CountingSampler(inst, 0)
        sampler.table.cum  # the instance table is built before tracing starts
        tracemalloc.start()
        try:
            report = forward_epe(sampler, ForwardConfig(T=2, m=m))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.samples_used == S * m
        walkers = 2 * S * m * 8  # current (int64) and acc (float64)
        block = forward.FORWARD_BLOCK * 8
        assert peak <= walkers + 8 * block

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
