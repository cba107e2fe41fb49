import math
import time
import tracemalloc

import numpy as np
import pytest

from epelab import (
    ContractViolation,
    EnsembleSpec,
    density_for_case,
    generate_binary_cost,
    generate_instance,
    validate_instance,
)


class TestGenerateInstance:
    def test_full_density_complete_supergraph(self):
        spec = EnsembleSpec(S=6, p=6, alpha=0.5)
        inst = generate_instance(spec, 0)
        assert np.all(np.diff(inst.supergraph.indptr) == 6)
        assert inst.supergraph.avg_degree == 6.0

    def test_every_instance_validates(self):
        for i in range(30):
            spec = EnsembleSpec(S=14, p=4, alpha=0.7)
            assert validate_instance(generate_instance(spec, ("gen", i))) == []

    def test_supergraph_support_equals_chain_support(self):
        spec = EnsembleSpec(S=12, p=4, alpha=0.5)
        inst = generate_instance(spec, 3)
        assert np.array_equal(inst.supergraph.edge_mask(), inst.Q > 0)

    def test_deterministic_in_seed(self):
        spec = EnsembleSpec(S=10, p=3, alpha=0.5)
        a = generate_instance(spec, ("same", 1))
        b = generate_instance(spec, ("same", 1))
        assert np.array_equal(a.Q, b.Q)
        assert np.array_equal(a.cost, b.cost)

    def test_sparse_specs_generate_fast_with_every_row_supported(self):
        # A whole-mask redraw would need ~exp(50) attempts at S=200, p=1.5;
        # redrawing only the empty rows takes a few rounds.
        started = time.perf_counter()
        inst = generate_instance(EnsembleSpec(S=200, p=1.5, alpha=0.5), 0)
        assert time.perf_counter() - started < 1.0
        assert validate_instance(inst) == []
        started = time.perf_counter()
        inst = generate_instance(EnsembleSpec(S=20000, p=1, alpha=0.5), 0)
        assert time.perf_counter() - started < 5.0
        assert np.diff(inst.supergraph.indptr).min() >= 1

    def test_row_law_is_the_conditioned_bernoulli_mask(self):
        # Each row's degree is Binomial(S, p/S) conditioned on >= 1; at
        # p = 2 the conditioning moves the mean from 2 to 2.30.
        S, p, trials = 40, 2.0, 200
        degrees = []
        for i in range(trials):
            inst = generate_instance(EnsembleSpec(S=S, p=p, alpha=0.5), ("law", i))
            indptr, indices = inst.supergraph.indptr, inst.supergraph.indices
            for s in range(S):
                lo, hi = indptr[s], indptr[s + 1]
                assert np.all(np.diff(indices[lo:hi]) > 0)
                assert abs(inst.q_values[lo:hi].sum() - 1.0) <= 1e-12
            degrees.append(np.diff(indptr))
        degrees = np.concatenate(degrees)
        n, q = degrees.size, p / S
        k = np.arange(1, S + 1)
        pmf = np.array([math.comb(S, j) for j in k]) * q**k * (1 - q) ** (S - k)
        pmf /= pmf.sum()
        mean = float(k @ pmf)
        sd_mean = math.sqrt((float(k**2 @ pmf) - mean**2) / n)
        assert abs(degrees.mean() - mean) <= 4 * sd_mean
        share_one = float(pmf[0])
        assert abs(np.mean(degrees == 1) - share_one) <= 4 * math.sqrt(share_one * (1 - share_one) / n)

    def test_generation_allocates_no_dense_matrix(self):
        # One S x S float array would be 82 MB here; generation, validation
        # and the supergraph's transpose stay far below it.
        spec = EnsembleSpec(S=3200, p=10, alpha=0.9)
        tracemalloc.start()
        try:
            inst = generate_instance(spec, 0)
            assert validate_instance(inst) == []
            assert len(inst.supergraph.in_degrees) == spec.S
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_mixed_cost_moments(self):
        # E d_bar = p and E ||c||_1 = 3p/2 at the stated tolerance band.
        spec = EnsembleSpec(S=400, p=10, alpha=0.5)
        dbars, c1s = [], []
        for i in range(100):
            inst = generate_instance(spec, ("mom", i))
            dbars.append(inst.supergraph.avg_degree)
            c1s.append(float(np.sum(inst.cost)))
        assert 9.0 <= np.mean(dbars) <= 11.0
        assert 13.0 <= np.mean(c1s) <= 17.0

    def test_mixed_cost_inf_norm_band(self):
        spec = EnsembleSpec(S=50, p=5, alpha=0.5)
        for i in range(20):
            inst = generate_instance(spec, ("band", i))
            assert 1.0 <= inst.cost_inf <= 2.0

    def test_density_out_of_range_rejected(self):
        with pytest.raises(ContractViolation):
            EnsembleSpec(S=10, p=11, alpha=0.5)
        with pytest.raises(ContractViolation):
            EnsembleSpec(S=10, p=0.5, alpha=0.5)


class TestBinaryCost:
    def test_all_ones_at_full_H(self):
        assert np.array_equal(generate_binary_cost(5, 5, 0), np.ones(5))

    def test_norms(self):
        for i in range(20):
            c = generate_binary_cost(12, 4, ("bin", i))
            assert c.max() == 1.0
            assert c.sum() == 4.0
            assert set(np.unique(c)) <= {0.0, 1.0}

    def test_single_one_uniform_over_positions(self):
        counts = np.zeros(10)
        for i in range(10_000):
            counts += generate_binary_cost(10, 1, ("uni", i))
        freqs = counts / 10_000
        assert np.all(np.abs(freqs - 0.1) < 0.02)

    def test_H_out_of_range(self):
        with pytest.raises(ContractViolation):
            generate_binary_cost(5, 0, 0)
        with pytest.raises(ContractViolation):
            generate_binary_cost(5, 6, 0)

    def test_binary_spec_generates_binary_cost(self):
        spec = EnsembleSpec(S=20, p=5, alpha=0.5, cost_model="binary", H=3)
        inst = generate_instance(spec, 9)
        assert inst.cost.sum() == 3.0
        assert inst.cost_inf == 1.0


class TestDensityCases:
    def test_case_schedules(self):
        assert density_for_case("case1", 400, 10.0) == 10.0
        assert density_for_case("case2", 100) == pytest.approx(10.0)
        assert density_for_case("case3", 100) == pytest.approx(10.0)
        assert density_for_case("case2", 400) == pytest.approx((100 * 400) ** 0.25)
        assert density_for_case("case3", 400) == pytest.approx(20.0)
        with pytest.raises(ContractViolation):
            density_for_case("case4", 100)
