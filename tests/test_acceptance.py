"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest -v -s tests/test_acceptance.py`. Statistical criteria use
the master seed pinned below; budgets stay inside the stated runtimes on a
desktop-class machine.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from epelab import (
    AlgorithmSpec,
    BidirectionalConfig,
    CountingSampler,
    EnsembleSpec,
    ExperimentConfig,
    approx_contributions,
    backward_epe,
    backward_epe_alternative,
    bidirectional_epe,
    bound_report,
    build_q_over,
    build_q_under,
    error_process,
    exact_value,
    exact_value_power_series,
    fig1_config,
    fig2_config,
    generate_instance,
    replay_invariant,
    run_experiment,
    sample_size_backward,
    sample_size_backward_bd,
    sample_size_forward_bd,
    summarize,
)
from epelab.rng import make_rng

MASTER_SEED = 20260808


def _passed(num, name):
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


def test_01_oracle_consistency():
    rng = make_rng((MASTER_SEED, "accept1"))
    alphas = [0.3, 0.5, 0.7, 0.9]
    for i in range(100):
        S = int(rng.integers(2, 21))
        alpha = alphas[i % 4]
        if i % 3 == 2:
            H = int(rng.integers(1, S + 1))
            spec = EnsembleSpec(S=S, p=min(3.0, S), alpha=alpha, cost_model="binary", H=H)
        else:
            spec = EnsembleSpec(S=S, p=min(float(1 + (i % 4)), S), alpha=alpha)
        inst = generate_instance(spec, (MASTER_SEED, "c1", i))
        v = exact_value(inst)

        gap60 = np.max(np.abs(v - exact_value_power_series(inst, 60)))
        assert gap60 <= inst.cost_inf * alpha**60 + 1e-15

        # Truncation horizon long enough that the geometric tail is below 1e-8.
        T_big = max(1, math.ceil(math.log(1e-8 / max(inst.cost_inf, 1e-12)) / math.log(alpha)))
        assert np.max(np.abs(v - exact_value_power_series(inst, T_big))) <= 1e-8
    _passed(1, "oracle consistency (solve vs power series)")


def test_02_fixed_point_invariant_suite():
    sizes = [8, 18, 30]
    ns = [1, 5, 50]
    epsilons = [0.05, 0.3]
    alphas = [0.5, 0.8]
    worst = 0.0
    for i in range(50):
        S = sizes[i % 3]
        n = ns[(i // 3) % 3]
        epsilon = epsilons[(i // 9) % 2]
        alpha = alphas[(i // 18) % 2]
        spec = EnsembleSpec(S=S, p=min(4.0, S), alpha=alpha)
        inst = generate_instance(spec, (MASTER_SEED, "c2", i))
        sampler = CountingSampler(inst, (MASTER_SEED, "c2run", i))
        report = backward_epe(sampler, epsilon, n, trace=True)
        trace = report.trace
        q_under = build_q_under(trace.final_rows, trace.encountered, inst)
        q_over = build_q_over(
            trace.final_rows, trace.encountered, inst, n, make_rng((MASTER_SEED, "c2off", i))
        )
        worst = max(
            worst,
            replay_invariant(trace, q_under, inst.supergraph),
            replay_invariant(trace, q_over, inst.supergraph),
        )
    assert worst <= 1e-9
    print(f"  max fixed-point violation over 50 traced runs: {worst:.2e}")
    _passed(2, "fixed-point invariant suite (both completions)")


def test_03_known_q_push_exactness():
    worst_invariant = 0.0
    for i in range(50):
        S = int(6 + (i % 10))
        epsilon = [0.05, 0.1, 0.3][i % 3]
        alpha = [0.5, 0.7][i % 2]
        spec = EnsembleSpec(S=S, p=min(4.0, S), alpha=alpha)
        inst = generate_instance(spec, (MASTER_SEED, "c3", i))
        report = approx_contributions(inst, epsilon, make_rng((MASTER_SEED, "c3tie", i)), trace=True)
        v = exact_value(inst)
        assert np.max(np.abs(report.estimate - v)) <= epsilon + 1e-10
        worst_invariant = max(worst_invariant, np.max(np.abs(error_process(report.trace, inst.Q).values)))
    assert worst_invariant <= 1e-10
    print(f"  max known-matrix fixed-point violation: {worst_invariant:.2e}")
    _passed(3, "known-matrix push exactness")


def test_04_backward_accuracy_guarantee():
    epsilon, delta, alpha = 0.25, 0.1, 0.5
    n_star = sample_size_backward(epsilon, delta, alpha, 1.0, 10)
    assert n_star == 227  # frozen formula evaluation
    spec = EnsembleSpec(S=10, p=5, alpha=alpha, cost_model="binary", H=3)
    failures = 0
    for t in range(200):
        inst = generate_instance(spec, (MASTER_SEED, "c4", t))
        sampler = CountingSampler(inst, (MASTER_SEED, "c4run", t))
        report = backward_epe(sampler, epsilon, n_star)
        if np.max(np.abs(report.estimate - exact_value(inst))) >= 2 * epsilon:
            failures += 1
    print(f"  failures at 2*epsilon: {failures}/200 (allowed {int(delta * 200)})")
    assert failures <= delta * 200
    _passed(4, "per-state sample-size guarantee (backward)")


def test_05_encountered_set_bound():
    config = ExperimentConfig(
        ensembles=(EnsembleSpec(S=200, p=10, alpha=0.5, cost_model="binary", H=5),),
        algorithms=(AlgorithmSpec("backward", {"epsilon": 0.15, "n": 20}),),
        trials=100,
        master_seed=MASTER_SEED,
    )
    records = run_experiment(config)
    rows = bound_report(records, config)
    assert len(rows) == 1
    row = rows[0]
    print(f"  mean |encountered| = {row['mean_encountered']:.1f}, bound = {row['bound']:.1f}")
    assert row["passed"]
    _passed(5, "average encountered-set bound (binary costs)")


def test_06_relative_complexity_trend():
    config = fig1_config(S_values=(100, 200, 400), trials=100, master_seed=MASTER_SEED)
    records = run_experiment(config)
    rows = summarize(records)
    ratios = {
        r["S"]: r["ratio_backward_over_forward"] for r in rows if r["algorithm"] == "backward"
    }
    print(f"  backward/forward sample ratios: { {S: round(x, 4) for S, x in ratios.items()} }")
    assert all(ratios[S] <= 0.5 for S in (100, 200, 400))
    assert ratios[100] > ratios[200] > ratios[400]
    _passed(6, "relative complexity <= 0.5 and decreasing in S")


@pytest.fixture(scope="module")
def scaling_sweep():
    config = fig2_config(S_values=(100, 200, 400, 800), trials=50, master_seed=MASTER_SEED)
    return summarize(run_experiment(config))


def test_07a_scaling_slopes(scaling_sweep):
    slopes = {r["algorithm"]: r["loglog_slope"] for r in scaling_sweep}
    print(
        f"  log-log slopes: forward={slopes['forward']:.3f}, "
        f"backward={slopes['backward']:.3f}, bidirectional={slopes['bidirectional']:.3f}"
    )
    assert slopes["bidirectional"] <= slopes["forward"] - 0.15
    _passed(7, "scaling slopes (bidirectional at least 0.15 below forward)")


def test_07b_scaling_error_window(scaling_sweep):
    window = (0.15, 0.40)
    table = {(r["S"], r["algorithm"]): r["rel_mean"] for r in scaling_sweep}
    for (S, algorithm), rel in sorted(table.items()):
        print(f"  S={S:4d} {algorithm:13s} mean relative error = {rel:.3f}")
    for (S, algorithm), rel in table.items():
        assert window[0] <= rel <= window[1], (
            f"{algorithm} at S={S}: mean relative error {rel:.3f} outside {window}"
        )
    _passed(7, "scaling error window [0.15, 0.40] for all three estimators")


def test_08_bidirectional_relative_guarantee():
    eps_rel, eps_abs, delta, alpha = 0.5, 0.15, 0.2, 0.5
    epsilon = eps_abs  # backward-stage threshold driving the walk-count formula
    spec = EnsembleSpec(S=10, p=4, alpha=alpha, cost_model="binary", H=3)
    n_F = sample_size_forward_bd(epsilon, eps_rel, eps_abs, delta, 10)
    assert n_F == 6867  # frozen formula evaluation
    failures = 0
    for t in range(100):
        inst = generate_instance(spec, (MASTER_SEED, "c8", t))
        n_B = sample_size_backward_bd(
            eps_rel, eps_abs, delta, alpha, inst.cost_inf, 10, inst.min_positive_entry()
        )
        sampler = CountingSampler(inst, (MASTER_SEED, "c8run", t))
        config = BidirectionalConfig(epsilon=epsilon, n_B=n_B, n_F=n_F)
        report = bidirectional_epe(sampler, config)
        v = exact_value(inst)
        if np.any(np.abs(report.estimate - v) > eps_rel * v + eps_abs):
            failures += 1
    print(f"  trials with any state outside the band: {failures}/100 (allowed {int(delta * 100)})")
    assert failures <= delta * 100
    _passed(8, "relative-plus-absolute guarantee (bidirectional)")


def test_09_resampling_unbiasedness():
    alpha, epsilon, n = 0.5, 0.1, 3
    spec = EnsembleSpec(S=4, p=2, alpha=alpha)
    inst = generate_instance(spec, (MASTER_SEED, "c9instance"))

    finals_alt = np.empty((2000, 4))
    for t in range(2000):
        sampler = CountingSampler(inst, (MASTER_SEED, "c9alt", t))
        report = backward_epe_alternative(sampler, epsilon, n, trace=True)
        finals_alt[t] = error_process(report.trace, inst.Q).final
    mean = finals_alt.mean(axis=0)
    stderr = finals_alt.std(axis=0, ddof=1) / np.sqrt(len(finals_alt))
    print(f"  resampling variant: mean e = {np.round(mean, 4).tolist()}, 3*SE = {np.round(3 * stderr, 4).tolist()}")
    assert np.all(np.abs(mean) <= 3 * stderr)

    # Report-only: the cached-row variant's fixed-point errors are biased in
    # general, so its statistic is printed without a pass/fail judgement.
    finals_plain = np.empty((2000, 4))
    for t in range(2000):
        sampler = CountingSampler(inst, (MASTER_SEED, "c9plain", t))
        report = backward_epe(sampler, epsilon, n, trace=True)
        finals_plain[t] = error_process(report.trace, inst.Q).final
    mean_plain = finals_plain.mean(axis=0)
    se_plain = finals_plain.std(axis=0, ddof=1) / np.sqrt(len(finals_plain))
    print(
        f"  cached-row variant (report only): mean e = {np.round(mean_plain, 4).tolist()}, "
        f"3*SE = {np.round(3 * se_plain, 4).tolist()}"
    )
    _passed(9, "resampling variant fixed-point unbiasedness")


def test_10_byte_identical_runs(tmp_path):
    config = ExperimentConfig(
        ensembles=(EnsembleSpec(S=25, p=5, alpha=0.5),),
        algorithms=(
            AlgorithmSpec("backward", {"epsilon": 0.15, "n": 10}),
            AlgorithmSpec("forward", {"T": 6, "m": 3}),
            AlgorithmSpec("bidirectional", {"n_B": "S", "n_F": "1.5*sqrt(S)", "termination_mode": "dynamic"}),
        ),
        trials=4,
        master_seed=MASTER_SEED,
    )
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config.to_dict()))

    outputs = []
    for run_idx, threads in enumerate(("1", "1", "8")):
        out = tmp_path / f"out{run_idx}_{threads}.csv"
        env = {**os.environ, "EPE_THREADS": threads}
        res = subprocess.run(
            [sys.executable, "-m", "epelab.cli", "run", "--config", str(cfg_path), "--out", str(out)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert res.returncode == 0, res.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    _passed(10, "byte-identical CSV across repeats and thread counts")
