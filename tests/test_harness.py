import hashlib
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from epelab import (
    AlgorithmSpec,
    ContractViolation,
    EnsembleSpec,
    ExperimentConfig,
    ProblemInstance,
    Supergraph,
    bound_report,
    exact_value_power_series,
    fig1_config,
    fig2_config,
    generate_instance,
    load_instance,
    read_csv,
    run_experiment,
    save_instance,
    summarize,
    validate_instance,
    write_csv,
)
from epelab import harness
from epelab.harness import (
    ALGORITHM_NAMES,
    BOUND_HEADER,
    CSV_HEADER,
    SUMMARY_HEADER,
    count_param,
    eval_param,
    loglog_slope,
    records_to_csv,
    table_to_csv,
)


def small_config(**overrides):
    base = dict(
        ensembles=(EnsembleSpec(S=12, p=4, alpha=0.5),),
        algorithms=(
            AlgorithmSpec("backward", {"epsilon": 0.2, "n": 5}),
            AlgorithmSpec("forward", {"T": 5, "m": 2}),
        ),
        trials=3,
        master_seed=17,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestParamExpressions:
    def test_numeric_passthrough(self):
        assert eval_param(0.15, 100) == 0.15
        assert count_param(20, 100) == 20

    def test_expressions_in_S(self):
        assert eval_param("10/S", 200) == 0.05
        assert count_param("S", 400) == 400
        assert count_param("1.5*sqrt(S)", 400) == 30
        assert count_param("1.5*sqrt(S)", 200) == 22  # ceiling of 21.21

    def test_float_fuzz_does_not_inflate_counts(self):
        assert count_param("0.05*S", 800) == 40

    def test_shipped_expressions_keep_their_values(self):
        # Every expression in fig1_config, fig2_config and the README.
        expected = {
            "10/S": lambda S: 10 / S,
            "S": lambda S: S,
            "0.05*S": lambda S: 0.05 * S,
            "1.5*sqrt(S)": lambda S: 1.5 * math.sqrt(S),
            "ceil(1.5*sqrt(S))": lambda S: math.ceil(1.5 * math.sqrt(S)),
        }
        configs = (fig1_config(), fig2_config())
        shipped = {v for c in configs for a in c.algorithms for v in a.params.values() if isinstance(v, str)}
        assert shipped - {"dynamic"} <= set(expected)
        for S in (1, 7, 100, 200, 400, 800, 1600, 3200):
            for text, reference in expected.items():
                assert eval_param(text, S) == float(reference(S))
        assert eval_param("-S + 2**3 - max(1, floor(S/3)) * min(2, log(S))", 9) == -9 + 8 - 3 * min(2, math.log(9))

    @pytest.mark.parametrize(
        "text",
        [
            "().__class__.__base__",
            "().__class__.__base__.__subclasses__()",
            "S.real",
            "__import__('os')",
            "open('x')",
            "sqrt",
            "sqrt(x=4)",
            "min(*[1, 2])",
            "[S]",
            "'S'",
            "True",
            "lambda: 1",
            "S if S else 1",
            "S // 2",
            "9**9**9",
            "1/0",
            "S +",
        ],
    )
    def test_anything_else_is_rejected(self, text):
        with pytest.raises(ContractViolation):
            eval_param(text, 10)

    @pytest.mark.parametrize("value", ["1e308*10", "-1e308*10", "1e308*10 - 1e308*10", math.inf, math.nan])
    def test_non_finite_values_are_refused(self, value):
        with pytest.raises(ContractViolation, match="not finite"):
            eval_param(value, 10)
        with pytest.raises(ContractViolation, match="not finite"):
            count_param(value, 10)

    @pytest.mark.parametrize("value", [None, [1], True, False], ids=repr)
    def test_non_numbers_are_refused(self, value):
        # A bool is an int to Python, but no parameter is a truth value.
        with pytest.raises(ContractViolation, match=repr(value).replace("[", r"\[")):
            eval_param(value, 10)

    def test_nested_powers_are_refused_at_once(self):
        start = time.perf_counter()
        with pytest.raises(ContractViolation):
            eval_param("((((10**64)**64)**64)**64)", 10)
        assert time.perf_counter() - start < 1.0


class TestRunExperiment:
    def test_known_q_baseline_draws_nothing(self):
        config = small_config(algorithms=(AlgorithmSpec("approx_contributions", {"epsilon": 0.2}),), trials=1)
        records = run_experiment(config)
        assert len(records) == 1
        assert records[0].samples_used == 0

    def test_backward_worst_case_budget(self):
        config = small_config(algorithms=(AlgorithmSpec("backward", {"epsilon": 0.15, "n": 20}),), trials=5)
        for rec in run_experiment(config):
            assert rec.samples_used <= 20 * 12

    def test_forward_exact_budget(self):
        config = small_config(algorithms=(AlgorithmSpec("forward", {"T": 5, "m": 3}),), trials=2)
        for rec in run_experiment(config):
            assert rec.samples_used == 12 * 3 * 4

    def test_deterministic_across_thread_counts(self):
        config = small_config(trials=4)
        solo = records_to_csv(run_experiment(config, threads=1))
        pooled = records_to_csv(run_experiment(config, threads=8))
        assert solo == pooled

    def test_csv_bytes_are_pinned(self):
        # Every algorithm, fixed and dynamic bidirectional included, at two
        # sizes. The digest changes only with a deliberate change to a random
        # stream or to float arithmetic; such a change updates it and says so.
        config = ExperimentConfig(
            ensembles=(EnsembleSpec(S=30, p=4, alpha=0.7), EnsembleSpec(S=60, p=6, alpha=0.9)),
            algorithms=(
                AlgorithmSpec("forward", {"T": 8, "m": 2}),
                AlgorithmSpec("backward", {"epsilon": "2/S", "n": "S"}),
                AlgorithmSpec("bidirectional", {"epsilon": "4/S", "n_B": 10, "n_F": 5}),
                AlgorithmSpec("bidirectional", {"n_B": "S", "n_F": "sqrt(S)", "termination_mode": "dynamic"}),
                AlgorithmSpec("approx_contributions", {"epsilon": "2/S"}),
                AlgorithmSpec("backward_alternative", {"epsilon": "4/S", "n": 10}),
                AlgorithmSpec("plug_in", {"n": 10}),
            ),
            trials=2,
            master_seed=2024,
        )
        csv = records_to_csv(run_experiment(config))
        assert len(csv.splitlines()) == 1 + 2 * 2 * 7
        assert hashlib.sha256(csv.encode()).hexdigest() == (
            "0860a032edd00b449ed82947e11bb8fb7abb20f50f8b608be3a8bf71ba152b0a"
        )

    def test_summary_and_bound_csv_bytes_are_pinned(self):
        # Mixed ensembles (H cell empty) and a binary one (H set); forward
        # and plug_in rows leave the backward/forward ratio empty, and three
        # sizes give every algorithm a slope.
        config = ExperimentConfig(
            ensembles=(
                EnsembleSpec(S=20, p=4, alpha=0.6),
                EnsembleSpec(S=30, p=5, alpha=0.5, cost_model="binary", H=3),
                EnsembleSpec(S=40, p=5, alpha=0.8),
            ),
            algorithms=(
                AlgorithmSpec("forward", {"T": 6, "m": 2}),
                AlgorithmSpec("backward", {"epsilon": "3/S", "n": 8}),
                AlgorithmSpec("plug_in", {"n": 5}),
            ),
            trials=2,
            master_seed=31,
        )
        records = run_experiment(config)
        summary = table_to_csv(SUMMARY_HEADER, summarize(records))
        bounds = table_to_csv(BOUND_HEADER, bound_report(records, config))
        assert hashlib.sha256(summary.encode()).hexdigest() == (
            "c0373fa39581728dbc6194fa6e5c5f51277a4c7cc1fe3dd0d6e403e6b317e5d7"
        )
        assert hashlib.sha256(bounds.encode()).hexdigest() == (
            "598a08ff9aba15f1db356ffee874c24f83c1b58209af7ab7d5e41142f1f5f463"
        )

    def test_record_order_canonical(self):
        config = small_config(trials=2)
        records = run_experiment(config)
        keys = [(r.S, r.algorithm, r.seed) for r in records]
        assert keys == sorted(keys)

    def test_csv_round_trip(self, tmp_path):
        config = small_config(trials=2)
        records = run_experiment(config)
        path = tmp_path / "out.csv"
        write_csv(records, path)
        with open(path) as fh:
            assert fh.readline().strip() == CSV_HEADER
        back = read_csv(path)
        assert records_to_csv(back) == records_to_csv(records)

    def test_config_json_round_trip(self, tmp_path):
        config = small_config()
        path = tmp_path / "cfg.json"
        config.save_json(path)
        back = ExperimentConfig.from_json(path)
        assert back == config

    def test_short_or_long_csv_row_names_file_and_line(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(run_experiment(small_config(trials=2)), path)
        lines = path.read_text().splitlines()
        for bad, cells in ((lines[-1].rsplit(",", 1)[0], 10), (lines[-1] + ",7", 12)):
            path.write_text("\n".join(lines[:-1] + [bad]) + "\n")
            with pytest.raises(ContractViolation, match=rf"out\.csv, line {len(lines)}: expected 11 cells"):
                read_csv(path)
            assert len(bad.split(",")) == cells

    def test_unparsable_csv_cell_names_file_line_and_column(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(run_experiment(small_config(trials=2)), path)
        lines = path.read_text().splitlines()
        column = CSV_HEADER.split(",").index("samples_used")
        cells = lines[2].split(",")
        cells[column] = "abc"
        path.write_text("\n".join(lines[:2] + [",".join(cells)] + lines[3:]) + "\n")
        with pytest.raises(ContractViolation, match=r"out\.csv, line 3, column samples_used: cannot parse 'abc'"):
            read_csv(path)

    def test_ensembles_sharing_an_S_are_refused(self):
        # They would share instance streams, and summarize and bound_report
        # would merge their rows.
        twins = (EnsembleSpec(S=20, p=4, alpha=0.5), EnsembleSpec(S=20, p=4, alpha=0.9))
        with pytest.raises(ContractViolation, match="share one S"):
            small_config(ensembles=twins)
        with pytest.raises(ContractViolation, match="share one S"):
            ExperimentConfig.from_dict(dict(small_config().to_dict(), ensembles=[
                {"S": 20, "p": 4, "alpha": 0.5}, {"S": 30, "p": 4, "alpha": 0.5}, {"S": 20, "p": 5, "alpha": 0.5}
            ]))

    def test_missing_parameter_is_refused_when_the_spec_is_built(self):
        with pytest.raises(ContractViolation, match="backward needs the parameter 'n'"):
            AlgorithmSpec("backward", {"epsilon": 0.2})

    def test_unknown_forward_parameter_is_refused(self):
        with pytest.raises(ContractViolation, match="forward takes no parameter 'epsilon'"):
            AlgorithmSpec("forward", {"T": 5, "m": 2, "epsilon": 0.1})

    def test_unknown_bidirectional_parameter_is_refused(self):
        with pytest.raises(ContractViolation, match="bidirectional takes no parameter 'typo'"):
            AlgorithmSpec("bidirectional", {"epsilon": 0.3, "n_B": 5, "n_F": 3, "typo": 1})

    def test_ensemble_without_alpha_is_refused(self):
        doc = dict(small_config().to_dict(), ensembles=[{"S": 20, "p": 4}])
        with pytest.raises(ContractViolation, match="config field 'alpha' is missing"):
            ExperimentConfig.from_dict(doc)

    # One row per refusal: (path to the edited entry of a valid config
    # document, its new value, the field the message names).
    @pytest.mark.parametrize(
        "path, value, field",
        [
            (("ensembles", 0, "cost_modle"), "binary", "cost_modle"),
            (("trails",), 3, "trails"),
            (("trials",), 2.7, "trials"),
            (("ensembles", 0, "S"), 20.5, "S"),
            (("trials",), "x", "trials"),
            (("ensembles", 0, "S"), "x", "S"),
            (("ensembles", 0, "alpha"), "x", "alpha"),
            (("ensembles", 0, "H"), "x", "H"),
            (("algorithms", 0, "params"), [0.2, 5], "params"),
            (("ensembles",), {"S": 12, "p": 4, "alpha": 0.5}, "ensembles"),
            (("trials",), True, "trials"),
            (("ensembles", 0, "S"), False, "S"),
        ],
    )
    def test_malformed_config_is_refused_naming_the_field(self, path, value, field):
        doc = small_config().to_dict()
        *parents, key = path
        entry = doc
        for step in parents:
            entry = entry[step]
        entry[key] = value
        with pytest.raises(ContractViolation, match=f"config field '{field}'"):
            ExperimentConfig.from_dict(doc)

    @pytest.mark.parametrize(
        "spec, message",
        [
            (AlgorithmSpec("backward", {"epsilon": "S +", "n": 5}), "backward at S=40: cannot parse"),
            (AlgorithmSpec("bidirectional", {"n_B": 5, "n_F": 3, "termination_mode": "dynamc"}), "'dynamc'"),
            (AlgorithmSpec("forward", {"T": 0, "m": 2}), "forward at S=40: need T >= 1"),
            (AlgorithmSpec("forward", {"T": "S - 30", "m": 2}), "forward at S=12: need T >= 1"),
            (AlgorithmSpec("bidirectional", {"n_B": 5, "n_F": 3}), "fixed mode needs epsilon"),
        ],
    )
    def test_parameter_values_are_refused_when_the_config_is_built(self, monkeypatch, spec, message):
        # Every algorithm is converted at every S before any instance exists.
        def refuse(*args):
            raise AssertionError("an instance was generated")

        monkeypatch.setattr(harness, "generate_instance", refuse)
        ensembles = tuple(EnsembleSpec(S=S, p=4, alpha=0.5) for S in (40, 12, 30))
        with pytest.raises(ContractViolation, match=message):
            small_config(ensembles=ensembles, algorithms=(AlgorithmSpec("backward", {"epsilon": 0.2, "n": 5}), spec))

    def test_trial_path_never_builds_the_dense_q(self, monkeypatch, tmp_path):
        # Generation, the truth, all six algorithms, validation, the bound
        # report and instance JSON read Q's CSR arrays; the dense view is
        # for oracles and test helpers only.
        def refuse(instance):
            raise AssertionError("the dense Q was built on the trial path")

        monkeypatch.setattr(ProblemInstance, "Q", property(refuse))
        config = small_config(
            algorithms=(
                AlgorithmSpec("forward", {"T": 5, "m": 2}),
                AlgorithmSpec("backward", {"epsilon": 0.2, "n": 5}),
                AlgorithmSpec("bidirectional", {"epsilon": 0.3, "n_B": 5, "n_F": 3}),
                AlgorithmSpec("bidirectional", {"n_B": 5, "n_F": 3, "termination_mode": "dynamic"}),
                AlgorithmSpec("approx_contributions", {"epsilon": 0.2}),
                AlgorithmSpec("backward_alternative", {"epsilon": 0.2, "n": 3}),
                AlgorithmSpec("plug_in", {"n": 4}),
            ),
            trials=2,
        )
        records = run_experiment(config)
        assert {r.algorithm for r in records} == set(ALGORITHM_NAMES)
        assert len(records) == 2 * 7
        assert [row["trials"] for row in bound_report(records, config)] == [2]
        instance = generate_instance(config.ensembles[0], 1)
        assert validate_instance(instance) == []
        save_instance(instance, tmp_path / "instance.json")
        back = load_instance(tmp_path / "instance.json")
        assert np.array_equal(back.q_values, instance.q_values)
        assert np.array_equal(back.supergraph.indices, instance.supergraph.indices)
        exact_value_power_series(instance, 5)
        # The patch is live: reading the dense view trips it.
        with pytest.raises(AssertionError, match="dense Q"):
            instance.Q

    def test_only_backward_algorithms_build_the_transpose(self, monkeypatch):
        # Forward and plug_in read no in-edges; the push estimators do.
        def refuse(supergraph):
            raise AssertionError("the transpose was built")

        monkeypatch.setattr(Supergraph, "transpose", property(refuse))
        config = small_config(
            algorithms=(AlgorithmSpec("forward", {"T": 5, "m": 2}), AlgorithmSpec("plug_in", {"n": 4})),
            trials=2,
        )
        assert len(run_experiment(config)) == 2 * 2
        # The patch is live: the backward estimator trips it.
        with pytest.raises(AssertionError, match="transpose"):
            run_experiment(small_config(trials=1))


class TestSummarize:
    def test_single_record_stats(self):
        config = small_config(algorithms=(AlgorithmSpec("forward", {"T": 5, "m": 2}),), trials=1)
        rows = summarize(run_experiment(config))
        assert len(rows) == 1
        assert rows[0]["samples_std"] == 0.0
        assert rows[0]["trials"] == 1

    def test_ratio_present_only_with_both_algorithms(self):
        both = summarize(run_experiment(small_config(trials=2)))
        backward_rows = [r for r in both if r["algorithm"] == "backward"]
        assert all(r["ratio_backward_over_forward"] is not None for r in backward_rows)

        solo = summarize(run_experiment(small_config(algorithms=(AlgorithmSpec("backward", {"epsilon": 0.2, "n": 5}),), trials=2)))
        assert all(r["ratio_backward_over_forward"] is None for r in solo)

    def test_slope_recovers_power_law(self):
        sizes = [100, 200, 400, 800]
        b = 1.7
        means = [3.5 * S**b for S in sizes]
        assert abs(loglog_slope(sizes, means) - b) < 0.01

    def test_summary_csv_renders(self):
        rows = summarize(run_experiment(small_config(trials=2)))
        text = table_to_csv(SUMMARY_HEADER, rows)
        assert text.splitlines()[0].startswith("S,algorithm,trials")

    def test_empty_input_rejected(self):
        with pytest.raises(ContractViolation):
            summarize([])


class TestBoundReport:
    def test_binary_bound_formula(self):
        config = ExperimentConfig(
            ensembles=(EnsembleSpec(S=30, p=5, alpha=0.5, cost_model="binary", H=3),),
            algorithms=(AlgorithmSpec("backward", {"epsilon": 0.15, "n": 5}),),
            trials=4,
            master_seed=7,
        )
        records = run_experiment(config)
        rows = bound_report(records, config)
        assert len(rows) == 1
        row = rows[0]
        # Binary model: bound = H * d_bar / (eps (1 - alpha)).
        from epelab import generate_instance

        dbar = np.mean(
            [
                generate_instance(config.ensembles[0], (7, "instance", 30, t)).supergraph.avg_degree
                for t in range(4)
            ]
        )
        assert row["bound"] == pytest.approx(3 * dbar / (0.15 * 0.5))
        assert row["mean_encountered"] <= 30

    def test_requires_backward_records(self):
        config = small_config(algorithms=(AlgorithmSpec("forward", {"T": 5, "m": 2}),), trials=1)
        records = run_experiment(config)
        with pytest.raises(ContractViolation):
            bound_report(records, config)


class TestCli:
    def run_cli(self, *args, env=None):
        import os

        full_env = dict(os.environ)
        if env:
            full_env.update(env)
        return subprocess.run(
            [sys.executable, "-m", "epelab.cli", *args],
            capture_output=True,
            text=True,
            env=full_env,
        )

    def test_generate_and_load(self, tmp_path):
        out = tmp_path / "inst.json"
        res = self.run_cli(
            "generate", "--S", "8", "--p", "3", "--alpha", "0.5", "--seed", "4", "--out", str(out)
        )
        assert res.returncode == 0
        doc = json.loads(out.read_text())
        assert doc["S"] == 8
        assert len(doc["supergraph"]["indptr"]) == 9

    def test_run_summarize_bounds_pipeline(self, tmp_path):
        cfg = small_config(trials=2).to_dict()
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        csv_path = tmp_path / "out.csv"
        res = self.run_cli("run", "--config", str(cfg_path), "--out", str(csv_path))
        assert res.returncode == 0, res.stderr
        res2 = self.run_cli("summarize", "--csv", str(csv_path))
        assert res2.returncode == 0
        assert res2.stdout.startswith("S,algorithm")
        res3 = self.run_cli("bounds", "--csv", str(csv_path), "--config", str(cfg_path))
        assert res3.returncode == 0
        assert "True" in res3.stdout

    def test_malformed_config_exits_2_naming_the_field(self, tmp_path):
        cfg = small_config(trials=1).to_dict()
        cfg["ensembles"][0]["cost_modle"] = "binary"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        res = self.run_cli("run", "--config", str(cfg_path))
        assert res.returncode == 2
        assert res.stderr.startswith("epelab: ") and "'cost_modle'" in res.stderr
        assert "Traceback" not in res.stderr
        assert res.stdout == ""
        cfg_path.write_text(json.dumps(cfg)[:-1])
        res = self.run_cli("run", "--config", str(cfg_path))
        assert res.returncode == 2 and "is not JSON" in res.stderr and "Traceback" not in res.stderr

    def test_summarize_zero_draw_forward(self, tmp_path):
        # Forward with T = 1 makes no draws, so the backward/forward ratio
        # has no value; its cell is left empty.
        cfg = small_config(
            algorithms=(AlgorithmSpec("backward", {"epsilon": 0.2, "n": 5}), AlgorithmSpec("forward", {"T": 1, "m": 2})),
            trials=1,
        )
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        csv_path = tmp_path / "out.csv"
        assert self.run_cli("run", "--config", str(cfg_path), "--out", str(csv_path)).returncode == 0
        res = self.run_cli("summarize", "--csv", str(csv_path))
        assert res.returncode == 0, res.stderr
        header, backward_row, forward_row = (line.split(",") for line in res.stdout.splitlines())
        ratio = header.index("ratio_backward_over_forward")
        assert backward_row[1] == "backward" and backward_row[ratio] == ""
        assert forward_row[3] == "0.0"

    def test_seed_override_changes_output(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_config(trials=1).to_dict()))
        a = self.run_cli("run", "--config", str(cfg_path))
        b = self.run_cli("run", "--config", str(cfg_path), "--seed", "999")
        assert a.returncode == b.returncode == 0
        assert a.stdout != b.stdout

    def test_calc_prints_all_sizes(self):
        res = self.run_cli(
            "calc", "--epsilon", "0.1", "--delta", "0.1", "--alpha", "0.5", "--c-inf", "1.0",
            "--S", "10", "--epsilon-rel", "0.5", "--epsilon-abs", "0.1", "--q-min", "0.1",
        )
        assert res.returncode == 0
        assert "1476" in res.stdout
        assert "(6, 355)" in res.stdout
        assert "7765" in res.stdout
        assert "179897" in res.stdout
