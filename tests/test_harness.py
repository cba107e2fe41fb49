import dataclasses
import hashlib
import json
import math
import re
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
    backward_epe,
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
from epelab import cli, harness, instances, oracles
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

    def test_timing_changes_only_the_wall_time(self):
        config = small_config(trials=2)
        untimed = run_experiment(config)
        timed = run_experiment(config, timing=True)
        assert [dataclasses.replace(rec, wall_time_ms=0) for rec in timed] == untimed
        for rec in timed:
            assert type(rec.wall_time_ms) is int and rec.wall_time_ms >= 0

    def test_a_misreported_draw_count_is_refused(self, monkeypatch):
        def misreporting(sampler, epsilon, n):
            report = backward_epe(sampler, epsilon, n)
            return dataclasses.replace(report, samples_used=report.samples_used + 1)

        monkeypatch.setattr(harness, "backward_epe", misreporting)
        config = small_config(algorithms=(AlgorithmSpec("backward", {"epsilon": 0.2, "n": 5}),), trials=1)
        with pytest.raises(ContractViolation, match="^backward: reported samples_used=") as err:
            run_experiment(config)
        reported, counted = map(int, re.findall(r"\d+", str(err.value)))
        assert reported == counted + 1

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
                AlgorithmSpec("approx_contributions", {"epsilon": "2/S"}),
                AlgorithmSpec("backward_alternative", {"epsilon": "4/S", "n": 10}),
                AlgorithmSpec("plug_in", {"n": 10}),
            ),
            trials=2,
            master_seed=2024,
        )
        # A config lists an algorithm once, so the dynamic bidirectional runs
        # in a second one; the harness's stable sort puts each of its rows
        # after the fixed mode's row of the same S and seed.
        dynamic = AlgorithmSpec("bidirectional", {"n_B": "S", "n_F": "sqrt(S)", "termination_mode": "dynamic"})
        records = run_experiment(config) + run_experiment(dataclasses.replace(config, algorithms=(dynamic,)))
        csv = records_to_csv(sorted(records, key=lambda r: (r.S, r.algorithm, r.seed)))
        assert len(csv.splitlines()) == 1 + 2 * 2 * 7
        assert hashlib.sha256(csv.encode()).hexdigest() == (
            "5237776d606b03c24ea46c7d281f0c95a565cf8a0cd27da9cfbe4c6aeb1727ca"
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

    def test_csv_cell_above_the_field_size_limit_names_file_and_line(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(run_experiment(small_config(trials=2)), path)
        lines = path.read_text().splitlines()
        cells = lines[2].split(",")
        cells[1] = "x" * 200_000
        path.write_text("\n".join(lines[:2] + [",".join(cells)] + lines[3:]) + "\n")
        with pytest.raises(ContractViolation, match=r"out\.csv, line 3: field larger than field limit"):
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
        with pytest.raises(ContractViolation, match=r"^ensembles\[0\]\.alpha: missing from the config$"):
            ExperimentConfig.from_dict(doc)

    # One row per refusal: (path to the edited entry of a valid config
    # document, its new value, the start of the message, which names the
    # field by its dotted path).
    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("ensembles", 0, "cost_modle"), "binary", "ensembles[0].cost_modle: unknown field; the fields are ['H', "),
            (("trails",), 3, "trails: unknown field"),
            (("trials",), 2.7, "trials: must be an integer, got 2.7"),
            (("ensembles", 0, "S"), 20.5, "ensembles[0].S: must be an integer, got 20.5"),
            (("trials",), "x", "trials: must be an integer, got 'x'"),
            (("ensembles", 0, "S"), "x", "ensembles[0].S: must be an integer, got 'x'"),
            (("ensembles", 0, "alpha"), "x", "ensembles[0].alpha: must be a number, got 'x'"),
            (("ensembles", 0, "H"), "x", "ensembles[0].H: must be an integer, got 'x'"),
            (("algorithms", 0, "params"), [0.2, 5], "algorithms[0].params: must be an object, got [0.2, 5]"),
            (("ensembles",), {"S": 12, "p": 4, "alpha": 0.5}, "ensembles: must be a list, got {"),
            (("ensembles", 0), [12, 4, 0.5], "ensembles[0]: must be an object, got [12, 4, 0.5]"),
            (("trials",), True, "trials: must be an integer, got True"),
            (("ensembles", 0, "S"), False, "ensembles[0].S: must be an integer, got False"),
            (("master_seed",), None, "master_seed: must be an integer, got None"),
            # An algorithm listed a second time.
            (
                ("algorithms", 1),
                {"name": "backward", "params": {"epsilon": 0.05, "n": 5}},
                "config field 'algorithms' lists 'backward' more than once",
            ),
        ],
    )
    def test_malformed_config_is_refused_naming_the_field(self, path, value, message):
        doc = small_config().to_dict()
        *parents, key = path
        entry = doc
        for step in parents:
            entry = entry[step]
        entry[key] = value
        with pytest.raises(ContractViolation, match="^" + re.escape(message)):
            ExperimentConfig.from_dict(doc)

    def test_a_null_optional_field_reads_as_absent(self):
        doc = small_config().to_dict()
        doc["ensembles"][0].update(cost_model=None, H=None)
        doc["algorithms"][0]["params"] = None
        with pytest.raises(ContractViolation, match="^backward needs the parameter 'epsilon'$"):
            ExperimentConfig.from_dict(doc)
        del doc["algorithms"][0]
        assert ExperimentConfig.from_dict(doc) == small_config(algorithms=small_config().algorithms[1:])

    @pytest.mark.parametrize("field", ["ensembles", "algorithms"])
    def test_an_empty_list_is_refused(self, field):
        # A run of it would write a header-only CSV that summarize refuses.
        with pytest.raises(ContractViolation, match=f"^{field}: must not be empty$"):
            small_config(**{field: ()})
        with pytest.raises(ContractViolation, match=f"^{field}: must not be empty$"):
            ExperimentConfig.from_dict(dict(small_config().to_dict(), **{field: []}))

    @pytest.mark.parametrize(
        "spec, message",
        [
            (AlgorithmSpec("backward", {"epsilon": "S +", "n": 5}), "backward at S=40: cannot parse"),
            (AlgorithmSpec("bidirectional", {"n_B": 5, "n_F": 3, "termination_mode": "dynamc"}), "'dynamc'"),
            (AlgorithmSpec("forward", {"T": 0, "m": 2}), "forward at S=40: T must be >= 1"),
            (AlgorithmSpec("forward", {"T": "S - 30", "m": 2}), "forward at S=12: T must be >= 1"),
            (AlgorithmSpec("bidirectional", {"n_B": 5, "n_F": 3}), "fixed mode needs epsilon"),
            (AlgorithmSpec("backward", {"epsilon": 0.2, "n": 0}), "backward at S=40: per-state sample count"),
            (AlgorithmSpec("backward_alternative", {"epsilon": 0.2, "n": "S - 30"}), "_alternative at S=12: per-state"),
            (AlgorithmSpec("plug_in", {"n": -2}), "plug_in at S=40: per-state sample count must be >= 1, got -2"),
            (AlgorithmSpec("backward", {"epsilon": -0.1, "n": 5}), "backward at S=40: termination threshold"),
            (AlgorithmSpec("backward_alternative", {"epsilon": 0, "n": 5}), "_alternative at S=40: termination"),
            (AlgorithmSpec("approx_contributions", {"epsilon": "S - 30"}), "approx_contributions at S=12: termination"),
            (AlgorithmSpec("backward", {"epsilon": 0.2, "n": "1e300"}), r"backward at S=40: count parameter '1e300'"),
            (AlgorithmSpec("forward", {"T": 5, "m": 1e300}), r"forward at S=40: .* above 2\*\*53"),
            (
                AlgorithmSpec("bidirectional", {"epsilon": 0.3, "n_B": 5, "n_F": "2**60"}),
                r"bidirectional at S=40: count parameter '2\*\*60'",
            ),
            (
                AlgorithmSpec("bidirectional", {"epsilon": "1/S", "n_B": 5, "n_F": 3, "termination_mode": "dynamic"}),
                r"^bidirectional at S=40: epsilon=0\.025 is read by the fixed termination mode only, not by 'dynamic'$",
            ),
            # Too deep for ast.parse, and parsed but too deep to evaluate.
            (AlgorithmSpec("forward", {"T": 5, "m": "1+" * 3000 + "1"}), r"^forward at S=40: parameter '1\+1\+.*' is nested"),
            (AlgorithmSpec("forward", {"T": 5, "m": "-" * 1200 + "1"}), r"^forward at S=40: parameter '---.*' is nested"),
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
        # report and instance JSON read Q's CSR arrays; the dense view and
        # the dense oracles are for tests only.
        def refuse(instance):
            raise AssertionError("the dense Q was built on the trial path")

        def refuse_oracle(S):
            raise AssertionError("a dense oracle ran on the trial path")

        monkeypatch.setattr(ProblemInstance, "Q", property(refuse))
        monkeypatch.setattr(oracles, "check_dense_size", refuse_oracle)
        config = small_config(
            algorithms=(
                AlgorithmSpec("forward", {"T": 5, "m": 2}),
                AlgorithmSpec("backward", {"epsilon": 0.2, "n": 5}),
                AlgorithmSpec("bidirectional", {"epsilon": 0.3, "n_B": 5, "n_F": 3}),
                AlgorithmSpec("approx_contributions", {"epsilon": 0.2}),
                AlgorithmSpec("backward_alternative", {"epsilon": 0.2, "n": 3}),
                AlgorithmSpec("plug_in", {"n": 4}),
            ),
            trials=2,
        )
        # A config lists an algorithm once; the dynamic bidirectional runs in a second one.
        dynamic = AlgorithmSpec("bidirectional", {"n_B": 5, "n_F": 3, "termination_mode": "dynamic"})
        records = run_experiment(config) + run_experiment(dataclasses.replace(config, algorithms=(dynamic,)))
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
        # The patches are live: reading the dense view or running an oracle trips them.
        with pytest.raises(AssertionError, match="dense Q"):
            instance.Q
        with pytest.raises(AssertionError, match="dense oracle"):
            oracles.edge_mask(instance.supergraph)

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


def write_csv_without_first_encountered_size(path):
    """Write two backward and forward trials at S=20, p 4 to the CSV ``path``
    with the first backward row's encountered_size cell empty; return their config."""
    config = small_config(
        ensembles=(EnsembleSpec(S=20, p=4, alpha=0.5),),
        algorithms=(AlgorithmSpec("backward", {"epsilon": 0.2, "n": 5}), AlgorithmSpec("forward", {"T": 3, "m": 2})),
        trials=2,
    )
    records = run_experiment(config)
    first = next(i for i, rec in enumerate(records) if rec.algorithm == "backward")
    assert records[first].seed == 0
    records[first] = dataclasses.replace(records[first], encountered_size=None)
    write_csv(records, path)
    return config


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

    def test_supergraph_draw_equals_the_trial_instance(self):
        # p = 1 leaves many rows empty on their first draw, so the redraws run too.
        config = small_config(
            ensembles=(
                EnsembleSpec(S=12, p=1, alpha=0.5),
                EnsembleSpec(S=40, p=6, alpha=0.5, cost_model="binary", H=3),
            ),
            trials=5,
        )
        for ensemble in config.ensembles:
            for trial in range(config.trials):
                supergraph, _ = instances.draw_supergraph(ensemble, harness.instance_seed(config, ensemble, trial))
                instance = harness.trial_instance(config, ensemble, trial)
                assert supergraph.avg_degree == instance.supergraph.avg_degree
                assert supergraph.indices.tobytes() == instance.supergraph.indices.tobytes()

    def test_report_generates_no_instance(self, monkeypatch):
        config = small_config(trials=3)
        records = run_experiment(config)
        expected = bound_report(records, config)

        def refuse(*args):
            raise AssertionError("bound_report generated a whole instance")

        monkeypatch.setattr(harness, "generate_instance", refuse)
        monkeypatch.setattr(instances, "generate_instance", refuse)
        assert bound_report(records, config) == expected

    def test_requires_backward_records(self):
        config = small_config(algorithms=(AlgorithmSpec("forward", {"T": 5, "m": 2}),), trials=1)
        records = run_experiment(config)
        with pytest.raises(ContractViolation):
            bound_report(records, config)

    # Two backward trials at S=20, p 4, read back from their CSV and checked
    # against a config with another S, or with the same S at p 6. Unrefused,
    # the first gives a report with no row and the second a bound for p 6.
    @pytest.mark.parametrize(
        "ensemble, message",
        [
            (EnsembleSpec(S=30, p=4, alpha=0.5), "^bound report: backward records at S=20, but the config has no ensemble"),
            (EnsembleSpec(S=20, p=6, alpha=0.5), r"^bound report: backward records at S=20 have p=4\.0, but .* has p=6\.0$"),
        ],
        ids=["other-S", "other-p"],
    )
    def test_records_of_another_ensemble_are_refused(self, tmp_path, ensemble, message):
        config = small_config(ensembles=(EnsembleSpec(S=20, p=4, alpha=0.5),), trials=2)
        path = tmp_path / "out.csv"
        write_csv(run_experiment(config), path)
        records = read_csv(path)
        assert len(bound_report(records, config)) == 1
        with pytest.raises(ContractViolation, match=message):
            bound_report(records, dataclasses.replace(config, ensembles=(ensemble,)))

    def test_records_without_a_backward_row_are_refused(self):
        config = small_config(trials=1)
        forward_only = [rec for rec in run_experiment(config) if rec.algorithm != "backward"]
        assert forward_only
        with pytest.raises(ContractViolation, match="^bound report needs backward records, and the trial records hold none$"):
            bound_report(forward_only, config)

    def test_backward_record_without_encountered_size_is_refused(self, tmp_path):
        # Unrefused, the mean of the encountered sizes adds None to an int.
        path = tmp_path / "out.csv"
        config = write_csv_without_first_encountered_size(path)
        records = read_csv(path)
        assert [rec.encountered_size is None for rec in records if rec.algorithm == "backward"] == [True, False]
        message = "^bound report: backward record at S=20, seed=0 has no encountered_size$"
        with pytest.raises(ContractViolation, match=message):
            bound_report(records, config)


# Every byte pin of a whole `epelab run` output: a config document, run
# in-process through `cli.main`, and the sha256 of the CSV it writes. A
# digest moves only with a deliberate change to a random stream or to float
# arithmetic; such a change re-pins the row here and says which moved and why.
def _bidirectional_run(alpha):
    return {
        "master_seed": 1,
        "trials": 1,
        "ensembles": [{"S": 1600, "p": 10, "alpha": alpha}],
        "algorithms": [{"name": "bidirectional", "params": {"n_B": "S", "n_F": 60, "termination_mode": "dynamic"}}],
    }


PINNED_RUNS = [
    # Forward alone, 700 * 100 = 70,000 walkers: four full forward blocks of
    # 2**14 and a short fifth, which write the bytes of the same run walked
    # as one batch of all walkers.
    pytest.param(
        {
            "master_seed": 1,
            "trials": 1,
            "ensembles": [{"S": 700, "p": 4, "alpha": 0.5}],
            "algorithms": [{"name": "forward", "params": {"T": 3, "m": 100}}],
        },
        "1a21b12dad094adf889a2f4639c3a501a785dccc7063cbee9f5d6eb0fd2e0b1a",
        id="fw",
    ),
    # Bidirectional alone at S=1600 with n_F 60: its walk stage spans two
    # blocks of WALKER_BUDGET walkers (1092 states, then 508), and writes the
    # bytes pinned from the stream layout of those blocks.
    pytest.param(
        _bidirectional_run(0.9),
        "705d2193d83122c3c1ec7c4831f2a9c74a5f59fd136deb5230d8bf8eca7a5f53",
        id="bd",
    ),
    # The same run at alpha 0.5: two blocks again, whose walks are ordered by
    # 8-bit keys (bidirectional.longest_first).
    pytest.param(
        _bidirectional_run(0.5),
        "2914fc812eed6b775d6d5b7c6dd8e75760489c7cec19b49d89d9546b6da58c58",
        id="bd05",
    ),
    # The push estimators at S=800: their three push loops sweep the stale
    # entries out of their heaps 14 times in all, and write the bytes of a
    # heap that takes every residual above the floor and never sweeps.
    pytest.param(
        {
            "master_seed": 1,
            "trials": 1,
            "ensembles": [{"S": 800, "p": 10, "alpha": 0.9}],
            "algorithms": [
                {"name": "backward", "params": {"epsilon": "10/S", "n": "S"}},
                {"name": "approx_contributions", "params": {"epsilon": "10/S"}},
                {"name": "backward_alternative", "params": {"epsilon": "10/S", "n": 20}},
            ],
        },
        "56b11134866fafd02aa4424e15cfe21c006a1feba795b47e13d2425124775c81",
        id="push",
    ),
    # Dense binary backward at S=1600 (H = S // 8, with the schedule of
    # tests/test_headline.py): its 200 states that start tied at residual 1.0
    # wait outside the heap as one group, and it writes the bytes of the heap
    # that popped and re-entered the whole tie set at every selection.
    pytest.param(
        {
            "master_seed": 1,
            "trials": 1,
            "ensembles": [{"S": 1600, "p": 10, "alpha": 0.5, "cost_model": "binary", "H": 200}],
            "algorithms": [{"name": "backward", "params": {"epsilon": 0.15, "n": "88.88888888888889*log(140.0*S)"}}],
        },
        "1299b84820c0a7d4cea352cf00ccd8848254a1de432c91bd67b23fbb3a37da58",
        id="dense",
    ),
    # The two figure presets, cut to two sizes and two trials.
    pytest.param(
        fig1_config(S_values=(100, 200), trials=2).to_dict(),
        "6704747c7024c50cb960b12c0088cff54b3a0ac72bd52f6e571aead1aa8e4162",
        id="fig1",
    ),
    pytest.param(
        fig2_config(S_values=(100, 200), trials=2).to_dict(),
        "7639ad56b3adb201f51bbd19d98bf097e1ef796e1e21b2bfe655b6ff8d019e5a",
        id="fig2",
    ),
]


@pytest.mark.parametrize("doc, digest", PINNED_RUNS)
def test_run_writes_the_pinned_bytes(tmp_path, doc, digest):
    config, out = tmp_path / "config.json", tmp_path / "out.csv"
    config.write_text(json.dumps(doc))
    assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# What math.ceil says of a count that overflowed to inf.
INFINITE_COUNT = "cannot convert float infinity to integer"


class TestCli:
    @pytest.fixture
    def epelab(self, capsys):
        """Run ``epelab *args`` in-process; a refusal returns 2 from ``main``,
        and any exception that escapes fails the test."""

        def run(*args):
            args = list(map(str, args))
            status = cli.main(args)
            out, err = capsys.readouterr()
            return subprocess.CompletedProcess(args, status, out, err)

        return run

    def test_module_entry_point_prints_the_headline_sizes(self):
        # The one launch of `python -m epelab.cli`: the schedule of
        # tests/test_headline.py at S=3200.
        res = subprocess.run(
            [sys.executable, "-m", "epelab.cli", "calc", "--epsilon", "0.15", "--delta", "0.1", "--alpha", "0.5",
             "--c-inf", "1", "--S", "3200"],
            capture_output=True,
            text=True,
        )
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines() == ["backward n*        = 1157", "forward (T, m)     = (6, 286)"]

    def test_generate_and_load(self, tmp_path, epelab):
        out = tmp_path / "inst.json"
        res = epelab("generate", "--S", "8", "--p", "3", "--alpha", "0.5", "--seed", "4", "--out", out)
        assert res.returncode == 0
        doc = json.loads(out.read_text())
        assert doc["S"] == 8
        assert len(doc["supergraph"]["indptr"]) == 9

    def test_run_summarize_bounds_pipeline(self, tmp_path, epelab):
        cfg = small_config(trials=2).to_dict()
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        csv_path = tmp_path / "out.csv"
        res = epelab("run", "--config", cfg_path, "--out", csv_path)
        assert res.returncode == 0, res.stderr
        res2 = epelab("summarize", "--csv", csv_path)
        assert res2.returncode == 0
        assert res2.stdout.startswith("S,algorithm")
        res3 = epelab("bounds", "--csv", csv_path, "--config", cfg_path)
        assert res3.returncode == 0
        assert "True" in res3.stdout

    def test_timing_flag_fills_only_the_wall_time_column(self, tmp_path, epelab):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_config(trials=2).to_dict()))
        untimed = epelab("run", "--config", cfg_path).stdout.splitlines()
        timed = epelab("run", "--config", cfg_path, "--timing").stdout.splitlines()
        assert CSV_HEADER.split(",")[-1] == "wall_time_ms"
        assert len(timed) == len(untimed) == 1 + 2 * 2
        assert [line.rsplit(",", 1)[0] for line in timed] == [line.rsplit(",", 1)[0] for line in untimed]
        assert {line.rsplit(",", 1)[1] for line in untimed[1:]} == {"0"}

    def test_malformed_config_exits_2_naming_the_field(self, tmp_path, epelab):
        cfg = small_config(trials=1).to_dict()
        cfg["ensembles"][0]["cost_modle"] = "binary"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        res = epelab("run", "--config", cfg_path)
        assert res.returncode == 2
        assert res.stderr.startswith("epelab: ensembles[0].cost_modle: unknown field")
        assert res.stdout == ""
        cfg_path.write_text(json.dumps(cfg)[:-1])
        res = epelab("run", "--config", cfg_path)
        assert res.returncode == 2 and "is not JSON" in res.stderr

    def test_unreadable_input_exits_2_naming_the_file(self, tmp_path, epelab):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_config(trials=1).to_dict()))
        latin = tmp_path / "latin.json"
        latin.write_bytes(cfg_path.read_bytes().replace(b"backward", b"r\xe9tro", 1))
        missing = tmp_path / "missing"
        cases = [
            (("run", "--config", missing), f"cannot read {missing}: No such file or directory"),
            (("run", "--config", tmp_path), f"cannot read {tmp_path}: Is a directory"),
            (("run", "--config", latin), f"cannot read {latin}: 'utf-8' codec can't decode byte 0xe9"),
            (("summarize", "--csv", missing), f"cannot read {missing}: No such file or directory"),
            (("bounds", "--csv", missing, "--config", cfg_path), f"cannot read {missing}: No such file or directory"),
        ]
        for args, message in cases:
            res = epelab(*args)
            assert res.returncode == 2, res.stderr
            assert res.stderr.startswith(f"epelab: {message}"), res.stderr
            assert res.stdout == ""

    def test_unwritable_output_exits_2_naming_the_file(self, tmp_path, epelab):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_config(trials=1).to_dict()))
        csv_path = tmp_path / "out.csv"
        assert epelab("run", "--config", cfg_path, "--out", csv_path).returncode == 0
        out = tmp_path / "missing" / "out"
        cases = [
            ("generate", "--S", "8", "--p", "3", "--alpha", "0.5", "--seed", "4", "--out", out),
            ("run", "--config", cfg_path, "--out", out),
            ("summarize", "--csv", csv_path, "--out", out),
            ("bounds", "--csv", csv_path, "--config", cfg_path, "--out", out),
        ]
        for args in cases:
            res = epelab(*args)
            assert res.returncode == 2, res.stderr
            assert res.stderr == f"epelab: cannot write {out}: No such file or directory\n"
            assert res.stdout == ""
        res = epelab("summarize", "--csv", csv_path, "--out", tmp_path)
        assert res.returncode == 2 and res.stderr == f"epelab: cannot write {tmp_path}: Is a directory\n"

    def test_threads_flag_is_refused(self, tmp_path, capsys):
        # Cells run serially; the worker-count flag is gone, not ignored.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_config(trials=1).to_dict()))
        with pytest.raises(SystemExit) as exit_:
            cli.main(["run", "--config", str(cfg_path), "--threads", "2"])
        assert exit_.value.code == 2
        out, err = capsys.readouterr()
        assert "unrecognized arguments: --threads 2" in err and out == ""

    def test_summarize_zero_draw_forward(self, tmp_path, epelab):
        # Forward with T = 1 makes no draws, so the backward/forward ratio
        # has no value; its cell is left empty.
        cfg = small_config(
            algorithms=(AlgorithmSpec("backward", {"epsilon": 0.2, "n": 5}), AlgorithmSpec("forward", {"T": 1, "m": 2})),
            trials=1,
        )
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        csv_path = tmp_path / "out.csv"
        assert epelab("run", "--config", cfg_path, "--out", csv_path).returncode == 0
        res = epelab("summarize", "--csv", csv_path)
        assert res.returncode == 0, res.stderr
        header, backward_row, forward_row = (line.split(",") for line in res.stdout.splitlines())
        ratio = header.index("ratio_backward_over_forward")
        assert backward_row[1] == "backward" and backward_row[ratio] == ""
        assert forward_row[3] == "0.0"

    def test_seed_override_changes_output(self, tmp_path, epelab):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_config(trials=1).to_dict()))
        a = epelab("run", "--config", cfg_path)
        b = epelab("run", "--config", cfg_path, "--seed", "999")
        assert a.returncode == b.returncode == 0
        assert a.stdout != b.stdout

    def test_bounds_refuses_a_backward_row_without_encountered_size(self, tmp_path, epelab):
        csv_path, cfg_path = tmp_path / "out.csv", tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(write_csv_without_first_encountered_size(csv_path).to_dict()))
        res = epelab("bounds", "--csv", csv_path, "--config", cfg_path)
        assert res.returncode == 2
        assert res.stderr == "epelab: bound report: backward record at S=20, seed=0 has no encountered_size\n"
        assert res.stdout == ""

    def test_calc_prints_all_sizes(self, epelab):
        res = epelab(
            "calc", "--epsilon", "0.1", "--delta", "0.1", "--alpha", "0.5", "--c-inf", "1.0",
            "--S", "10", "--epsilon-rel", "0.5", "--epsilon-abs", "0.1", "--q-min", "0.1",
        )
        assert res.returncode == 0
        assert "1476" in res.stdout
        assert "(6, 355)" in res.stdout
        assert "7765" in res.stdout
        assert "179897" in res.stdout

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--epsilon", "nan", "need epsilon, delta, c_inf > 0 and finite, S >= 1, alpha in (0,1); got epsilon=nan,"),
            ("--epsilon", "inf", "need epsilon, delta, c_inf > 0 and finite, S >= 1, alpha in (0,1); got epsilon=inf,"),
            ("--delta", "nan", "need epsilon, delta, c_inf > 0 and finite, S >= 1, alpha in (0,1); got epsilon=0.1, delta=nan,"),
            ("--c-inf", "inf", "need epsilon, delta, c_inf > 0 and finite, S >= 1, alpha in (0,1); got epsilon=0.1, delta=0.1, c_inf=inf,"),
            ("--epsilon-abs", "nan", "need epsilon, epsilon_abs, delta > 0 and finite, S >= 1; got epsilon=0.1, epsilon_abs=nan,"),
        ],
        ids=["epsilon-nan", "epsilon-inf", "delta-nan", "c_inf-inf", "epsilon_abs-nan"],
    )
    def test_calc_refuses_a_non_finite_input(self, epelab, flag, value, message):
        args = {"--epsilon": "0.1", "--delta": "0.1", "--alpha": "0.5", "--c-inf": "1.0", "--S": "10",
                "--epsilon-rel": "0.5", "--epsilon-abs": "0.1"}
        args[flag] = value
        res = epelab("calc", *(item for pair in args.items() for item in pair))
        assert res.returncode == 2
        assert res.stderr.startswith(f"epelab: {message}"), res.stderr

    # Finite inputs whose formula overflows or underflows. Each printed a
    # ZeroDivisionError or OverflowError traceback and exited 1.
    @pytest.mark.parametrize(
        "flags, formula, error",
        [
            (("--epsilon", "1e-300"), "sample_size_backward", "float division by zero"),
            (("--c-inf", "1e300"), "sample_size_backward", "Numerical result out of range"),
            (("--delta", "1e-320"), "sample_size_backward", INFINITE_COUNT),
            (("--epsilon-rel", "0.5", "--epsilon-abs", "1e-320"), "sample_size_forward_bd", INFINITE_COUNT),
            (("--epsilon-rel", "0.5", "--epsilon-abs", "0.1", "--q-min", "1e-320"), "sample_size_backward_bd", INFINITE_COUNT),
            (("--S", "1" + "0" * 400), "sample_size_backward", "int too large to convert to float"),
        ],
        ids=["epsilon-tiny", "c_inf-huge", "delta-tiny", "epsilon_abs-tiny", "q_min-tiny", "S-401-digits"],
    )
    def test_calc_refuses_a_formula_it_cannot_evaluate(self, epelab, flags, formula, error):
        args = {"--epsilon": "0.1", "--delta": "0.1", "--alpha": "0.9", "--c-inf": "1", "--S": "100"}
        args.update(zip(flags[::2], flags[1::2]))
        res = epelab("calc", *(item for pair in args.items() for item in pair))
        assert res.returncode == 2
        assert res.stderr.startswith(f"epelab: {formula} cannot be evaluated at epsilon"), res.stderr
        assert f": {error}" in res.stderr and res.stderr.count("\n") == 1 and "Traceback" not in res.stderr
        assert res.stdout == ""
