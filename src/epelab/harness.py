"""Experiment runner: ensembles x algorithms x trials -> CSV.

A config names one ensemble cell per size S (no two share an S), a list
of algorithms with parameter blocks, a trial count, and a master seed. Every trial derives
its instance from (master_seed, S, trial) and every algorithm run derives
its own sampler stream from (master_seed, S, trial, algorithm), so the
output is a pure function of the config: the CSV is byte-identical across
repeat runs and across worker counts. Records are sorted canonically
before writing regardless of completion order.

Parameter blocks may scale with S: any parameter value may be a string
expression in S (e.g. "10/S", "ceil(1.5*sqrt(S))"). Count-valued
parameters take the ceiling of fractional results.

Wall time is recorded only when timing is requested; the column is zero
by default so that default output stays deterministic.

The trial, summary and bound tables are all written by
:func:`table_to_csv`: a header string fixes the columns, and a cell is
``str`` of its value or empty for None.
"""

from __future__ import annotations

import ast
import csv
import io
import json
import math
import operator
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields

import numpy as np

from .backward import backward_epe
from .baselines import approx_contributions, backward_epe_alternative, plug_in_estimate
from .bidirectional import BidirectionalConfig, bidirectional_epe
from .errors import ContractViolation
from .forward import ForwardConfig, forward_epe
from .instances import EnsembleSpec, density_for_case, generate_instance
from .model import CountingSampler, EstimateReport, ProblemInstance, exact_value

CSV_HEADER = "S,p,algorithm,seed,samples_used,linf_error,mean_relative_error,zero_value_states,encountered_size,iterations,wall_time_ms"

# The parameter keys of each algorithm: (required, optional).
ALGORITHM_PARAMS = {
    "forward": ({"T", "m"}, set()),
    "backward": ({"epsilon", "n"}, set()),
    "bidirectional": ({"n_B", "n_F"}, {"epsilon", "termination_mode"}),
    "approx_contributions": ({"epsilon"}, set()),
    "backward_alternative": ({"epsilon", "n"}, set()),
    "plug_in": ({"n"}, set()),
}
ALGORITHM_NAMES = tuple(ALGORITHM_PARAMS)

_EXPR_NAMES = {
    "sqrt": math.sqrt,
    "ceil": math.ceil,
    "floor": math.floor,
    "log": math.log,
    "min": min,
    "max": max,
}

_EXPR_OPERATORS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.Pow: operator.pow,
}


def _eval_expr(node, S: int) -> float:
    """Every value is a float, so no expression builds a huge integer: a
    power out of float range raises ``OverflowError`` at once."""
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)) and not isinstance(node.value, bool):
        return float(node.value)
    if isinstance(node, ast.Name) and node.id == "S":
        return float(S)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return -_eval_expr(node.operand, S)
    if isinstance(node, ast.BinOp) and type(node.op) in _EXPR_OPERATORS:
        return _EXPR_OPERATORS[type(node.op)](_eval_expr(node.left, S), _eval_expr(node.right, S))
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _EXPR_NAMES
        and not node.keywords
    ):
        return float(_EXPR_NAMES[node.func.id](*(_eval_expr(arg, S) for arg in node.args)))
    raise ContractViolation(f"{ast.unparse(node)!r} is not allowed in a parameter expression")


def eval_param(value, S: int) -> float:
    """Evaluate a parameter that may be a number (int or float, not bool)
    or a string expression in S; a number reads as a one-constant expression.

    Expressions are read, not executed: numbers, ``S``, ``+ - * / **``,
    unary minus and calls of the names in ``_EXPR_NAMES`` are allowed, all
    evaluated in floats; anything else, and a result that is not finite,
    raises :class:`ContractViolation`.
    """
    if isinstance(value, str):
        try:
            node = ast.parse(value, mode="eval").body
        except SyntaxError as exc:
            raise ContractViolation(f"cannot parse parameter expression {value!r}: {exc.msg}") from None
    else:
        node = ast.Constant(value)
    try:
        result = _eval_expr(node, S)
    except ContractViolation:
        raise
    except (ArithmeticError, ValueError, TypeError) as exc:
        raise ContractViolation(f"parameter {value!r} failed: {exc}") from None
    if not math.isfinite(result):
        raise ContractViolation(f"parameter {value!r} is not finite: {result!r}")
    return result


def count_param(value, S: int) -> int:
    """Like eval_param but for counts: ceil fractional values, keep exact
    integers (within float fuzz) as they are."""
    v = eval_param(value, S)
    nearest = round(v)
    if abs(v - nearest) < 1e-9:
        return int(nearest)
    return int(math.ceil(v))


@dataclass(frozen=True)
class AlgorithmSpec:
    name: str
    params: dict

    def __post_init__(self):
        if self.name not in ALGORITHM_PARAMS:
            raise ContractViolation(f"unknown algorithm {self.name!r}; expected one of {ALGORITHM_NAMES}")
        required, optional = ALGORITHM_PARAMS[self.name]
        missing, unknown = required - self.params.keys(), self.params.keys() - required - optional
        if missing:
            raise ContractViolation(f"{self.name} needs the parameter {min(missing)!r}")
        if unknown:
            raise ContractViolation(f"{self.name} takes no parameter {min(unknown)!r}; it takes {sorted(required | optional)}")


def algorithm_run(spec: AlgorithmSpec, S: int):
    """The run of ``spec`` at size S, a function of the sampler that returns
    the :class:`EstimateReport`. Its parameter values are converted here,
    so an expression that does not parse, or a value that the algorithm's
    config object refuses, raises :class:`ContractViolation` at once."""
    p = spec.params
    if spec.name == "forward":
        config = ForwardConfig(T=count_param(p["T"], S), m=count_param(p["m"], S))
        return lambda sampler: forward_epe(sampler, config)
    if spec.name == "bidirectional":
        eps = None if p.get("epsilon") is None else eval_param(p["epsilon"], S)
        mode = p.get("termination_mode", "fixed")
        config = BidirectionalConfig(eps, count_param(p["n_B"], S), count_param(p["n_F"], S), mode)
        return lambda sampler: bidirectional_epe(sampler, config)
    if spec.name == "plug_in":
        n = count_param(p["n"], S)
        return lambda sampler: plug_in_estimate(sampler, n)
    epsilon = eval_param(p["epsilon"], S)
    if spec.name == "approx_contributions":
        return lambda sampler: approx_contributions(sampler.instance, epsilon, sampler.derive("tie_break"))
    n = count_param(p["n"], S)
    if spec.name == "backward":
        return lambda sampler: backward_epe(sampler, epsilon, n)
    return lambda sampler: backward_epe_alternative(sampler, epsilon, n)


# The types of the fields of a config document, of an ensemble and of an
# algorithm entry. A float field takes an int too; no field takes a bool.
# The fields in _OPTIONAL may be left out, and one that is null reads as absent.
_CONFIG_FIELDS = {"master_seed": int, "trials": int, "output": str, "ensembles": list, "algorithms": list}
_ENSEMBLE_FIELDS = {"S": int, "p": float, "alpha": float, "cost_model": str, "H": int}
_ALGORITHM_FIELDS = {"name": str, "params": dict}
_OPTIONAL = {"output", "cost_model", "H", "params"}
_TYPE_WORDS = {int: "an integer", float: "a number", str: "a string", list: "a list", dict: "an object"}


def _read_fields(doc, kinds: dict, where: str = "") -> dict:
    """The fields of the JSON object ``doc`` that are set; ``where`` names
    its place in the config ("ensembles[0]", say), "" for the top level.
    An unknown field, a missing required one, or a value of the wrong type
    raises :class:`ContractViolation` naming the field."""
    at = f"{where}: " if where else ""
    if not isinstance(doc, dict):
        raise ContractViolation(f"{where or 'a config'} must be an object, got {doc!r}")
    unknown = doc.keys() - kinds.keys()
    if unknown:
        raise ContractViolation(f"{at}config field {min(unknown)!r} is unknown; the fields are {sorted(kinds)}")
    out = {}
    for key, kind in kinds.items():
        value = doc.get(key)
        if key in _OPTIONAL and value is None:
            continue
        if key not in doc:
            raise ContractViolation(f"{at}config field {key!r} is missing")
        if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
            raise ContractViolation(f"{at}config field {key!r} must be {_TYPE_WORDS[kind]}, got {value!r}")
        out[key] = value
    return out


@dataclass(frozen=True)
class ExperimentConfig:
    ensembles: tuple
    algorithms: tuple
    trials: int
    master_seed: int
    output: str | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise ContractViolation(f"trials must be >= 1, got {self.trials}")
        # Instance streams, summaries and bound reports are keyed by S alone.
        sizes = [e.S for e in self.ensembles]
        if len(set(sizes)) != len(sizes):
            raise ContractViolation(f"two ensembles share one S (sizes {sizes}); sweep alpha in separate configs")
        # Parameter values are checked now, not inside a trial.
        for spec in self.algorithms:
            for S in sizes:
                try:
                    algorithm_run(spec, S)
                except ContractViolation as exc:
                    raise ContractViolation(f"{spec.name} at S={S}: {exc}") from None

    def to_dict(self) -> dict:
        return {
            "master_seed": self.master_seed,
            "trials": self.trials,
            "output": self.output,
            "ensembles": [{k: v for k, v in asdict(e).items() if v is not None} for e in self.ensembles],
            "algorithms": [{"name": a.name, "params": a.params} for a in self.algorithms],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        """The config of a JSON document. An unknown or missing field, or a
        value of the wrong type (a count that is not an integer, say, or any
        bool), raises :class:`ContractViolation` naming the field."""
        top = _read_fields(doc, _CONFIG_FIELDS)
        ensembles = [_read_fields(e, _ENSEMBLE_FIELDS, f"ensembles[{i}]") for i, e in enumerate(top["ensembles"])]
        algorithms = [_read_fields(a, _ALGORITHM_FIELDS, f"algorithms[{i}]") for i, a in enumerate(top["algorithms"])]
        top["ensembles"] = tuple(EnsembleSpec(**e) for e in ensembles)
        top["algorithms"] = tuple(AlgorithmSpec(a["name"], dict(a.get("params", {}))) for a in algorithms)
        return cls(**top)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ContractViolation(f"{path} is not JSON: {exc}") from None
        return cls.from_dict(doc)

    def save_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)


@dataclass
class TrialRecord:
    S: int
    p: float
    algorithm: str
    seed: int
    samples_used: int
    linf_error: float
    mean_relative_error: float
    zero_value_states: int
    encountered_size: int | None
    iterations: int
    wall_time_ms: int


def run_algorithm(spec: AlgorithmSpec, instance: ProblemInstance, sampler: CountingSampler) -> EstimateReport:
    """Dispatch one algorithm run; all randomness comes from the sampler."""
    return algorithm_run(spec, instance.S)(sampler)


def trial_metrics(estimate: np.ndarray, truth: np.ndarray, threshold: float) -> tuple:
    """(sup-norm error, mean relative error over nonzero-value states, skipped count)."""
    linf = float(np.max(np.abs(estimate - truth))) if truth.size else 0.0
    alive = truth > threshold
    skipped = int(np.size(truth) - np.count_nonzero(alive))
    if alive.any():
        rel = float(np.mean(np.abs(estimate[alive] - truth[alive]) / truth[alive]))
    else:
        rel = 0.0
    return linf, rel, skipped


def _run_cell(config: ExperimentConfig, ensemble: EnsembleSpec, trial: int, timing: bool) -> list:
    instance = generate_instance(ensemble, (config.master_seed, "instance", ensemble.S, trial))
    truth = exact_value(instance)
    threshold = 1e-12 * max(instance.cost_inf, 1.0)  # far above the truth's certified error
    records = []
    for spec in config.algorithms:
        sampler = CountingSampler(instance, (config.master_seed, "run", ensemble.S, trial, spec.name))
        started = time.perf_counter()
        report = run_algorithm(spec, instance, sampler)
        elapsed_ms = int(round((time.perf_counter() - started) * 1000.0)) if timing else 0
        if report.samples_used != sampler.draw_count:
            raise ContractViolation(
                f"{spec.name}: reported samples_used={report.samples_used} but sampler counted {sampler.draw_count}"
            )
        linf, rel, skipped = trial_metrics(report.estimate, truth, threshold)
        records.append(
            TrialRecord(
                S=ensemble.S,
                p=ensemble.p,
                algorithm=spec.name,
                seed=trial,
                samples_used=report.samples_used,
                linf_error=linf,
                mean_relative_error=rel,
                zero_value_states=skipped,
                encountered_size=report.encountered_size,
                iterations=report.iterations,
                wall_time_ms=elapsed_ms,
            )
        )
    return records


def worker_count(threads: int | None = None) -> int:
    if threads is not None:
        return max(1, int(threads))
    env = os.environ.get("EPE_THREADS")
    if env:
        return max(1, int(env))
    return 1


def run_experiment(config: ExperimentConfig, threads: int | None = None, timing: bool = False) -> list:
    """Run every (ensemble, algorithm, trial) cell; deterministic given config."""
    jobs = [(ens, trial) for ens in config.ensembles for trial in range(config.trials)]
    workers = worker_count(threads)
    if workers == 1:
        results = [_run_cell(config, ens, trial, timing) for ens, trial in jobs]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda job: _run_cell(config, job[0], job[1], timing), jobs))
    records = [rec for cell in results for rec in cell]
    records.sort(key=lambda r: (r.S, r.algorithm, r.seed))
    return records


def table_to_csv(header: str, rows) -> str:
    """CSV text of ``rows``, mappings from column name to value, under
    ``header``, whose comma-separated names fix the column order.

    A cell is ``str`` of its value, or empty for None. For a Python float
    ``str`` is the shortest text that reads back as the same float.
    """
    names = header.split(",")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(names)
    for row in rows:
        writer.writerow(["" if row[name] is None else str(row[name]) for name in names])
    return buf.getvalue()


def records_to_csv(records) -> str:
    return table_to_csv(CSV_HEADER, map(asdict, records))


def write_csv(records, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(records_to_csv(records))


_CELL_PARSERS = {"int": int, "float": float, "str": str, "int | None": lambda cell: int(cell) if cell else None}


def read_csv(path) -> list:
    """Trial records from a CSV written by :func:`write_csv`; each cell is
    parsed by the type of its :class:`TrialRecord` field."""
    parsers = {f.name: _CELL_PARSERS[f.type] for f in fields(TrialRecord)}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != CSV_HEADER.split(","):
            raise ContractViolation(f"unexpected CSV header in {path}")
        records = []
        for row in reader:
            # A short row's missing cells read None; a long row's extras sit under the key None.
            if None in row or None in row.values():
                raise ContractViolation(f"{path}, line {reader.line_num}: expected {len(parsers)} cells")
            cells = {}
            for name, parse in parsers.items():
                try:
                    cells[name] = parse(row[name])
                except ValueError:
                    where = f"{path}, line {reader.line_num}, column {name}"
                    raise ContractViolation(f"{where}: cannot parse {row[name]!r}") from None
            records.append(TrialRecord(**cells))
        return records


SUMMARY_HEADER = (
    "S,algorithm,trials,samples_mean,samples_std,linf_mean,linf_std,rel_mean,rel_std,"
    "ratio_backward_over_forward,loglog_slope"
)


def loglog_slope(sizes, means) -> float:
    """Least-squares slope of log(mean) against log(S)."""
    x = np.log(np.asarray(sizes, dtype=float))
    y = np.log(np.asarray(means, dtype=float))
    x = x - x.mean()
    return float((x @ (y - y.mean())) / (x @ x))


def summarize(records) -> list:
    """Aggregate per (S, algorithm); adds backward/forward sample ratios per S
    and a per-algorithm log-log slope of mean samples against S."""
    if not records:
        raise ContractViolation("no records to summarize")
    cells: dict = {}
    for rec in records:
        cells.setdefault((rec.S, rec.algorithm), []).append(rec)

    sample_means = {key: float(np.mean([r.samples_used for r in recs])) for key, recs in cells.items()}
    slopes = {}
    for algorithm in {alg for _, alg in cells}:
        sizes = sorted(S for S, alg in cells if alg == algorithm)
        means = [sample_means[(S, algorithm)] for S in sizes]
        if len(sizes) >= 2 and all(m > 0 for m in means):
            slopes[algorithm] = loglog_slope(sizes, means)

    rows = []
    for (S, algorithm) in sorted(cells):
        recs = cells[(S, algorithm)]
        samples = np.array([r.samples_used for r in recs], dtype=float)
        linf = np.array([r.linf_error for r in recs])
        rel = np.array([r.mean_relative_error for r in recs])
        ratio = None
        # A forward run of T = 1 makes no draws; its ratio is left empty.
        if algorithm == "backward" and sample_means.get((S, "forward")):
            ratio = sample_means[(S, "backward")] / sample_means[(S, "forward")]
        rows.append(
            {
                "S": S,
                "algorithm": algorithm,
                "trials": len(recs),
                "samples_mean": float(samples.mean()),
                "samples_std": float(samples.std()),
                "linf_mean": float(linf.mean()),
                "linf_std": float(linf.std()),
                "rel_mean": float(rel.mean()),
                "rel_std": float(rel.std()),
                "ratio_backward_over_forward": ratio,
                "loglog_slope": slopes.get(algorithm),
            }
        )
    return rows


BOUND_HEADER = "S,p,H,epsilon,alpha,trials,mean_encountered,bound,passed"


def bound_report(records, config: ExperimentConfig) -> list:
    """Check mean encountered-set size against S * c_bar * d_bar / (eps (1-alpha)).

    c_bar is the ensemble's expected per-state cost (H/S binary, 3p/2S
    mixed); d_bar is the realized average in-degree, recovered by
    regenerating each trial's instance from the config seeds.
    """
    backward_specs = [a for a in config.algorithms if a.name == "backward"]
    if not backward_specs:
        raise ContractViolation("bound report needs at least one backward algorithm in the config")
    by_cell: dict = {}
    for rec in records:
        if rec.algorithm == "backward":
            by_cell.setdefault(rec.S, []).append(rec)

    rows = []
    for ensemble in config.ensembles:
        recs = by_cell.get(ensemble.S)
        if not recs:
            continue
        seeds = [(config.master_seed, "instance", ensemble.S, rec.seed) for rec in recs]
        realized_dbar = float(np.mean([generate_instance(ensemble, seed).supergraph.avg_degree for seed in seeds]))
        c_bar = ensemble.H / ensemble.S if ensemble.cost_model == "binary" else 1.5 * ensemble.p / ensemble.S
        epsilon = eval_param(backward_specs[0].params["epsilon"], ensemble.S)
        bound = ensemble.S * c_bar * realized_dbar / (epsilon * (1.0 - ensemble.alpha))
        mean_enc = float(np.mean([r.encountered_size for r in recs]))
        rows.append(
            {
                "S": ensemble.S,
                "p": ensemble.p,
                "H": ensemble.H,
                "epsilon": epsilon,
                "alpha": ensemble.alpha,
                "trials": len(recs),
                "mean_encountered": mean_enc,
                "bound": bound,
                "passed": mean_enc <= bound,
            }
        )
    return rows


DEFAULT_MASTER_SEED = 20260808


def fig1_config(
    S_values=(100, 200, 400),
    alpha: float = 0.1,
    p: float = 10.0,
    trials: int = 100,
    master_seed: int = DEFAULT_MASTER_SEED,
    case: str = "case1",
) -> ExperimentConfig:
    """Relative-complexity sweep: cheap backward pushes against a fixed
    forward budget of 4 length-10 trajectories per state."""
    return ExperimentConfig(
        ensembles=tuple(EnsembleSpec(S=S, p=density_for_case(case, S, p), alpha=alpha) for S in S_values),
        algorithms=(
            AlgorithmSpec("backward", {"epsilon": 0.15, "n": 20}),
            AlgorithmSpec("forward", {"T": 10, "m": 4}),
        ),
        trials=trials,
        master_seed=master_seed,
    )


def fig2_config(
    S_values=(100, 200, 400, 800),
    alpha: float = 0.9,
    p: float = 10.0,
    trials: int = 50,
    master_seed: int = DEFAULT_MASTER_SEED,
) -> ExperimentConfig:
    """Scaling sweep at matched relative error: per-size parameter schedules
    for all three estimators, bidirectional with the dynamic stop."""
    return ExperimentConfig(
        ensembles=tuple(EnsembleSpec(S=S, p=p, alpha=alpha) for S in S_values),
        algorithms=(
            AlgorithmSpec("forward", {"T": 15, "m": "0.05*S"}),
            AlgorithmSpec("backward", {"epsilon": "10/S", "n": "S"}),
            AlgorithmSpec(
                "bidirectional",
                {"n_B": "S", "n_F": "1.5*sqrt(S)", "termination_mode": "dynamic"},
            ),
        ),
        trials=trials,
        master_seed=master_seed,
    )
