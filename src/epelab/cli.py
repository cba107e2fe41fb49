"""Command line entry points.

Subcommands: generate (emit an instance JSON), run (config JSON -> trial
CSV), summarize (trial CSV -> aggregate CSV), bounds (trial CSV + config
-> encountered-set bound table), calc (print sample-size formulas).

EPE_THREADS caps the worker pool for `run`; --seed overrides the config's
master seed. A refused input, such as a config with an unknown field,
prints ``epelab: <message>`` to stderr and exits with status 2.
"""

from __future__ import annotations

import argparse
import sys

from .bidirectional import sample_size_backward_bd, sample_size_forward_bd
from .backward import sample_size_backward
from .errors import ContractViolation
from .forward import sample_size_forward
from .harness import (
    BOUND_HEADER,
    SUMMARY_HEADER,
    ExperimentConfig,
    bound_report,
    read_csv,
    records_to_csv,
    run_experiment,
    summarize,
    table_to_csv,
)
from .instances import EnsembleSpec, generate_instance
from .model import save_instance


def _cmd_generate(args) -> int:
    spec = EnsembleSpec(args.S, args.p, args.alpha, args.cost_model, args.H)
    save_instance(generate_instance(spec, args.seed), args.out)
    print(f"wrote instance S={args.S} to {args.out}")
    return 0


def _write_or_print(text: str, out, what: str) -> None:
    """Write ``text`` to the file ``out`` and say so, or print it if no file is named."""
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        print(f"wrote {what} to {out}")
    else:
        sys.stdout.write(text)


def _cmd_run(args) -> int:
    config = ExperimentConfig.from_json(args.config)
    if args.seed is not None:
        config = ExperimentConfig.from_dict({**config.to_dict(), "master_seed": args.seed})
    records = run_experiment(config, threads=args.threads, timing=args.timing)
    _write_or_print(records_to_csv(records), args.out or config.output, f"{len(records)} records")
    return 0


def _cmd_summarize(args) -> int:
    _write_or_print(table_to_csv(SUMMARY_HEADER, summarize(read_csv(args.csv))), args.out, "summary")
    return 0


def _cmd_bounds(args) -> int:
    config = ExperimentConfig.from_json(args.config)
    rows = bound_report(read_csv(args.csv), config)
    _write_or_print(table_to_csv(BOUND_HEADER, rows), args.out, "bound report")
    return 0


def _cmd_calc(args) -> int:
    n = sample_size_backward(args.epsilon, args.delta, args.alpha, args.c_inf, args.S)
    T, m = sample_size_forward(args.epsilon, args.delta, args.alpha, args.c_inf, args.S)
    print(f"backward n*        = {n}")
    print(f"forward (T, m)     = ({T}, {m})")
    if args.epsilon_rel is not None and args.epsilon_abs is not None:
        n_f = sample_size_forward_bd(args.epsilon, args.epsilon_rel, args.epsilon_abs, args.delta, args.S)
        print(f"bidirectional n_F* = {n_f}")
        if args.q_min is not None:
            n_b = sample_size_backward_bd(
                args.epsilon_rel, args.epsilon_abs, args.delta, args.alpha, args.c_inf, args.S, args.q_min
            )
            print(f"bidirectional n_B* = {n_b}")
        else:
            print("bidirectional n_B* = (supply --q-min)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="epelab", description="Policy-evaluation sample-complexity lab")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="emit a random instance as JSON")
    gen.add_argument("--S", type=int, required=True)
    gen.add_argument("--p", type=float, required=True)
    gen.add_argument("--alpha", type=float, required=True)
    gen.add_argument("--cost-model", dest="cost_model", choices=("mixed", "binary"), default="mixed")
    gen.add_argument("--H", type=int, default=None, help="ones count for the binary cost model")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_generate)

    run = sub.add_parser("run", help="run an experiment config to CSV")
    run.add_argument("--config", required=True)
    run.add_argument("--out", default=None, help="override the config's output path")
    run.add_argument("--seed", type=int, default=None, help="override the config's master seed")
    run.add_argument("--threads", type=int, default=None, help="worker count (default: EPE_THREADS or 1)")
    run.add_argument("--timing", action="store_true", help="record real wall times (breaks byte determinism)")
    run.set_defaults(func=_cmd_run)

    summ = sub.add_parser("summarize", help="aggregate a trial CSV")
    summ.add_argument("--csv", required=True)
    summ.add_argument("--out", default=None)
    summ.set_defaults(func=_cmd_summarize)

    bounds = sub.add_parser("bounds", help="encountered-set bound table from a trial CSV")
    bounds.add_argument("--csv", required=True)
    bounds.add_argument("--config", required=True)
    bounds.add_argument("--out", default=None)
    bounds.set_defaults(func=_cmd_bounds)

    calc = sub.add_parser("calc", help="print sample-size formulas for given parameters")
    calc.add_argument("--epsilon", type=float, required=True)
    calc.add_argument("--delta", type=float, required=True)
    calc.add_argument("--alpha", type=float, required=True)
    calc.add_argument("--c-inf", dest="c_inf", type=float, required=True)
    calc.add_argument("--S", type=int, required=True)
    calc.add_argument("--epsilon-rel", dest="epsilon_rel", type=float, default=None)
    calc.add_argument("--epsilon-abs", dest="epsilon_abs", type=float, default=None)
    calc.add_argument("--q-min", dest="q_min", type=float, default=None)
    calc.set_defaults(func=_cmd_calc)

    return parser


def main(argv=None) -> int:
    """Run one subcommand. A refused input (a :class:`ContractViolation`)
    prints ``epelab: <message>`` to stderr and returns 2."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ContractViolation as exc:
        print(f"epelab: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
