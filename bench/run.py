"""epelab benchmark: closed-loop trials of one workload, measured from outside.

    python3 bench/run.py --workload fig2_walks --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

Each measurement runs ``bench/worker.py`` in a fresh single-threaded
process (one harness worker, BLAS pinned to one thread) with the
checkout's ``src`` on ``PYTHONPATH``. One client runs one trial at a time;
a trial is one ``epelab.run_experiment`` call with ``trials=1``.

``--trace 0`` reports the end-to-end metrics listed in BENCHMARK.json:
trials per reference second and the median trial time in reference
seconds (wall time scaled by the host's measured speed, see
``worker.HostSpeed``), set-up time (process start to the first trial:
interpreter start, ``import epelab``, config build; the median of several
fresh processes) and the worker's peak RSS. It also prints the wall-time
forms, trials per second and the median trial wall time.

``--trace 1`` runs the same trials twice, first untraced for half of
``--seconds`` and then traced (see ``spans.py``), and reports the
per-layer metrics, the tracing overhead, and whether the two runs'
per-trial CSV digests agree.

Every trial must pass the harness's draw-accounting check and the checks
in ``workloads.check_trial``; a trial that raises or fails one is counted
in ``failed`` and the run goes on. The last line of output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. The
process exits non-zero, printing no result, when the checkout has no
``src/epelab`` or a worker process fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_PROBES = 3
RUN_TIMEOUT_S = 170  # every worker of one run must end within this
STARTED = time.monotonic()
SMOKE_TRIALS = 2


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("EPE_THREADS", "PYTHONPATH")}
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(*args: str) -> tuple:
    """(result dict, monotonic time just before the process was started)."""
    started = time.monotonic()
    timeout = RUN_TIMEOUT_S - (started - STARTED)
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT,
        env=worker_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {' '.join(args)} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), started


def end_to_end(workload: str, seed: int, seconds: float, trials: int | None = None, smoke: bool = False) -> tuple:
    """(metrics, run summary) for an untraced run plus set-up probes."""
    common = ["--workload", workload] + (["--smoke"] if smoke else [])

    def probe_setup():
        probe, started = run_worker(*common, "--setup-only")
        return probe["ready"] - started

    # Probes before and after the measuring process sample the host's
    # speed at two times; on a shared host it drifts over minutes.
    setups = [probe_setup() for _ in range(SETUP_PROBES)]
    budget = ["--trials", str(trials)] if trials is not None else ["--seconds", str(seconds)]
    result, started = run_worker(*common, "--seed", str(seed), *budget)
    setups.append(result["ready"] - started)
    setups += [probe_setup() for _ in range(SETUP_PROBES)]
    done = result["attempted"] - result["failed"]
    metrics = {
        "trials_per_ref_s": done / sum(result["trial_ref_s"]),
        "trial_ref_s_p50": statistics.median(result["trial_ref_s"]),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    wall = {
        "trials_per_s": (done / result["loop_s"], "1/s"),
        "trial_s_p50": (statistics.median(result["trial_s"]), "s"),
        "host.snippet_us": (result["snippet_us"], "us"),
    }
    return metrics, wall, result


def higher_percentiles(times, name: str, unit: str) -> dict:
    """Percentiles reported only when at least ten samples lie beyond them."""
    out = {}
    for pct in (90, 99):
        if len(times) * (100 - pct) / 100 >= 10:
            out[name.replace("p50", f"p{pct}")] = (statistics.quantiles(times, n=100)[pct - 1], unit)
    return out


def traced(workload: str, seed: int, seconds: float, trials: int | None = None, smoke: bool = False) -> tuple:
    """(metrics, untraced summary, traced summary) over the same trials."""
    common = ["--workload", workload, "--seed", str(seed)] + (["--smoke"] if smoke else [])
    budget = ["--trials", str(trials)] if trials is not None else ["--seconds", str(seconds / 2)]
    plain, _ = run_worker(*common, *budget)
    traced_run, _ = run_worker(*common, "--trials", str(plain["attempted"]), "--trace", "1")
    metrics = dict(traced_run["layers"])
    plain_s, traced_s = sum(plain["trial_s"]), sum(traced_run["trial_s"])
    metrics["harness.trace_overhead_frac"] = (traced_s - plain_s) / plain_s
    metrics["host.snippet_us"] = traced_run["snippet_us"]
    return metrics, plain, traced_run


def report(metrics: dict, kind: str, attempted: int, failed: int, correct: bool, extra=None) -> dict:
    """Print every metric with its unit, then ``extra`` {name: (value,
    unit)}, which the result line leaves out; return the result line's
    object."""
    units = {m["name"]: m["unit"] for m in SPEC[kind]}
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")
    for name, (value, unit) in {**{n: (metrics[n], u) for n, u in units.items()}, **(extra or {})}.items():
        print(f"  {name:42s} {value:14.6g} {unit}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def measure(workload: str, seed: int, seconds: float, trace: int, trials=None, smoke=False) -> dict:
    print(f"workload {workload} seed {seed} trace {trace}")
    if trace:
        metrics, plain, traced_run = traced(workload, seed, seconds, trials, smoke)
        runs = (plain, traced_run)
        extra = {}
        same = plain["digests"] == traced_run["digests"]
        print(f"  csv sha256 per trial, untraced: {plain['digests']}")
        print(f"  csv sha256 per trial, traced:   {traced_run['digests']} ({'identical' if same else 'DIFFERENT'})")
    else:
        metrics, extra, plain = end_to_end(workload, seed, seconds, trials, smoke)
        extra.update(higher_percentiles(plain["trial_ref_s"], "trial_ref_s_p50", "ref_s"))
        extra.update(higher_percentiles(plain["trial_s"], "trial_s_p50", "s"))
        runs = (plain,)
        same = True
        print(f"  csv sha256 of trial 0: {plain['digests'][0] if plain['digests'] else None}")
    print(f"  machine: {json.dumps(plain['machine'])}")
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for run in runs:
        for problem in run["problems"]:
            print(f"  FAILED {problem}")
    print(f"  trials: {attempted} attempted, {failed} failed")
    print(f"  trial seconds: {' '.join(f'{t:.3f}' for t in plain['trial_s'])}")
    print(f"  trial reference seconds: {' '.join(f'{t:.3f}' for t in plain['trial_ref_s'])}")
    extra["trials_failed_frac"] = (failed / attempted, "ratio")
    kind = "per_layer" if trace else "end_to_end"
    return report(metrics, kind, attempted, failed, failed == 0 and same, extra)


def smoke() -> int:
    """Every workload shape once at tiny S, untraced and traced."""
    ok = True
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            # report() raises unless every metric of BENCHMARK.json was computed.
            result = measure(workload, 0, 0.0, trace, trials=SMOKE_TRIALS, smoke=True)
            ok &= all(math.isfinite(m["value"]) for m in result["metrics"].values())
            ok &= result["correct"] and result["failed"] == 0
    print("smoke", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run every workload once at tiny S and check the output")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "epelab" / "__init__.py").is_file():
        sys.stderr.write(f"no epelab package under {ROOT / 'src'}; run from a checkout of the repository\n")
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    result = measure(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
