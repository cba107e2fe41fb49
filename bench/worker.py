"""One benchmark process: import epelab, build a workload, run trials.

Started by ``run.py`` in a fresh interpreter for every measurement, so
each run pays interpreter start, ``import epelab`` and config build once,
and ``ru_maxrss`` is this workload's own peak. Prints one JSON object as
its last line of output.

    PYTHONPATH=src python3 bench/worker.py --workload fig2_walks --seed 1 --seconds 30
    PYTHONPATH=src python3 bench/worker.py --workload fig2_walks --seed 1 --trials 3 --trace 1
    PYTHONPATH=src python3 bench/worker.py --workload fig2_walks --setup-only
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

import epelab  # noqa: E402  (run.py puts the checkout's src on PYTHONPATH)
from workloads import WORKLOADS, check_trial, csv_digest, trial_config  # noqa: E402


# The host's speed drifts: on a shared machine a fixed pure-Python loop
# runs up to 1.7 times slower in some minutes than in others, in wall and
# CPU time alike. A fixed snippet timed every PROBE_EVERY_S during each
# trial measures that speed; a trial's reference seconds are its wall
# seconds scaled by how fast the snippet ran, so that they stay comparable
# across runs. One reference second is the time in which the snippet runs
# once per SNIPPET_REF_S.
PROBE_EVERY_S = 0.05
SNIPPET_REF_S = 50e-6


def _snippet():
    table = {}
    for i in range(300):
        table[i & 31] = table.get(i & 15, 0) + i * 3


class HostSpeed:
    """Times the snippet from a SIGALRM handler while it is entered. The
    handler runs between bytecodes, draws no random numbers and touches no
    state of the package."""

    def __init__(self):
        self.samples: list[float] = []

    def probe(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        _snippet()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def reference_seconds(self, wall_s: float, since: int) -> float:
        """``wall_s`` of work that began when ``since`` samples existed,
        minus the probes' own time, at the reference speed."""
        samples = self.samples[since:]
        probes_s = sum(samples)
        if not samples:
            self.probe()
            samples = self.samples[-1:]
        return (wall_s - probes_s) * statistics.fmean(SNIPPET_REF_S / t for t in samples)


def run_trials(workload, base, seed: int, seconds: float, trials: int | None, run_experiment, smoke: bool, tracer=None):
    """Closed loop, one trial at a time. With ``trials`` set, run exactly
    that many; otherwise stop once the next trial would end more than half
    a trial past ``seconds``."""
    times, ref_times, digests, problems = [], [], [], []
    failed = 0
    started = time.perf_counter()
    index = 0
    with HostSpeed() as host:
        while True:
            if trials is not None:
                if index >= trials:
                    break
            elif times and time.perf_counter() - started + 0.5 * statistics.median(times) > seconds:
                break
            config = trial_config(base, seed, index)
            if tracer is not None:
                tracer.trial_id = index
            since = len(host.samples)
            t0 = time.perf_counter()
            try:
                records = run_experiment(config)
            except Exception as exc:  # a raising trial is counted as failed and the run goes on
                elapsed = time.perf_counter() - t0
                found = [f"{type(exc).__name__}: {exc}"]
            else:
                elapsed = time.perf_counter() - t0
                found = check_trial(workload, config, records, smoke)
                digests.append(csv_digest(records))
            times.append(elapsed)
            ref_times.append(host.reference_seconds(elapsed, since))
            if found:
                failed += 1
                problems.extend(f"trial {index}: {p}" for p in found)
            index += 1
        loop_s = time.perf_counter() - started
    return {
        "attempted": index,
        "failed": failed,
        "loop_s": loop_s,
        "trial_s": times,
        "trial_ref_s": ref_times,
        "snippet_us": statistics.median(host.samples) * 1e6,
        "digests": digests,
        "problems": problems,
    }


def machine_facts() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trials", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if Path(epelab.__file__).resolve().parent != ROOT / "src" / "epelab":
        sys.exit(f"epelab was imported from {epelab.__file__}, not from this checkout's src/")

    workload = WORKLOADS[args.workload]
    base = workload.config(smoke=args.smoke)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    run_experiment = epelab.run_experiment
    tracer = None
    if args.trace:
        from spans import Tracer, install, layer_metrics

        tracer = Tracer()
        install(tracer)
        run_experiment = tracer.wrap(run_experiment, "harness.run_experiment")

    result = run_trials(workload, base, args.seed, args.seconds, args.trials, run_experiment, args.smoke, tracer)
    result["ready"] = ready
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["machine"] = machine_facts()
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, result["attempted"])
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        tracer.save(out / f"spans-{args.workload}.npz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
