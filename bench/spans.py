"""Span tracing from outside the package, and the per-layer metrics.

The tracer replaces public functions at the module attributes where the
package looks them up (``epelab.harness.generate_instance`` and so on)
with wrappers that record a span (name, start, end, parent, trial) and a
few work counts, then call the original. The wrappers draw no random
numbers and change no arguments, so a traced trial's CSV must be
byte-identical to the untraced one. Spans are kept in flat arrays and
written out with ``Tracer.save``.

Self time of a span is its duration minus the durations of its direct
children; calls are synchronous and single-threaded, so children never
overlap.
"""

from __future__ import annotations

import time
from array import array

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.trial = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, float] = {}
        self.trial_id = -1
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def count(self, key: str, amount) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, fn, name: str, on_return=None):
        """``fn`` recorded as span ``name``; ``on_return(tracer, args,
        kwargs, result)`` adds work counts after a successful call."""
        nid = self.name_id(name)
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.trial.append(self.trial_id)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if on_return is not None:
                on_return(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "trial": np.frombuffer(self.trial, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def _count_calls(key):
    def on_return(tracer, args, kwargs, result):
        tracer.count(key, 1)

    return on_return


def _count_batch(tracer, args, kwargs, result):
    tracer.count("model.sample_next_batch.draws", len(result))


def _count_row(tracer, args, kwargs, result):
    tracer.count("model.sample_empirical_row.calls", 1)
    tracer.count("model.sample_empirical_row.draws", args[2] if len(args) > 2 else kwargs["n"])


def _count_pushes(tracer, args, kwargs, result):
    tracer.count("push.pushes", result.iterations)


def _count_forward(tracer, args, kwargs, result):
    tracer.count("forward.draws", result.samples_used)


def _count_walks(tracer, args, kwargs, result):
    tracer.count("bidirectional.walk_steps_charged", result.diagnostics.get("forward_true_draws", 0))
    tracer.count("bidirectional.walk_steps_free", result.diagnostics.get("forward_free_draws", 0))


def install(tracer: Tracer):
    """Wrap the package's layer boundaries for the rest of the process."""
    from epelab import backward, baselines, bidirectional, harness, model

    targets = [
        (harness, "generate_instance", "instances.generate_instance", None),
        (harness, "exact_value", "model.exact_value", None),
        (harness, "forward_epe", "forward.forward_epe", _count_forward),
        (harness, "backward_epe", "backward.backward_epe", None),
        (harness, "bidirectional_epe", "bidirectional.bidirectional_epe", _count_walks),
        (harness, "approx_contributions", "baselines.approx_contributions", None),
        (harness, "backward_epe_alternative", "baselines.backward_epe_alternative", None),
        (harness, "plug_in_estimate", "bidirectional.plug_in_estimate", None),
        (bidirectional, "run_backward", "backward.run_backward", None),
        (backward, "run_push_loop", "push.run_push_loop", _count_pushes),
        (baselines, "run_push_loop", "push.run_push_loop", _count_pushes),
        (model.CountingSampler, "sample_next", "model.sample_next", _count_calls("model.sample_next.draws")),
        (model.CountingSampler, "sample_next_batch", "model.sample_next_batch", _count_batch),
        (model.CountingSampler, "sample_empirical_row", "model.sample_empirical_row", _count_row),
        (model.CountingSampler, "spawn", "model.spawn", _count_calls("model.spawn.calls")),
    ]
    for owner, attr, name, on_return in targets:
        setattr(owner, attr, tracer.wrap(owner.__dict__[attr], name, on_return))


def layer_metrics(tracer: Tracer, trials: int) -> dict:
    """Per-layer metrics, as means per traced trial (times in s, counts
    in units of work) plus costs per unit of work and shares of the
    traced trial's wall time."""
    a = tracer.arrays()
    dur = a["end"] - a["start"]
    parent = a["parent"]
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    self_time = dur - child_time
    ids = {name: i for i, name in enumerate(tracer.names)}

    def of(name):
        return a["name"] == ids[name] if name in ids else np.zeros(dur.size, dtype=bool)

    def total(name):
        return float(dur[of(name)].sum())

    def self_total(name):
        return float(self_time[of(name)].sum())

    def per_unit(seconds, units, scale=1e6):
        return seconds * scale / units if units else 0.0

    counts = tracer.counts
    trial_s = total("harness.run_experiment")

    is_backward_child = of("backward.run_backward") & has_parent
    backward_in_bd = np.bincount(parent[is_backward_child], weights=dur[is_backward_child], minlength=dur.size)
    bd = of("bidirectional.bidirectional_epe")
    walk_s = float((dur[bd] - backward_in_bd[bd]).sum())
    backward_stage_s = float(backward_in_bd[bd].sum())
    charged = counts.get("bidirectional.walk_steps_charged", 0)
    free = counts.get("bidirectional.walk_steps_free", 0)

    draws = counts.get("model.sample_next.draws", 0)
    batch_draws = counts.get("model.sample_next_batch.draws", 0)
    pushes = counts.get("push.pushes", 0)
    row_calls = counts.get("model.sample_empirical_row.calls", 0)
    forward_s = total("forward.forward_epe")
    push_s = total("push.run_push_loop")

    per_trial = {
        "harness.traced_trial_s": trial_s,
        "instances.generate_s": total("instances.generate_instance"),
        "model.exact_value_s": total("model.exact_value"),
        "model.sample_next.draws": draws,
        "model.spawn.calls": counts.get("model.spawn.calls", 0),
        "bidirectional.walk_stage_s": walk_s,
        "bidirectional.backward_stage_s": backward_stage_s,
        "bidirectional.walk_steps_charged": charged,
        "bidirectional.walk_steps_free": free,
        "model.sample_next_batch.draws": batch_draws,
        "forward.forward_epe_s": forward_s,
        "push.pushes": pushes,
        "model.sample_empirical_row.draws": counts.get("model.sample_empirical_row.draws", 0),
        "backward.backward_epe_s": total("backward.backward_epe"),
        "baselines.approx_contributions_s": total("baselines.approx_contributions"),
        "baselines.backward_epe_alternative_s": total("baselines.backward_epe_alternative"),
        "harness.overhead_s": self_total("harness.run_experiment"),
    }
    out = {name: value / trials for name, value in per_trial.items()}
    out.update(
        {
            "model.sample_next.us_per_draw": per_unit(self_total("model.sample_next"), draws),
            "bidirectional.us_per_walk_step": per_unit(walk_s, charged + free),
            "bidirectional.free_step_ratio": free / (charged + free) if charged + free else 0.0,
            "model.sample_next_batch.us_per_draw": per_unit(self_total("model.sample_next_batch"), batch_draws),
            "forward.us_per_draw": per_unit(forward_s, counts.get("forward.draws", 0)),
            "push.us_per_push": per_unit(self_total("push.run_push_loop"), pushes),
            "model.sample_empirical_row.us_per_call": per_unit(self_total("model.sample_empirical_row"), row_calls),
            "bidirectional.walk_stage_frac": walk_s / trial_s if trial_s else 0.0,
            "forward.forward_epe_frac": forward_s / trial_s if trial_s else 0.0,
            "push.push_loop_frac": push_s / trial_s if trial_s else 0.0,
        }
    )
    return out
