"""Timing spans and counters wrapped around lisopt's public functions.

The benchmark measures every module from outside: ``Tracer.install`` replaces
each public function with a wrapper under the name its callers actually look
up, and ``Tracer.uninstall`` puts the originals back.  Wrappers pass arguments
and results through untouched, so traced and untraced runs produce the same
bytes.

A span records name, start, end, the span that caused it and the op it
belongs to.  Self time is a span's duration minus the time covered by its
direct children.  Counter bookkeeping runs inside its own ``trace.count`` span
so that it is charged to the tracer, not to the layer that called it.
"""

from __future__ import annotations

import functools
import json
import os
import time

import numpy as np

# Softmin weights below exp(-37) of the largest are < 1e-16 relative and can
# never matter again (see ROADMAP, point retirement).
_RETIRE_LOG_MARGIN = 37.0


class Tracer:
    def __init__(self):
        self.spans = []  # closed spans: (id, name, start, end, parent id, op id)
        self.keep_spans = True  # False: aggregate only, keep no span records
        self.self_time = {}
        self.durations = {}  # name -> list of inclusive durations
        self.counters = {}
        self._stack = []  # open spans: [id, name, start, time covered by children]
        self._next_id = 0
        self._patches = []
        self.op_id = 0

    # -- spans -----------------------------------------------------------

    def _open(self, name):
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])
        self._next_id += 1

    def _close(self):
        end = time.perf_counter()
        span_id, name, start, children = self._stack.pop()
        dur = end - start
        self.self_time[name] = self.self_time.get(name, 0.0) + dur - children
        self.durations.setdefault(name, []).append(dur)
        if self._stack:
            self._stack[-1][3] += dur
        if self.keep_spans:
            parent = self._stack[-1][0] if self._stack else -1
            self.spans.append((span_id, name, start, end, parent, self.op_id))

    def enclosing(self):
        """Name of the innermost open span, or None."""
        return self._stack[-1][1] if self._stack else None

    def enclosing_active(self, name):
        """Whether a span called ``name`` is open."""
        return any(span[1] == name for span in self._stack)

    def add(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name, fn, count=None):
        """``fn`` inside a span; ``count(nested, args, kwargs, result)`` after it."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nested = self.enclosing() == name
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if count is not None:
                self._open("trace.count")
                try:
                    count(nested, args, kwargs, result)
                finally:
                    self._close()
            return result

        return wrapper

    # -- patching --------------------------------------------------------

    def _patch(self, owner, attr, name, count=None):
        """Replace ``owner.attr`` (module, class or dict entry) by a wrapper."""
        if isinstance(owner, dict):
            original = owner[attr]
            fn, flag = original
            owner[attr] = (self.wrap(name, fn, count), flag)
            self._patches.append((owner, attr, original, True))
            return
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(self.wrap(name, original.__func__, count))
        else:
            replacement = self.wrap(name, original, count)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original, False))

    def install(self):
        from lisopt import cli, distributions, estimators, harness, objectives, optimizers, oracle

        def lw_count(nested, args, kwargs, result):
            lw = np.asarray(result)
            self.add("lw.calls")
            self.add("lw.points", lw.size)
            if lw.size:
                top = np.max(lw)
                if top != -np.inf:
                    self.add("lw.live", int(np.count_nonzero(lw >= top - _RETIRE_LOG_MARGIN)))

        def nw_count(nested, args, kwargs, result):
            self.add("nw.calls")
            self.add("nw.points", np.asarray(result).size)

        def sample_count(nested, args, kwargs, result):
            if not nested:  # a mixture delegates to its component
                self.add("sample.calls")

        def eval_count(nested, args, kwargs, result):
            self.add("eval.calls")
            self.add("eval.points", len(result))
            if self.enclosing_active("oracle.gibbs_mean"):
                self.add("oracle.eval_calls")
            if isinstance(args[0], objectives.ExternalObjective):
                self.durations.setdefault("objectives.external.batch", []).append(
                    self.durations["objectives.evaluate_batch"][-1]
                )

        def gibbs_count(nested, args, kwargs, result):
            spec = args[1]
            self.add("oracle.nodes", spec.grid_points ** spec.dimension)

        def emit_count(nested, args, kwargs, result):
            self.add("harness.bytes", os.path.getsize(args[1]))

        for fn in ("laplace_log_weights", "normalized_weights",
                   "self_normalized_average", "effective_sample_size"):
            count = {"laplace_log_weights": lw_count, "normalized_weights": nw_count}.get(fn)
            # self_normalized_average and effective_sample_size reach
            # normalized_weights through the estimators module global;
            # optimizers imported the others by name.
            self._patch(estimators, fn, f"estimators.{fn}", count)
            if fn in optimizers.__dict__:
                self._patch(optimizers, fn, f"estimators.{fn}", count)
        for cls in (distributions.IsotropicGaussian, distributions.MixturePolicy):
            self._patch(cls, "sample", "distributions.sample", sample_count)
            self._patch(cls, "log_density_batch", "distributions.log_density_batch")
        self._patch(objectives.Objective, "evaluate_batch", "objectives.evaluate_batch",
                    eval_count)
        for fn in ("run_liso", "run_random_search", "run_adaptive_liso",
                   "run_adaptive_random_search", "run_isotropic_es"):
            self._patch(harness, fn, "optimizers.driver")
        for method in list(cli._DRIVERS):
            self._patch(cli._DRIVERS, method, "optimizers.driver")
        # laplace_gap calls gibbs_mean through the oracle module global.
        self._patch(oracle, "gibbs_mean", "oracle.gibbs_mean", gibbs_count)
        self._patch(oracle, "laplace_gap", "oracle.laplace_gap")
        self._patch(cli, "run_experiment", "harness.run_experiment")
        self._patch(cli, "emit_csv", "harness.emit_csv", emit_count)
        self._patch(cli, "emit_svg_plot", "harness.emit_svg", emit_count)
        self._patch(harness.ExperimentSpec, "from_yaml", "cli.spec_load")
        self._patch(cli, "main", "cli.main")

    def uninstall(self):
        while self._patches:
            owner, attr, original, is_dict = self._patches.pop()
            if is_dict:
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- results ---------------------------------------------------------

    def layer_metrics(self, ops):
        """Per-layer metrics of ``ops`` traced ops: sums per op, ratios and
        quantiles over all of them."""

        def self_s(name):
            return self.self_time.get(name, 0.0) / ops

        def count(key):
            return self.counters.get(key, 0) / ops

        def total(name):
            return sum(self.durations.get(name, ())) / ops

        driver = self.durations.get("optimizers.driver", [])
        external = self.durations.get("objectives.external.batch", [])
        return {
            "estimators.laplace_log_weights.self_s": self_s("estimators.laplace_log_weights"),
            "estimators.laplace_log_weights.points_scanned": count("lw.points"),
            "estimators.normalized_weights.self_s": self_s("estimators.normalized_weights"),
            "estimators.normalized_weights.calls": count("nw.calls"),
            "estimators.normalized_weights.points_scanned": count("nw.points"),
            "estimators.self_normalized_average.self_s":
                self_s("estimators.self_normalized_average"),
            "estimators.effective_sample_size.self_s": self_s("estimators.effective_sample_size"),
            "estimators.live_weight_frac": _ratio(count("lw.live"), count("lw.points")),
            "optimizers.driver.self_s": self_s("optimizers.driver"),
            "optimizers.log_weights_per_batch": _ratio(count("lw.calls"), count("sample.calls")),
            "optimizers.trial_p50_s": median(driver),
            "optimizers.trial_tail_s": tail(driver),
            "distributions.sample.self_s": self_s("distributions.sample"),
            "distributions.sample.calls": count("sample.calls"),
            "distributions.log_density_batch.self_s": self_s("distributions.log_density_batch"),
            "objectives.evaluate_batch.calls": count("eval.calls"),
            "objectives.evaluate_batch.points": count("eval.points"),
            "objectives.evaluate_batch.self_s": self_s("objectives.evaluate_batch"),
            "objectives.us_per_eval":
                _ratio(1e6 * total("objectives.evaluate_batch"), count("eval.points")),
            "objectives.external.batch_p50_s": median(external),
            "objectives.external.batch_tail_s": tail(external),
            "oracle.gibbs_mean.self_s": self_s("oracle.gibbs_mean"),
            "oracle.nodes_evaluated": count("oracle.nodes"),
            "oracle.objective_calls_per_node":
                _ratio(count("oracle.eval_calls"), count("oracle.nodes")),
            "harness.run_experiment.self_s": self_s("harness.run_experiment"),
            "harness.emit_csv_s": total("harness.emit_csv"),
            "harness.emit_svg_s": total("harness.emit_svg"),
            "harness.bytes_written": count("harness.bytes"),
            "cli.main.self_s": self_s("cli.main"),
            "cli.spec_load_s": total("cli.spec_load"),
        }

    def dump(self, path):
        """Write each kept span as one JSON line: id, name, start, end, parent, op."""
        with open(path, "w") as fh:
            for span_id, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def _ratio(num, den):
    return num / den if den else 0.0


def median(samples):
    if not samples:
        return 0.0
    return float(np.median(np.asarray(samples)))


def tail(samples):
    """Highest percentile with at least ten samples beyond it (max below 20)."""
    n = len(samples)
    if n == 0:
        return 0.0
    q = 1.0 if n < 20 else 1.0 - 10.0 / n
    return float(np.quantile(np.asarray(samples), q))
