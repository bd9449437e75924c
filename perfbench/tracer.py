"""Per-layer tracing of spdecontrol from outside the package.

``Tracer.install`` replaces the public functions of each package module
with timing wrappers, everywhere a module holds a binding to them (``cli``,
``control``, ``adjoint`` and ``variation`` import functions by name), wraps
the ``SpectralDomain`` transform methods on the class, and wraps the drift
callables of every problem ``cli.build_problem`` returns.  ``uninstall``
puts every original back.  The wrappers only observe arguments and
results, so artifacts are byte-identical with tracing on and off.

Spans are kept in memory as (name, start, end, parent) and written out by
``write_spans``; counts are accumulated at the same boundaries.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

# module -> public functions to wrap; the layer is the module name
FUNCTIONS = {
    "noise": ("wiener_normals", "convolution_increments", "supnorm_moment_study"),
    "forward": ("simulate_ensemble", "linearized_modes"),
    "variation": ("spike_order_study", "first_variation_ensemble"),
    "adjoint": ("backward_sweep", "duality_residual"),
    "control": ("check_maximum_principle", "cost_of_ensemble", "optimize_control",
                "lq_optimal_control"),
    "cli": ("validate_config", "build_problem"),
}
SPECTRAL_METHODS = ("to_field", "to_coeffs", "sup_norm", "evaluate_modes")
DRIFT_CALLABLES = ("f", "f_prime", "f_u")
# artifact writers the CLI calls, with the position of their path argument
WRITERS = {"write_csv": 0, "write_json": 0, "trajectory_to_csv": 1,
           "trajectory_to_binary": 1, "adjoint_to_binary": 1, "diagnostics_to_json": 1}


def _bound(fn):
    signature = inspect.signature(fn)
    return lambda args, kwargs: signature.bind(*args, **kwargs).arguments


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []          # (name, start, end, parent index or -1)
        self.counts = defaultdict(int)
        self.maxima = defaultdict(float)
        self._stack: list = []
        self._restore: list = []       # (owner, attribute, original)

    # -- spans -------------------------------------------------------------

    def wrap(self, name, fn, observe=None):
        """``fn`` timed as span ``name``; ``observe(args, kwargs, result)`` counts."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    # -- installation --------------------------------------------------------

    def _replace_everywhere(self, original, wrapper):
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "spdecontrol" or mod_name.startswith("spdecontrol.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self):
        import spdecontrol.cli  # noqa: F401  (loads every module that binds a wrapped name)
        from spdecontrol.spectral import SpectralDomain

        if self._restore:
            raise RuntimeError("tracer already installed")
        for layer, names in FUNCTIONS.items():
            module = sys.modules[f"spdecontrol.{layer}"]
            for name in names:
                original = getattr(module, name)
                wrapper = self.wrap(f"{layer}.{name}", original, self._observer(layer, name, original))
                if name == "build_problem":
                    wrapper = self._drift_wrapping(wrapper)
                self._replace_everywhere(original, wrapper)

        cli = sys.modules["spdecontrol.cli"]
        for name, path_arg in WRITERS.items():
            original = getattr(cli, name)
            self._replace_everywhere(original, self.wrap("cli.write", original,
                                                         self._writer_observer(path_arg)))

        for name in SPECTRAL_METHODS:
            original = SpectralDomain.__dict__[name]
            self._restore.append((SpectralDomain, name, original))
            setattr(SpectralDomain, name,
                    self.wrap(f"spectral.{name}", original, self._spectral_observer(name)))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- counters --------------------------------------------------------------

    def _observer(self, layer, name, original):
        counts, maxima = self.counts, self.maxima
        key = f"{layer}.{name}"
        bind = _bound(original)

        def calls(args, kwargs, result):
            counts[f"{key}.calls"] += 1

        if name == "simulate_ensemble":
            def observe(args, kwargs, result):
                calls(args, kwargs, result)
                counts[f"{key}.path_steps"] += result.modes.shape[0] * (result.modes.shape[1] - 1)
        elif name == "linearized_modes":
            def observe(args, kwargs, result):
                calls(args, kwargs, result)
                base = bind(args, kwargs)["base_modes"]
                counts[f"{key}.path_steps"] += base.shape[0] * (base.shape[1] - 1)
        elif name == "backward_sweep":
            def observe(args, kwargs, result):
                calls(args, kwargs, result)
                modes = bind(args, kwargs)["ensemble"].modes
                counts[f"{key}.path_steps"] += modes.shape[0] * (modes.shape[1] - 1)
                for diag in result.diagnostics:
                    maxima["adjoint.condition_max"] = max(maxima["adjoint.condition_max"],
                                                          diag["condition"])
                    maxima["adjoint.clip_rate_max"] = max(maxima["adjoint.clip_rate_max"],
                                                          diag["clip_rate"])
        elif name == "check_maximum_principle":
            def observe(args, kwargs, result):
                calls(args, kwargs, result)
                counts[f"{key}.gap_evals"] += result["gaps"].size
        elif name == "optimize_control":
            def observe(args, kwargs, result):
                calls(args, kwargs, result)
                counts[f"{key}.iterations"] += len(result[1]["J"]) - 1
        else:
            observe = calls
        return observe

    def _writer_observer(self, path_arg):
        counts = self.counts

        def observe(args, kwargs, result):
            counts["cli.write.bytes"] += os.path.getsize(args[path_arg])
        return observe

    def _spectral_observer(self, name):
        counts = self.counts
        key = f"spectral.{name}"
        transform = name in ("to_field", "to_coeffs")

        def observe(args, kwargs, result):
            domain, values = args[0], args[1]
            counts[f"{key}.calls"] += 1
            if transform:
                size = np.size(values)
                counts[f"{key}.rows"] += size // domain.n_modes
                counts["spectral.bytes_computed"] += 2 * 8 * size
                if domain.dimension == 2:
                    counts["spectral.transform_2d.calls"] += 1
        return observe

    def _drift_wrapping(self, build_problem):
        """build_problem whose returned problem evaluates traced drift callables."""
        counts = self.counts

        def drift_observer(name, kind):
            def observe(args, kwargs, result):
                counts[f"nonlinearity.{name}.calls"] += 1
                counts[f"nonlinearity.{name}.points"] += np.size(args[0])
                counts[f"nonlinearity.{kind}.calls"] += 1
            return observe

        @functools.wraps(build_problem)
        def traced_build(*args, **kwargs):
            problem = build_problem(*args, **kwargs)
            drift = problem.drift
            traced = {name: self.wrap(f"nonlinearity.{name}", getattr(drift, name),
                                      drift_observer(name, drift.name))
                      for name in DRIFT_CALLABLES if getattr(drift, name) is not None}
            problem.drift = dataclasses.replace(drift, **traced)
            return problem

        return traced_build

    # -- results -----------------------------------------------------------------

    def self_times(self) -> dict:
        """Total self time per span name: duration minus the time of its children.

        The program is serial, so the direct children of a span never overlap
        and their summed durations are the part of the span they cover.
        """
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals = defaultdict(float)
        for (name, start, end, parent), cover in zip(self.spans, covered):
            totals[name] += (end - start) - cover
        return dict(totals)

    def metrics(self) -> dict:
        """Counts, maxima, and per-span and per-layer self times."""
        out = dict(self.counts)
        out.update(self.maxima)
        layers = defaultdict(float)
        for name, self_s in self.self_times().items():
            out[f"{name}.self_s"] = self_s
            layers[name.split(".")[0]] += self_s
        for layer, self_s in layers.items():
            out[f"{layer}.self_s"] = self_s
        return out

    def write_spans(self, path):
        with open(path, "a") as fh:
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"run": self.run_id, "id": index, "name": name,
                                     "start": start, "end": end, "parent": parent}) + "\n")
