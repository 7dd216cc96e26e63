"""Spans around the calls into each layer, recorded from outside the package.

``Tracer.install()`` replaces each public function at the name its
callers look it up by (a module global or a class attribute) with a
wrapper that records one span: layer name, parent span, start and end.
Spans stay in memory, in flat arrays, until ``write`` saves them.  A
span's self time is its duration minus the durations of the wrapped
calls made inside it.
"""

from __future__ import annotations

import functools
import time
from array import array
from contextlib import contextmanager

import numpy as np

import belltime.cli
import belltime.experiment
import belltime.linalg
import belltime.optimizer

# (owner, attribute, layer name).  Each owner is where the callers look the
# function up, so the wrapper sees every call the runs make.
TARGETS = (
    (belltime.optimizer, "model_fidelity", "dynamics.model_fidelity"),
    (belltime.optimizer, "fidelity_and_gradients", "dynamics.fidelity_and_gradients"),
    (belltime.experiment.ExperimentBackend, "evolve_open", "experiment.evolve_open"),
    (belltime.experiment.ExperimentBackend, "measure_pauli", "experiment.measure_pauli"),
    (belltime.linalg, "require_density", "linalg.require_density"),
    (belltime.experiment, "require_density", "linalg.require_density"),
    (belltime.optimizer, "finite_diff_gradients", "optimizer.finite_diff_gradients"),
    (belltime.optimizer, "run_optimization", "optimizer.run_optimization"),
    (belltime.cli, "run_optimization", "optimizer.run_optimization"),
    (belltime.cli, "load_config", "runconfig.load_config"),
    (belltime.cli, "main", "cli.main"),
)
LAYERS = tuple(dict.fromkeys(name for _, _, name in TARGETS))


class Tracer:
    def __init__(self):
        self.layer = array("h")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self._stack = []  # [span index, time spent in wrapped children]

    def _wrap(self, layer: str, fn):
        code = LAYERS.index(layer)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.start)
            self.layer.append(code)
            self.parent.append(stack[-1][0] if stack else -1)
            self.end.append(0.0)
            frame = [index, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            self.start.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.end[index] = t1
                self.calls[layer] += 1
                self.self_s[layer] += (t1 - t0) - frame[1]
                if stack:
                    stack[-1][1] += t1 - t0

        return traced

    def exclude(self, seconds: float) -> None:
        """Keep time spent outside the program out of the open span's self time."""
        if self._stack:
            self._stack[-1][1] += seconds

    @contextmanager
    def install(self):
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in TARGETS]
        try:
            for owner, attr, layer in TARGETS:
                setattr(owner, attr, self._wrap(layer, owner.__dict__[attr]))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def write(self, path) -> None:
        np.savez_compressed(
            path, layers=np.array(LAYERS), layer=np.asarray(self.layer),
            parent=np.asarray(self.parent), start_s=np.asarray(self.start),
            end_s=np.asarray(self.end),
        )
