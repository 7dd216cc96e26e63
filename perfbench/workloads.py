"""The three workloads: one optimization at a time, from one process.

Each workload turns the seed into its inputs, builds what a run needs
before its first iteration (``build``, timed by the set-up probe), runs
one optimization at its fixed budget (``run``, the timed operation) and
hands back what the run returned (``outcome``, read outside the timing).

The seed n sets the readout-noise seed 100 + n of the measured modes and
the amplitude errors of the model-only start; it never picks the random
initial pulse (README.md says why).
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
from pathlib import Path

import numpy as np
import yaml

import belltime.cli
import belltime.optimizer
from belltime.dynamics import SystemModel, random_pulse, read_pulse_csv
from belltime.experiment import LEDGER_CATEGORIES, ExperimentBackend, ExperimentConfig
from belltime.optimizer import IterationRecord, OptimizerConfig
from belltime.recipes import bell_recipe_pulse

G_HZ = 217.4

# The mismatched apparatus and the lossy scenario of the acceptance
# fixtures (tests/test_acceptance.py: MISMATCH, LOSSY_SCENARIO).
MISMATCH = dict(
    true_g_hz=1.01 * G_HZ,
    amplitude_scale=(0.98, 1.0, 0.98, 1.0),
    distortion_tau_s=50e-6,
    noise_sigma=1e-3,
    t1_s=(0.730, 0.096),
    t2_s=(0.0965, 0.0425),
)
COHERENT_MISMATCH = {
    k: v for k, v in MISMATCH.items() if k not in ("t1_s", "t2_s", "distortion_tau_s")
}
LOSSY_SCENARIO = dict(
    d1_init=1e3, target_fidelity=0.93, threshold_floor=0.90,
    threshold_drop=0.099, threshold_rate=300.0,
)

# Iteration budgets, sized so that one run of the benchmark holds at least
# two whole optimizations (see README.md).
MODEL_ONLY_ITERATIONS = 3000
BALANCED_ITERATIONS = 500
EXPERIMENT_ONLY_ITERATIONS = 12
# RMS amplitude error added to the recipe pulse (driven at 2500 Hz) of the
# model-only start.
RECIPE_JITTER_HZ = 5.0
# The README quick start's pulse seed.
BALANCED_PULSE_SEED = 0

ARTIFACTS = ("trace.jsonl", "summary.csv", "final_pulse.csv")


@dataclasses.dataclass
class Outcome:
    mode: str
    pulse: object  # the returned PulseSequence
    model_j: float
    full_j: float | None
    records: list
    ledger: dict
    optimizer: OptimizerConfig
    experiment: ExperimentConfig | None
    artifacts: dict | None = None  # file name -> bytes, CLI runs only
    start: object = None  # the initial pulse, when the run is given one

    @property
    def final_j(self) -> float:
        return self.model_j if self.full_j is None else self.full_j


class ModelOnly:
    """Model-only from the recipe pulse with seeded amplitude errors."""

    name = "model-only"

    def __init__(self, seed: int, out: Path):
        self.seed = seed
        self.optimizer = OptimizerConfig(max_iterations=MODEL_ONLY_ITERATIONS)

    def initial_pulse(self):
        recipe = bell_recipe_pulse(G_HZ)
        errors = np.random.default_rng(self.seed).normal(
            0.0, RECIPE_JITTER_HZ, recipe.amplitudes_hz.shape)
        return recipe.with_amplitudes(recipe.amplitudes_hz + errors)

    def build(self):
        return SystemModel(G_HZ), self.initial_pulse()

    def run(self):
        return belltime.optimizer.run_optimization(
            "model-only", SystemModel(G_HZ), self.optimizer,
            initial_pulse=self.initial_pulse(),
        )

    def outcome(self, result) -> Outcome:
        return Outcome(
            result.mode, result.final_pulse, result.final_model_fidelity,
            result.final_full_fidelity, result.records, result.ledger.as_dict(),
            self.optimizer, None, start=self.initial_pulse(),
        )


class ExperimentOnlyCoherent(ModelOnly):
    """Experiment-only from the recipe pulse, relaxation-free apparatus."""

    name = "experiment-only-coherent"

    def __init__(self, seed: int, out: Path):
        self.seed = seed
        self.optimizer = OptimizerConfig(
            max_iterations=EXPERIMENT_ONLY_ITERATIONS, **LOSSY_SCENARIO
        )
        self.experiment = ExperimentConfig(seed=100 + seed, **COHERENT_MISMATCH)

    def initial_pulse(self):
        return bell_recipe_pulse(G_HZ)

    def build(self):
        return ExperimentBackend(self.experiment), self.initial_pulse()

    def run(self):
        return belltime.optimizer.run_optimization(
            "experiment-only", SystemModel(G_HZ), self.optimizer,
            experiment=self.experiment, initial_pulse=self.initial_pulse(),
        )

    def outcome(self, result) -> Outcome:
        out = super().outcome(result)
        out.experiment = self.experiment
        return out


class BalancedLossy:
    """The README quick start, launched in process through the CLI."""

    name = "balanced-lossy"

    def __init__(self, seed: int, out: Path):
        self.config_path = out / "config.yaml"
        self.run_dir = out / "run"
        doc = {
            "mode": "balanced",
            "seed": BALANCED_PULSE_SEED,
            "model": {"g_hz": G_HZ},
            "experiment": {k: list(v) if isinstance(v, tuple) else v
                           for k, v in {**MISMATCH, "seed": 100 + seed}.items()},
            "optimizer": {**LOSSY_SCENARIO, "max_iterations": BALANCED_ITERATIONS},
        }
        out.mkdir(parents=True, exist_ok=True)
        self.config_path.write_text(yaml.safe_dump(doc, sort_keys=False))

    def build(self):
        config = belltime.cli.load_config(self.config_path)
        cfg = config.optimizer
        rng = np.random.default_rng(config.seed)
        pulse = random_pulse(cfg.m_slices, cfg.initial_duration_s, cfg.init_amplitude_hz, rng)
        return ExperimentBackend(config.experiment), pulse

    def run(self):
        argv = ["optimize", "--config", str(self.config_path), "--out", str(self.run_dir)]
        with contextlib.redirect_stdout(io.StringIO()) as printed:
            code = belltime.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"belltime optimize exited with {code}")
        return printed.getvalue()

    def outcome(self, _printed) -> Outcome:
        config = belltime.cli.load_config(self.config_path)
        manifest = json.loads((self.run_dir / "manifest.json").read_text())
        lines = (self.run_dir / "trace.jsonl").read_text().splitlines()
        records = [IterationRecord(**json.loads(line)) for line in lines]
        return Outcome(
            config.mode, read_pulse_csv(self.run_dir / "final_pulse.csv"),
            manifest["final"]["model_fidelity"], manifest["final"]["full_fidelity"],
            records,
            {k: manifest["ledger"][k] for k in LEDGER_CATEGORIES},
            config.optimizer, config.experiment,
            {name: (self.run_dir / name).read_bytes() for name in ARTIFACTS},
        )


WORKLOADS = {w.name: w for w in (ModelOnly, BalancedLossy, ExperimentOnlyCoherent)}
