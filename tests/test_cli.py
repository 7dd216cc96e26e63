"""Run documents and the command-line surface: parsing, files, exit codes."""

import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import belltime
from belltime import optimizer
from belltime.cli import main
from belltime.dynamics import PULSE_HEADER, PulseSequence, read_pulse_csv, write_pulse_csv
from belltime.experiment import ExperimentConfig
from belltime.linalg import pauli_string
from belltime.optimizer import MODES, OptimizerConfig, readouts_per_iteration
from belltime.runconfig import ConfigError, RunConfig, load_config, parse_config

MINIMAL = "model:\n  g_hz: 217.4\n"

FULL = """
mode: balanced
seed: 3
output_dir: runs/demo
model:
  g_hz: 217.4
experiment:
  true_g_hz: 219.574
  amplitude_scale: [0.98, 1.0, 0.98, 1.0]
  distortion_tau_s: 50.0e-6
  noise_sigma: 1.0e-3
  t1_s: [0.730, 0.096]
  t2_s: [0.0965, 0.0425]
  seed: 100
optimizer:
  d1_init: 1.0e+3
  target_fidelity: 0.93
  threshold_floor: 0.90
  max_iterations: 2000
"""


class TestParseConfig:
    def test_minimal_fills_defaults(self):
        config = parse_config(MINIMAL)
        assert config.mode == "model-only"
        assert config.seed == 0
        assert config.model.g_hz == 217.4
        assert config.experiment is None
        assert config.optimizer.d1_init == 1e-3
        assert config.optimizer.max_iterations == 5000

    def test_empty_document_is_all_defaults(self):
        config = parse_config("")
        assert config.mode == "model-only"
        assert config.model.g_hz == 217.4

    def test_full_document(self):
        config = parse_config(FULL)
        assert config.mode == "balanced"
        assert config.seed == 3
        assert config.output_dir == "runs/demo"
        assert config.experiment.true_g_hz == pytest.approx(219.574)
        assert config.experiment.t1_s == (0.730, 0.096)
        assert config.optimizer.d1_init == 1e3
        assert config.optimizer.target_fidelity == 0.93

    def test_unknown_keys_rejected_by_name(self):
        with pytest.raises(ConfigError, match="gamma"):
            parse_config("gamma: 3\n")
        with pytest.raises(ConfigError, match="model.curvature"):
            parse_config("model:\n  curvature: 1\n")
        with pytest.raises(ConfigError, match="experiment.drift"):
            parse_config(MINIMAL + "experiment:\n  drift: 1\n")
        with pytest.raises(ConfigError, match="optimizer.momentum"):
            parse_config(MINIMAL + "optimizer:\n  momentum: 0.9\n")

    def test_unphysical_relaxation_pair_names_section(self):
        text = MINIMAL + "experiment:\n  t1_s: [0.1, 0.1]\n  t2_s: [0.3, 0.1]\n"
        with pytest.raises(ConfigError, match="experiment.*t2"):
            parse_config(text)

    def test_syntax_error_reports_line(self):
        with pytest.raises(ConfigError, match="line"):
            parse_config("model:\n  g_hz: [unclosed\n")

    def test_type_errors(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config("seed: later\n")
        with pytest.raises(ConfigError, match="mode"):
            parse_config("mode: 7\n")
        with pytest.raises(ConfigError, match="optimizer.d1_init"):
            parse_config("optimizer:\n  d1_init: big\n")
        with pytest.raises(ConfigError, match="amplitude_scale"):
            parse_config("experiment:\n  amplitude_scale: [1.0, 1.0]\n")
        with pytest.raises(ConfigError, match="max_iterations"):
            parse_config("optimizer:\n  max_iterations: 12.5\n")

    def test_numeric_strings_are_accepted(self):
        # plain YAML reads 1e-3 (no dot) as a string; treat it as a number
        config = parse_config("optimizer:\n  d1_init: 1e-3\n")
        assert config.optimizer.d1_init == 1e-3

    def test_infinite_relaxation_times_parse(self):
        config = parse_config(MINIMAL + "experiment:\n  t1_s: [.inf, .inf]\n")
        assert config.experiment.t1_s == (math.inf, math.inf)

    @pytest.mark.parametrize("section, field, value", [
        ("experiment", "noise_sigma", ".nan"),
        ("experiment", "noise_sigma", ".inf"),
        ("experiment", "distortion_tau_s", ".nan"),
        ("experiment", "distortion_tau_s", ".inf"),
        ("experiment", "amplitude_scale", "[1.0, .nan, 1.0, 1.0]"),
        ("experiment", "amplitude_scale", "[1.0, 1.0, .inf, 1.0]"),
        ("experiment", "true_g_hz", ".inf"),
        ("optimizer", "threshold_rate", ".nan"),
        ("optimizer", "init_amplitude_hz", ".nan"),
        ("optimizer", "initial_duration_s", ".inf"),
        ("optimizer", "d1_init", ".inf"),
    ])
    def test_non_finite_settings_rejected_by_name(self, section, field, value):
        with pytest.raises(ConfigError, match=f"{section}: {field}"):
            parse_config(MINIMAL + f"{section}:\n  {field}: {value}\n")

    def test_measured_modes_require_experiment_section(self):
        with pytest.raises(ConfigError, match="experiment section"):
            parse_config("mode: balanced\n")
        with pytest.raises(ConfigError, match="experiment section"):
            parse_config(MINIMAL).replace(mode="experiment-only")

    def test_document_dict_is_json_friendly(self):
        doc = parse_config(MINIMAL + "experiment: {}\n").as_document_dict()
        text = json.dumps(doc)
        assert "Infinity" not in text
        assert doc["experiment"]["t1_s"] == ["inf", "inf"]

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.yaml")

    @pytest.mark.parametrize("value", ["[]", "0", "false", "abc", "[1, 2]"])
    def test_model_section_must_be_a_mapping(self, value):
        with pytest.raises(ConfigError, match="^model: expected a mapping"):
            parse_config(f"model: {value}\n")

    def test_negative_seeds_rejected_by_name(self):
        with pytest.raises(ConfigError, match="^seed: "):
            parse_config("seed: -1\n")
        with pytest.raises(ConfigError, match="^experiment: seed "):
            parse_config("experiment: {seed: -5}\n")
        with pytest.raises(ConfigError, match="^seed: "):
            RunConfig().replace(seed=-1)

    def test_replace_validates_like_a_document(self):
        base = parse_config(FULL)
        changed = base.replace(seed=4, optimizer={"max_iterations": 7})
        assert changed.seed == 4
        assert changed.optimizer == OptimizerConfig(
            d1_init=1e3, target_fidelity=0.93, threshold_floor=0.90, max_iterations=7
        )
        assert changed.experiment == base.experiment
        assert base.replace(experiment=ExperimentConfig()).experiment == ExperimentConfig()
        with pytest.raises(ConfigError, match="^optimizer.max_iterations: "):
            base.replace(optimizer={"max_iterations": "many"})
        with pytest.raises(ConfigError, match="^optimizer: max_iterations "):
            base.replace(optimizer={"max_iterations": 0})
        with pytest.raises(ConfigError, match="^unknown key 'optimizer.momentum'"):
            base.replace(optimizer={"momentum": 0.9})
        with pytest.raises(ConfigError, match="^unknown key 'gamma'"):
            base.replace(gamma=3)

    def test_readme_example_config_parses(self):
        # The README's quick start runs `--config examples.yaml`, whose only
        # copy is the YAML block under "A minimal config".
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(
            r"A minimal config \(`examples\.yaml`\):\s*```yaml\n(.*?)```", readme, re.S
        )
        assert block is not None
        config = parse_config(block.group(1))
        assert config.mode == "balanced"
        assert config.experiment is not None


def _finite(lo=None, hi=None, **bounds):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **bounds)


POSITIVE = _finite(0.0, exclude_min=True)
UNIT = _finite(0.0, 1.0, exclude_min=True, exclude_max=True)
COUNT = st.integers(1, 2**31)
SEED = st.integers(0, 2**64)

# One strategy per field, every draw valid on its own; t1_s and t2_s are
# drawn jointly, since t2 <= 2 t1 per spin.
MODEL_FIELDS = {"g_hz": POSITIVE}
EXPERIMENT_FIELDS = {
    "true_g_hz": POSITIVE,
    "amplitude_scale": st.tuples(POSITIVE, POSITIVE, POSITIVE, POSITIVE),
    "distortion_tau_s": _finite(0.0),
    "noise_sigma": _finite(0.0),
    "seed": SEED,
}
OPTIMIZER_FIELDS = {
    "target_fidelity": UNIT,
    "threshold_floor": _finite(0.5, 1.0, exclude_max=True),
    "threshold_drop": _finite(0.0, 0.5, exclude_max=True),
    "threshold_rate": POSITIVE,
    "d1_init": _finite(1e-9, exclude_min=True),
    "max_iterations": COUNT,
    "fd_step_amplitude_hz": POSITIVE,
    "fd_step_time_s": POSITIVE,
    "m_slices": COUNT,
    "initial_duration_s": POSITIVE,
    "init_amplitude_hz": _finite(0.0),
}
SECTION_FIELDS = {
    "model": MODEL_FIELDS,
    "experiment": {**EXPERIMENT_FIELDS, "t1_s": None, "t2_s": None},
    "optimizer": OPTIMIZER_FIELDS,
}

DEFAULT_SECTIONS = {
    "model": RunConfig().model, "experiment": ExperimentConfig(), "optimizer": OptimizerConfig(),
}


@st.composite
def relaxation_times(draw):
    """Per-spin (t1_s, t2_s) pairs with 0 < t2 <= 2 t1, either may be infinite."""
    t1, t2 = [], []
    for _ in range(2):
        one = draw(_finite(0.0, 1e300, exclude_min=True) | st.just(math.inf))
        if math.isinf(one):
            two = draw(POSITIVE | st.just(math.inf))
        else:
            two = draw(_finite(0.0, 2.0 * one, exclude_min=True))
        t1.append(one)
        t2.append(two)
    return tuple(t1), tuple(t2)


@st.composite
def run_configs(draw):
    def section(fields):
        return {name: draw(strategy) for name, strategy in fields.items()}

    experiment = None
    if draw(st.booleans()):
        t1_s, t2_s = draw(relaxation_times())
        experiment = ExperimentConfig(**section(EXPERIMENT_FIELDS), t1_s=t1_s, t2_s=t2_s)
    return RunConfig(
        mode=draw(st.sampled_from(MODES)) if experiment else "model-only",
        seed=draw(SEED),
        output_dir=draw(st.none() | st.text(st.characters(codec="utf-8"), max_size=20)),
        model=belltime.SystemModel(**section(MODEL_FIELDS)),
        experiment=experiment,
        optimizer=OptimizerConfig(**section(OPTIMIZER_FIELDS)),
    )


def _not_a_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return True
    return False


@st.composite
def wrong_typed_settings(draw):
    """(section, field, value) with a value of the wrong type for the field."""
    section = draw(st.sampled_from(sorted(SECTION_FIELDS)))
    field = draw(st.sampled_from(sorted(SECTION_FIELDS[section])))
    default = getattr(DEFAULT_SECTIONS[section], field)
    length = len(default) if isinstance(default, tuple) else 0
    value = draw(
        st.booleans()
        | st.text(max_size=10).filter(_not_a_number)
        | st.lists(st.floats(0.5, 2.0), max_size=6).filter(lambda v: len(v) != length)
        | st.dictionaries(st.text(max_size=5), st.integers(), max_size=3)
    )
    return section, field, value


class TestParseConfigProperties:
    def test_strategies_cover_every_field(self):
        for cls, fields in ((belltime.SystemModel, MODEL_FIELDS),
                            (ExperimentConfig, SECTION_FIELDS["experiment"]),
                            (OptimizerConfig, OPTIMIZER_FIELDS)):
            assert set(fields) == {f.name for f in dataclasses.fields(cls)}

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(config=run_configs())
    def test_document_round_trip(self, config):
        doc = config.as_document_dict()
        json.dumps(doc, allow_nan=False)
        assert parse_config(yaml.safe_dump(doc)) == config

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(setting=wrong_typed_settings())
    def test_wrong_type_names_the_field(self, setting):
        section, field, value = setting
        where = re.escape(f"{section}.{field}: ")
        with pytest.raises(ConfigError, match=f"^{where}"):
            parse_config(yaml.safe_dump({section: {field: value}}))
        with pytest.raises(ConfigError, match=f"^{where}"):
            RunConfig().replace(**{section: {field: value}})

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        section=st.sampled_from(sorted(SECTION_FIELDS)),
        value=st.booleans() | st.integers() | _finite() | st.text(max_size=10)
        | st.lists(st.integers(), max_size=3),
    )
    def test_non_mapping_section_names_the_section(self, section, value):
        with pytest.raises(ConfigError, match=f"^{section}: expected a mapping"):
            parse_config(yaml.safe_dump({section: value}))


class TestBudgetArithmetic:
    def test_per_iteration_counts(self):
        for mode, total in (("model-only", 0), ("balanced", 3), ("experiment-only", 1503)):
            assert sum(readouts_per_iteration(mode, 50).values()) == total

    def test_budget_command_balanced(self, capsys):
        assert main(["budget", "--mode", "balanced", "--iterations", "2000"]) == 0
        out = capsys.readouterr().out
        assert "total measurements: 6000" in out
        assert "16.7 h" in out

    @pytest.mark.parametrize("mode, m_slices", [("balanced", 0), ("experiment-only", -5),
                                                ("bogus", 50)])
    def test_per_iteration_counts_reject_invalid_inputs(self, mode, m_slices):
        with pytest.raises(ValueError, match="m_slices" if mode in MODES else "mode"):
            readouts_per_iteration(mode, m_slices)

    @pytest.mark.parametrize("flag, value, message", [
        ("--m-slices", "-5", "m_slices must be a positive integer"),
        ("--m-slices", "0", "m_slices must be a positive integer"),
        ("--iterations", "0", "iterations: expected a positive integer"),
    ])
    def test_budget_command_rejects_invalid_inputs(self, flag, value, message, capsys):
        assert main(["budget", "--mode", "experiment-only", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"config error: {message}")

    def test_readout_price_is_not_a_flag(self, capsys):
        # every readout costs experiment.SECONDS_PER_MEASUREMENT
        with pytest.raises(SystemExit) as exited:
            main(["budget", "--seconds-per-measurement", "5"])
        assert exited.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --seconds-per-measurement 5" in captured.err

    def test_budget_command_experiment_only(self, capsys):
        assert main(["budget", "--mode", "experiment-only", "--iterations", "2000"]) == 0
        out = capsys.readouterr().out
        assert "measurements per iteration: 1503" in out
        assert "total measurements: 3006000" in out
        assert "8350 h" in out
        assert "7500 h" in out  # the documented one-sided-count reading


class TestTmin:
    def test_prints_bell_time(self, capsys):
        assert main(["tmin"]) == 0
        out = capsys.readouterr().out
        assert "2.30 ms" in out
        seconds = float(re.search(r"\(([\d.e+-]+) s\)", out).group(1))
        assert abs(seconds - 2.2999e-3) < 1e-7

    @pytest.mark.parametrize("name, save", [("cnot.npy", np.save), ("cnot.txt", np.savetxt)])
    def test_unitary_file(self, tmp_path, capsys, name, save):
        cnot = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
        path = tmp_path / name
        save(path, cnot)
        assert main(["tmin", "--unitary", str(path)]) == 0
        out = capsys.readouterr().out
        coords = re.search(r"cartan coordinates = \(([^,]+),", out)
        assert abs(float(coords.group(1)) - math.pi / 4) < 1e-9
        assert "T_min(unitary) = 2.30 ms" in out

    @pytest.mark.parametrize("g_hz", ["-5", "0", "nan", "inf"])
    def test_bad_coupling_is_config_error(self, g_hz, capsys):
        assert main(["tmin", "--g-hz", g_hz]) == 2
        captured = capsys.readouterr()
        assert "config error: g-hz: expected a positive finite number" in captured.err
        assert captured.out == ""

    def test_bad_unitary_file_is_runtime_error(self, tmp_path, capsys):
        path = tmp_path / "junk.npy"
        np.save(path, np.eye(3))
        assert main(["tmin", "--unitary", str(path)]) == 3


class TestOptimizeCommand:
    def run_once(self, tmp_path, name, extra=()):
        out_dir = tmp_path / name
        code = main(
            [
                "optimize",
                "--mode", "model-only",
                "--seed", "1",
                "--iterations", "30",
                "--out", str(out_dir),
                *extra,
            ]
        )
        assert code == 0
        return out_dir

    def test_writes_all_artifacts(self, tmp_path, capsys):
        out_dir = self.run_once(tmp_path, "a")
        for name in ("trace.jsonl", "summary.csv", "final_pulse.csv", "manifest.json"):
            assert (out_dir / name).exists()
        lines = (out_dir / "trace.jsonl").read_text().splitlines()
        assert len(lines) == 30
        record = json.loads(lines[0])
        assert record["n"] == 0 and record["phase"] == "step1"
        summary = (out_dir / "summary.csv").read_text().splitlines()
        assert summary[0] == "n,phase,T_ms,J_oracle,J_model,accepted,measurements"
        assert len(summary) == 31
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["inputs"]["seed"] == 1
        assert manifest["versions"]["belltime"]
        assert manifest["final"]["t_seconds"] == pytest.approx(5e-3)

    def test_byte_identical_reruns(self, tmp_path, capsys):
        first = self.run_once(tmp_path, "one")
        second = self.run_once(tmp_path, "two")
        for name in ("trace.jsonl", "summary.csv", "final_pulse.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_seed_sweep_makes_subdirectories(self, tmp_path, capsys):
        out_dir = self.run_once(tmp_path, "sweep", extra=("--seeds", "0..2"))
        for seed in range(3):
            assert (out_dir / f"seed-{seed}" / "trace.jsonl").exists()

    @pytest.mark.parametrize("seeds, message", [
        ("4..1", "seeds: range '4..1' is empty"),
        ("3", "seeds: expected a range like 0..4"),
    ])
    def test_bad_seed_range_is_config_error(self, tmp_path, capsys, seeds, message):
        code = main(
            ["optimize", "--mode", "model-only", "--iterations", "5",
             "--out", str(tmp_path / "x"), "--seeds", seeds]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith(f"config error: {message}")

    @pytest.mark.parametrize("extra, config", [
        (("--seed", "-1"), None),
        (("--iterations", "0"), None),
        ((), "mode: balanced\nexperiment: {seed: -5}\n"),
    ])
    def test_invalid_settings_exit_before_any_directory(self, tmp_path, capsys, extra, config):
        argv = ["optimize", "--out", str(tmp_path / "run"), *extra]
        if config is not None:
            (tmp_path / "cfg.yaml").write_text(config)
            argv += ["--config", str(tmp_path / "cfg.yaml")]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("name", [
        "alpha", "beta", "d2_init", "d_min", "backtrack_factor", "max_backtracks",
        "stall_window", "stall_epsilon_t_s", "step1_patience",
        "control_gradient_floor", "time_gradient_floor",
    ])
    def test_search_constants_are_not_settings(self, tmp_path, capsys, name):
        # Each is a constant of the search rule, at the value it held as a field.
        config = tmp_path / "cfg.yaml"
        config.write_text(yaml.safe_dump({"optimizer": {name: getattr(optimizer, name.upper())}}))
        assert main(["optimize", "--config", str(config), "--out", str(tmp_path / "run")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: unknown key 'optimizer.{name}'\n"
        assert not (tmp_path / "run").exists()

    def test_readout_price_is_not_a_setting(self, tmp_path, capsys):
        config = tmp_path / "cfg.yaml"
        config.write_text("mode: balanced\nexperiment:\n  seconds_per_measurement: 10.0\n")
        assert main(["optimize", "--config", str(config), "--out", str(tmp_path / "run")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "config error: unknown key 'experiment.seconds_per_measurement'\n"
        )
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("mode, iterations", [
        ("model-only", 40), ("balanced", 40), ("experiment-only", 3),
    ])
    def test_summary_reproduces_the_trace(self, tmp_path, capsys, mode, iterations):
        # summary.csv is the plot-ready view of trace.jsonl, value for value
        config = tmp_path / "cfg.yaml"
        config.write_text(f"mode: {mode}\nexperiment: {{noise_sigma: 1.0e-3, seed: 100}}\n")
        out_dir = tmp_path / "run"
        assert main(["optimize", "--config", str(config), "--out", str(out_dir),
                     "--iterations", str(iterations)]) == 0
        with open(out_dir / "summary.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        records = [json.loads(line)
                   for line in (out_dir / "trace.jsonl").read_text().splitlines()]
        assert rows[0] == ["n", "phase", "T_ms", "J_oracle", "J_model", "accepted",
                           "measurements"]
        assert rows[1:] == [
            [str(r["n"]), r["phase"], repr(r["t_seconds"] * 1e3), repr(r["j_oracle"]),
             repr(r["j_model"]), str(int(r["accepted"])), str(r["measurements_this_iter"])]
            for r in records
        ]
        assert len(records) == iterations

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("gamma: 3\n")
        assert main(["optimize", "--config", str(bad)]) == 2
        assert "gamma" in capsys.readouterr().err


class TestEvaluateCommand:
    def test_round_trips_model_fidelity(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        main(
            ["optimize", "--mode", "model-only", "--seed", "2",
             "--iterations", "40", "--out", str(out_dir)]
        )
        optimize_out = capsys.readouterr().out
        reported = float(optimize_out.split("model J = ")[1].split(",")[0])
        assert main(["evaluate", "--pulse", str(out_dir / "final_pulse.csv")]) == 0
        evaluated = float(
            capsys.readouterr().out.split("model J = ")[1].splitlines()[0]
        )
        assert abs(evaluated - reported) < 5e-7  # console rounds to 6 places
        pulse = read_pulse_csv(out_dir / "final_pulse.csv")
        from belltime.dynamics import SystemModel, model_fidelity
        from belltime.linalg import ket, singlet_state
        direct = model_fidelity(
            SystemModel(217.4), pulse, ket("00"), singlet_state()
        )
        assert abs(evaluated - direct) < 1e-12

    def test_zero_pulse_scores_zero(self, tmp_path, capsys):
        pulse = PulseSequence(duration_s=2e-3, amplitudes_hz=np.zeros((10, 4)))
        path = tmp_path / "zero.csv"
        write_pulse_csv(pulse, path)
        assert main(["evaluate", "--pulse", str(path)]) == 0
        out = capsys.readouterr().out
        assert float(out.split("model J = ")[1].splitlines()[0]) < 1e-12

    def test_experiment_section_adds_measured_scores(self, tmp_path, capsys):
        config = tmp_path / "cfg.yaml"
        config.write_text(MINIMAL + "experiment:\n  noise_sigma: 0.0\n")
        pulse = PulseSequence(duration_s=2e-3, amplitudes_hz=np.zeros((10, 4)))
        path = tmp_path / "zero.csv"
        write_pulse_csv(pulse, path)
        assert main(["evaluate", "--pulse", str(path), "--config", str(config)]) == 0
        out = capsys.readouterr().out
        assert "J from <XX>, <YY>, <ZZ> = " in out and "full-tomography J" in out

    def test_missing_pulse_is_runtime_error(self, capsys):
        assert main(["evaluate", "--pulse", "nowhere.csv"]) == 3

    def test_pulse_without_rows_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "pulse.csv"
        path.write_text("# T_seconds=0.001 M=3\n")
        assert main(["evaluate", "--pulse", str(path)]) == 3
        assert f"error: {path}: expected header" in capsys.readouterr().err

    @pytest.mark.parametrize("metadata, rows, message", [
        ("T_seconds=nan M=1", ["0,1,2,3,4"], "duration_s must be positive and finite, got nan"),
        ("T_seconds=0.0 M=1", ["0,1,2,3,4"], "duration_s must be positive and finite, got 0.0"),
        ("T_seconds=0.001 M=0", [], "amplitudes_hz must have shape (M, 4) with M >= 1"),
        ("T_seconds=0.001 M=1", ["0,inf,2,3,4"], "amplitudes_hz contains non-finite entries"),
        ("T_seconds=0.001 M=1", ["0,1,2,x,4"], "could not convert string to float: 'x'"),
        ("T_seconds=0.001 M=1", ["a,1,2,3,4"], "invalid literal for int() with base 10: 'a'"),
    ])
    def test_bad_pulse_values_name_the_file(self, tmp_path, capsys, metadata, rows, message):
        path = tmp_path / "pulse.csv"
        path.write_text("\n".join([f"# {metadata}", PULSE_HEADER, *rows]) + "\n")
        assert main(["evaluate", "--pulse", str(path)]) == 3
        assert f"error: {path}: {message}" in capsys.readouterr().err


class TestRemovedCommands:
    def test_export_is_gone(self, capsys):
        # summary.csv, written beside every trace, holds the plot columns
        with pytest.raises(SystemExit) as exited:
            main(["export", "--trace", "trace.jsonl"])
        assert exited.value.code == 2
        assert "invalid choice: 'export'" in capsys.readouterr().err


class TestPackaging:
    def test_import_loads_no_scipy(self):
        # scipy is a test-only dependency; the package must not import it.
        code = (
            "import sys, belltime; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        src = str(Path(belltime.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": path},
        ).stdout
        assert out.strip() == "[]"

    def test_all_is_the_public_surface(self):
        # a deletion that leaves a stale __all__ entry or import fails here,
        # not at a user's star import
        star = {}
        exec("from belltime import *", star)
        public = {
            name for name, value in vars(belltime).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)
        }
        assert len(set(belltime.__all__)) == len(belltime.__all__)
        assert set(belltime.__all__) == public
        assert set(star) - {"__builtins__"} == public
