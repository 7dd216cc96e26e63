"""Command-line workbench: optimize, evaluate, tmin, budget.

The ``budget`` subcommand projects a run's readouts and bench hours from
``optimizer.readouts_per_iteration``, priced by ``experiment.ledger_report``
like a run's ledger; the README's section on the three modes reconciles
its exact two-sided count with the often-quoted ~7500 h.

Times are printed in milliseconds with 3 significant figures; files
always store full-precision values (seconds for durations).
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .cartan import cartan_coordinates, minimum_time_bell, minimum_time_unitary
from .dynamics import (
    model_fidelity,
    read_pulse_csv,
    write_pulse_csv,
)
from .experiment import (
    SECONDS_PER_MEASUREMENT,
    ExperimentBackend,
    MeasurementLedger,
    ledger_report,
)
from .linalg import ket, singlet_state
from .optimizer import MODES, OptimizerConfig, readouts_per_iteration, run_optimization
from .runconfig import ConfigError, RunConfig, load_config

__all__ = ["main"]

SUMMARY_HEADER = ("n", "phase", "T_ms", "J_oracle", "J_model", "accepted", "measurements")


def _fmt_ms(seconds: float) -> str:
    return f"{seconds * 1e3:#.3g} ms"


def _fmt_hours(hours: float) -> str:
    if hours >= 1000.0:
        return f"{hours:.0f} h"
    return f"{hours:#.3g} h"


def _resolved_config(args) -> RunConfig:
    config = load_config(args.config) if args.config else RunConfig()
    iterations = getattr(args, "iterations", None)
    overrides = {
        "mode": getattr(args, "mode", None),
        "seed": getattr(args, "seed", None),
        "output_dir": getattr(args, "out", None),
        "optimizer": None if iterations is None else {"max_iterations": iterations},
    }
    return config.replace(**{k: v for k, v in overrides.items() if v is not None})


def _parse_seed_range(text: str) -> list[int]:
    first, sep, last = text.partition("..")
    if not sep or not all(end.isascii() and end.isdigit() for end in (first, last)):
        raise ConfigError(f"seeds: expected a range like 0..4, got {text!r}")
    a, b = int(first), int(last)
    if b < a:
        raise ConfigError(f"seeds: range {text!r} is empty")
    return list(range(a, b + 1))


def _write_trace(path: Path, records) -> None:
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec.as_dict()) + "\n")


def _write_summary(path: Path, records) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_HEADER)
        for rec in records:
            writer.writerow(
                [
                    rec.n,
                    rec.phase,
                    repr(rec.t_seconds * 1e3),
                    repr(rec.j_oracle),
                    repr(rec.j_model),
                    int(rec.accepted),
                    rec.measurements_this_iter,
                ]
            )


def _write_manifest(path: Path, config: RunConfig, seed: int, result) -> None:
    manifest = {
        "command": "optimize",
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "versions": {
            "belltime": __version__,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
        },
        "inputs": {**config.as_document_dict(), "seed": seed},
        "termination": result.termination,
        "iterations": len(result.records),
        "final": {
            "t_seconds": result.final_pulse.duration_s,
            "model_fidelity": result.final_model_fidelity,
            "full_fidelity": result.final_full_fidelity,
        },
        "ledger": ledger_report(result.ledger),
        "outputs": ["trace.jsonl", "summary.csv", "final_pulse.csv"],
    }
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def _cmd_optimize(args) -> int:
    config = _resolved_config(args)
    seeds = _parse_seed_range(args.seeds) if args.seeds else [config.seed]
    base = Path(config.output_dir or "belltime-run")
    for seed in seeds:
        run_dir = base / f"seed-{seed}" if len(seeds) > 1 else base
        run_dir.mkdir(parents=True, exist_ok=True)
        result = run_optimization(
            config.mode,
            config.model,
            config.optimizer,
            experiment=config.experiment,
            seed=seed,
        )
        _write_trace(run_dir / "trace.jsonl", result.records)
        _write_summary(run_dir / "summary.csv", result.records)
        write_pulse_csv(result.final_pulse, run_dir / "final_pulse.csv")
        _write_manifest(run_dir / "manifest.json", config, seed, result)
        line = (
            f"seed {seed}: {config.mode} finished ({result.termination}) "
            f"T = {_fmt_ms(result.final_pulse.duration_s)}, "
            f"model J = {result.final_model_fidelity:.6f}"
        )
        if result.final_full_fidelity is not None:
            line += f", full-tomography J = {result.final_full_fidelity:.6f}"
        report = ledger_report(result.ledger)
        line += (
            f", {report['total_measurements']} measurements"
            f" ({_fmt_hours(report['wall_clock_h'])})"
        )
        print(line)
        print(f"  wrote {run_dir}/trace.jsonl summary.csv final_pulse.csv manifest.json")
    return 0


def _cmd_evaluate(args) -> int:
    config = _resolved_config(args)
    pulse = read_pulse_csv(args.pulse)
    j_model = model_fidelity(config.model, pulse, ket("00"), singlet_state())
    print(f"pulse: {pulse.n_slices} slices, T = {_fmt_ms(pulse.duration_s)}")
    print(f"model J = {j_model!r}")
    if config.experiment is not None:
        backend = ExperimentBackend(config.experiment)
        j_partial = backend.fidelity_partial(pulse)
        j_full = backend.fidelity_full(pulse)
        print(f"J from <XX>, <YY>, <ZZ> = {j_partial!r}")
        print(f"full-tomography J = {j_full!r}")
    return 0


def _cmd_tmin(args) -> int:
    if not 0.0 < args.g_hz < math.inf:
        raise ConfigError(f"g-hz: expected a positive finite number, got {args.g_hz}")
    t_bell = minimum_time_bell(args.g_hz)
    print(f"T_min(Bell, g = {args.g_hz} Hz) = {_fmt_ms(t_bell)} ({t_bell!r} s)")
    if args.unitary:
        path = Path(args.unitary)
        if path.suffix == ".npy":
            u = np.load(path)
        else:
            u = np.loadtxt(path, dtype=complex)
        coords = cartan_coordinates(u)
        t_u = minimum_time_unitary(u, args.g_hz)
        print(
            "cartan coordinates = "
            f"({coords.a_x!r}, {coords.a_y!r}, {coords.a_z!r})"
        )
        print(f"T_min(unitary) = {_fmt_ms(t_u)} ({t_u!r} s)")
    return 0


def _cmd_budget(args) -> int:
    if args.iterations < 1:
        raise ConfigError(f"iterations: expected a positive integer, got {args.iterations}")
    try:
        split = readouts_per_iteration(args.mode, args.m_slices)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    report = ledger_report(
        MeasurementLedger(**{c: n * args.iterations for c, n in split.items()})
    )
    print(f"mode: {args.mode}")
    print(f"measurements per iteration: {sum(split.values())}")
    print(f"iterations: {args.iterations}")
    print(f"total measurements: {report['total_measurements']}")
    print(
        f"wall clock at {SECONDS_PER_MEASUREMENT:g} s/measurement: "
        f"{report['wall_clock_s']:g} s = {_fmt_hours(report['wall_clock_h'])}"
    )
    if args.mode == "experiment-only":
        print(
            f"  per-iteration split: {split['fidelity_partial']} fidelity + "
            f"{split['gradient_control']} control probes + "
            f"{split['gradient_time']} duration probes"
        )
        print(
            "  note: the often-quoted ~7500 h figure counts 1350/iteration "
            "(one-sided duration probes, fidelity folded into the batch); "
            "the exact two-sided count above is what this ledger charges"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="belltime",
        description="Time-optimal two-spin entangling-pulse workbench.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_opt = sub.add_parser("optimize", help="run one optimization (or a seed sweep)")
    p_opt.add_argument("--config", help="YAML run document")
    p_opt.add_argument("--mode", choices=MODES, help="override the run mode")
    seeding = p_opt.add_mutually_exclusive_group()
    seeding.add_argument("--seed", type=int, help="override the run seed")
    p_opt.add_argument("--out", help="output directory")
    p_opt.add_argument("--iterations", type=int, help="override max_iterations")
    seeding.add_argument("--seeds", help="inclusive seed sweep, e.g. 0..4")
    p_opt.set_defaults(func=_cmd_optimize)

    p_eval = sub.add_parser("evaluate", help="score a stored pulse")
    p_eval.add_argument("--pulse", required=True, help="pulse CSV to evaluate")
    p_eval.add_argument("--config", help="YAML run document (model + experiment)")
    p_eval.set_defaults(func=_cmd_evaluate)

    p_tmin = sub.add_parser("tmin", help="minimum entangling times")
    p_tmin.add_argument("--g-hz", type=float, default=RunConfig().model.g_hz,
                        help="ZZ coupling in Hz")
    p_tmin.add_argument("--unitary", help="4x4 unitary (.npy or text) to time")
    p_tmin.set_defaults(func=_cmd_tmin)

    p_budget = sub.add_parser("budget", help="measurement-cost projection")
    p_budget.add_argument("--mode", choices=MODES, default="balanced")
    p_budget.add_argument("--iterations", type=int, default=2000)
    p_budget.add_argument("--m-slices", type=int, default=OptimizerConfig.m_slices)
    p_budget.set_defaults(func=_cmd_budget)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports and exits
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
