#!/usr/bin/env python3
"""The command-line workflow, end to end.

Everything the library does is reachable from the `belltime` command:
write a config, run an optimization into an output directory, inspect
the artifacts (trace.jsonl, summary.csv, final_pulse.csv, manifest.json),
read the convergence trace as plot-ready CSV from summary.csv, and
re-evaluate the stored pulse.  This script drives that loop through the
same entry point the shell uses.
"""

import json
import pathlib
import tempfile

from belltime.cli import main

CONFIG = """\
mode: balanced
seed: 0
model:
  g_hz: 217.4
experiment:
  true_g_hz: 219.574
  amplitude_scale: [0.98, 1.0, 0.98, 1.0]
  distortion_tau_s: 50.0e-6
  noise_sigma: 1.0e-3
  seed: 100
optimizer:
  d1_init: 1.0e+3
  target_fidelity: 0.93
  threshold_floor: 0.90
  threshold_drop: 0.099
  threshold_rate: 300.0
  max_iterations: 300
"""


def run(argv):
    print(f"$ belltime {' '.join(argv)}")
    code = main(argv)
    if code != 0:
        raise SystemExit(f"command failed with exit code {code}")
    print()


def main_demo():
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        config = root / "run.yaml"
        config.write_text(CONFIG)
        out = root / "run"

        run(["optimize", "--config", str(config), "--out", str(out)])

        print("== Artifacts ==")
        for name in ("trace.jsonl", "summary.csv", "final_pulse.csv", "manifest.json"):
            path = out / name
            print(f"  {name:<16s} {path.stat().st_size:6d} bytes")
        manifest = json.loads((out / "manifest.json").read_text())
        print(f"  manifest: mode={manifest['inputs']['mode']} "
              f"seed={manifest['inputs']['seed']} "
              f"max_iterations={manifest['inputs']['optimizer']['max_iterations']}")
        first = json.loads((out / "trace.jsonl").read_text().splitlines()[0])
        print(f"  trace record 0 keys: {', '.join(sorted(first))}")
        print()

        lines = (out / "summary.csv").read_text().splitlines()
        print("== Convergence trace, summary.csv (first 3 rows) ==")
        for line in lines[:4]:
            print(f"  {line}")
        print(f"  ... {len(lines) - 1} rows total")
        print()

        run(["evaluate", "--pulse", str(out / "final_pulse.csv"),
             "--config", str(config)])

        run(["tmin", "--g-hz", "217.4"])
        run(["budget", "--mode", "balanced", "--iterations", "300"])


if __name__ == "__main__":
    main_demo()
