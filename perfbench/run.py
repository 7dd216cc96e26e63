"""Benchmark of the three run modes: run time and result quality end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

From the root of a checkout.  Each run times the set-up in fresh
interpreters, then repeats one optimization (one operation) until S
seconds of optimization have been timed, and at least twice.  Every
operation is checked against references computed apart from the program
(``reference.py``), outside the timed region.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced
operations and reports the per-layer metrics.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  See README.md.
"""

import argparse
import contextlib
import dataclasses
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# One BLAS thread: the matrices are 4 x 4 and 16 x 16, and the machine may
# be shared.  Set before numpy is first imported, here and in the probes.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
if not (SRC / "belltime" / "__init__.py").is_file():
    print(f"perfbench: no package sources at {SRC / 'belltime'}", file=sys.stderr)
    raise SystemExit(1)
sys.path[:0] = [str(SRC), str(HERE)]

# The package, from this checkout only.
import belltime  # noqa: E402
from belltime.dynamics import SystemModel, fidelity_and_gradients  # noqa: E402
from belltime.experiment import ExperimentBackend  # noqa: E402
from belltime.linalg import ket, singlet_state  # noqa: E402
from belltime.optimizer import (  # noqa: E402
    EVENT_STALL_STEP1, EVENT_STALL_STEP2, STEP1, STEP2, finite_diff_gradients,
    verify_trace_invariants,
)

import reference  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 3
MIN_OPERATIONS = 2


def setup_seconds(name: str, seed: int, out: Path) -> list:
    """Wall times of fresh interpreters that import and build a run."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed), str(out)],
            check=True, timeout=120, cwd=ROOT, stdout=subprocess.DEVNULL,
        )
        samples.append(time.perf_counter() - t0)
    return samples


def check(outcome, first_artifacts) -> list:
    """Failure messages of every reference check on one operation."""
    pulse = outcome.pulse
    fails = reference.check_final_pulse(
        workloads.G_HZ, pulse.duration_s, pulse.amplitudes_hz, outcome.model_j)
    exp = outcome.experiment
    if exp is not None:
        fails += reference.check_measured_final(
            ExperimentBackend(exp).true_fidelity(pulse), outcome.full_j, exp,
            pulse.duration_s, pulse.amplitudes_hz)
    fails += reference.check_ledger(
        outcome.mode, [r.measurements_this_iter for r in outcome.records],
        outcome.ledger, outcome.optimizer.m_slices)
    try:
        verify_trace_invariants(outcome.records, outcome.optimizer)
    except ValueError as exc:
        fails.append(f"trace invariants: {exc}")
    if outcome.artifacts is not None and first_artifacts is not None:
        fails += [f"{name} differs from the first repetition"
                  for name, data in outcome.artifacts.items() if data != first_artifacts[name]]
    if outcome.mode == "experiment-only":
        start = outcome.start
        noiseless = ExperimentBackend(dataclasses.replace(exp, noise_sigma=0.0))
        measured = finite_diff_gradients(
            noiseless, start, outcome.optimizer.fd_step_amplitude_hz,
            outcome.optimizer.fd_step_time_s)
        scaled = start.with_amplitudes(start.amplitudes_hz * exp.amplitude_scale)
        exact = fidelity_and_gradients(
            SystemModel(exp.true_g_hz), scaled, ket("00"), singlet_state())
        fails += reference.check_gradients(measured, exact, exp.amplitude_scale)
    return fails


def run_counters(outcome) -> dict:
    """Per-layer counts read from the run's returned trace and ledger."""
    records = outcome.records
    trials = [r for r in records if r.step_size_used > 0.0]
    return {
        "experiment.ledger.fidelity_partial": (outcome.ledger["fidelity_partial"], "count"),
        "experiment.ledger.gradient_control": (outcome.ledger["gradient_control"], "count"),
        "experiment.ledger.gradient_time": (outcome.ledger["gradient_time"], "count"),
        "optimizer.climb_iters": (sum(r.phase == STEP1 for r in records), "count"),
        "optimizer.shrink_iters": (sum(r.phase == STEP2 for r in records), "count"),
        "optimizer.trials": (len(trials), "count"),
        "optimizer.accept_ratio": (
            sum(r.accepted for r in trials) / len(trials) if trials else 0.0, "1"),
        "optimizer.stalls": (
            sum(r.event in (EVENT_STALL_STEP1, EVENT_STALL_STEP2) for r in records), "count"),
        "optimizer.noop_trials": (
            sum(r.phase == STEP1 and r.grad_dot == 0.0 for r in trials), "count"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not Path(belltime.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: belltime imported from {belltime.__file__}, not {SRC}")

    out = OUT / args.workload
    out.mkdir(parents=True, exist_ok=True)
    for stale in out.glob(f"spans-seed{args.seed}-op*.npz"):
        stale.unlink()
    workload = workloads.WORKLOADS[args.workload](args.seed, out)
    setup = setup_seconds(args.workload, args.seed, out)

    sampler = speed.Sampler()
    attempted = failed = 0
    correct = True
    ops = {False: [], True: []}  # traced? -> [(wall s, wall s net of sampling, kernel s)]
    last, tracers = None, []  # only the latest outcome is kept, so memory stays flat
    first_artifacts = None
    spent = 0.0  # seconds inside operations, failed ones included
    while attempted < MIN_OPERATIONS or spent < args.seconds:
        # Traced operations alternate with untraced ones; sampling time is
        # kept out of the spans' self times.
        traced = bool(args.trace) and attempted % 2 == 1
        tracer = tracing.Tracer()
        sampler.on_sample = tracer.exclude if traced else None
        attempted += 1
        started = time.perf_counter()
        try:
            with tracer.install() if traced else contextlib.nullcontext(), sampler.sampling():
                before = sampler.spent_s
                t0 = time.perf_counter()
                returned = workload.run()
                wall = time.perf_counter() - t0
                net = wall - (sampler.spent_s - before)
            outcome = workload.outcome(returned)
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            print(f"perfbench: operation {attempted} raised {exc!r}", file=sys.stderr)
            failed += 1
            continue
        finally:
            spent += time.perf_counter() - started
        ops[traced].append((wall, net, sampler.kernel_s))
        if first_artifacts is None:
            first_artifacts = outcome.artifacts
        fails = check(outcome, first_artifacts)
        if fails:
            print(f"perfbench: operation {attempted} failed: {'; '.join(fails)}", file=sys.stderr)
            failed += 1
            correct = False
        last = outcome
        if traced:
            tracers.append(tracer)
    if last is None or not ops[False] or (args.trace and not tracers):
        raise SystemExit("perfbench: no operation completed")

    def relative(traced: bool) -> float:
        return statistics.median(net / kernel for _, net, kernel in ops[traced])

    if args.trace:
        metrics = {}
        for layer in tracing.LAYERS:
            metrics[f"{layer}.calls"] = (tracers[-1].calls[layer], "count")
            metrics[f"{layer}.self_s"] = (
                statistics.median(t.self_s[layer] for t in tracers), "s")
        metrics.update(run_counters(last))
        kernel_s = statistics.median(kernel for _, _, kernel in ops[False])
        metrics["trace.overhead_s"] = ((relative(True) - relative(False)) * kernel_s, "s")
        for i, tracer in enumerate(tracers):
            tracer.write(out / f"spans-seed{args.seed}-op{i}.npz")
    else:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "run_rel": (relative(False), "1"),
            "final_T_ms": (last.pulse.duration_s * 1e3, "ms"),
            "final_J": (last.final_j, "1"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    details = {"setup_s": setup, "operations": {
        kind: [{"wall_s": w, "net_s": n, "kernel_s": k} for w, n, k in ops[traced]]
        for kind, traced in (("untraced", False), ("traced", True))
    }}
    (out / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "details": details}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
