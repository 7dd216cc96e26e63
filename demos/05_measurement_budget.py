#!/usr/bin/env python3
"""Measurement budgets: why the balanced mode exists.

Closed-loop optimization has to buy information with measurements, and
the three run modes pay wildly different prices per iteration:

  model-only       0     (gradients and acceptance both from the model)
  balanced         3     (model gradients, one 3-readout acceptance test)
  experiment-only  1503  (measured gradients: 2 x 4M control probes and
                          2 x M duration probes, 3 readouts each, plus
                          the 3-readout baseline, at M = 50)

At the bench price of one readout, ``SECONDS_PER_MEASUREMENT`` in
``belltime.experiment``, the difference is a weekend versus a year.  This
script first shows the live ledger producing those numbers, then does the
wall-clock arithmetic at that price.
"""

from belltime import (
    ExperimentConfig,
    MeasurementLedger,
    OptimizerConfig,
    SystemModel,
    ledger_report,
    run_optimization,
)
from belltime.experiment import SECONDS_PER_MEASUREMENT
from belltime.optimizer import readouts_per_iteration

MODES_BY_COST = ("model-only", "balanced", "experiment-only")


def main():
    model = SystemModel(g_hz=217.4)
    experiment = ExperimentConfig(true_g_hz=217.4, seed=3)
    config = OptimizerConfig(max_iterations=2)

    print("== Live ledgers (2 iterations each) ==")
    for mode in MODES_BY_COST:
        kwargs = {} if mode == "model-only" else {"experiment": experiment}
        result = run_optimization(mode, model, config, seed=0, **kwargs)
        report = ledger_report(result.ledger)
        per_iter = report["total_measurements"] // 2
        print(f"  {mode:<16s} {report['total_measurements']:5d} total "
              f"({per_iter} per iteration): "
              f"baseline/accept {report['fidelity_partial']}, "
              f"control probes {report['gradient_control']}, "
              f"duration probes {report['gradient_time']}, "
              f"tomography {report['fidelity_full']}")

    iterations = 2000
    print()
    print(f"== Projected to a {iterations}-iteration run at {SECONDS_PER_MEASUREMENT:g} s "
          "per measurement ==")
    for mode in MODES_BY_COST:
        split = readouts_per_iteration(mode, config.m_slices)
        report = ledger_report(
            MeasurementLedger(**{c: n * iterations for c, n in split.items()})
        )
        total, hours = report["total_measurements"], report["wall_clock_h"]
        if hours >= 1000:
            clock = f"{hours:7.0f} h  (~{hours / 24 / 365:.1f} years)"
        elif hours > 0:
            clock = f"{hours:7.1f} h  (one long weekend)"
        else:
            clock = "   free"
        print(f"  {mode:<16s} {total:8d} measurements  {clock}")

    print()
    print("== Fine print on the big number ==")
    print("  The 1503 figure charges every probe of a two-sided difference:")
    print("  4 x 50 control parameters and 50 slice durations, two probes")
    print("  each, three readouts per probe, plus one three-readout baseline.")
    print("  Folding the baseline into the batch and taking one-sided")
    print("  duration probes gives 1350 per iteration, which is where the")
    print("  commonly quoted round figure of about 7500 h comes from; the")
    print("  two-sided count kept here prices the same run at 8350 h.")
    print("  Either way it is four hundred times the balanced bill, for an")
    print("  optimizer that then has to fight measurement noise in every")
    print("  single gradient entry instead of only in accept/reject calls.")


if __name__ == "__main__":
    main()
