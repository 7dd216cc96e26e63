"""Dual-objective pulse optimization: climb fidelity, then shrink time.

The optimizer alternates two phases.  In the climb phase the control
amplitudes follow the fidelity gradient at fixed duration and a trial is
accepted on sufficient increase,

    J(u + d du, T)  >=  J(u, T) + ALPHA d sum(du * grad_u),

with du = grad_u.  In the shrink phase the amplitudes and the duration
move together along the first-order fidelity-preserving direction
du = grad_u / grad_T, dT = -sum(du^2) (so T always decreases), and a
trial is accepted while it retains the achieved fidelity,

    J(u + d du, T + d dT)  >=  BETA J(u, T).

Every iteration performs exactly one fidelity evaluation: the pending
trial is measured, compared against the stored baseline, and a fresh
gradient proposes the next trial.  Rejections revert to the baseline and
shrink the step size, so the backtracking line search is spread across
iterations at a constant per-iteration measurement cost; a clean (zero
consecutive rejections) acceptance grows the step size back.  When a
climb rejection streak exhausts the backtracking budget, the stored
baseline is re-measured, which protects a noisy oracle from ratcheting
its own baseline out of reach on a lucky draw, and the climb step
restarts at the size ``_restart_climb_step`` chooses.  The cost
accounting of a run mode is exact: model-driven iterations are free,
measurement-driven iterations cost 3 readouts for the fidelity and,
when gradients are also measured, 2 x 3 readouts per probed parameter.

Run modes differ only in their oracle pair, picked once when the run
starts: a fidelity source that scores every trial for the acceptance
tests, and a gradient source that proposes the next trial.

* ``model-only``      - design-model fidelity, exact model gradients; no
  readouts.
* ``experiment-only`` - measured fidelity; gradients by central finite
  differences through the measured fidelity (4M amplitude probes plus M
  per-slice duration probes per iteration).
* ``balanced``        - measured fidelity in every acceptance test, exact
  model gradients at zero measurement cost.

A model gradient is a pure function of the pulse, so it is computed once
per baseline pulse, from the sweep (slice decomposition and forward
states) that the model built when it evaluated that pulse; a rejected
trial, a phase switch and a baseline re-measurement reuse it.  A
measured gradient is re-measured every iteration, since its readouts and
noise draws are part of the run.

Each evaluation also returns the design model's prediction for the same
controls, which the trace logs beside the oracle's value.

The phase machine starts climbing at the initial duration, switches to
shrinking once the baseline reaches the target fidelity (or once the
climb plateaus, for systems whose reachable fidelity sits below the
target), and whenever a logged fidelity falls below the scheduled lower
threshold it returns to climbing with the duration frozen.  Runs stop on
iteration budget or once the duration has stopped moving at target
fidelity.  ``verify_trace_invariants`` replays every logged acceptance
inequality bit-exactly from the trace alone.

The search rule is fixed: its constants are module-level, and
``OptimizerConfig`` holds only the settings a run varies.  ``ALPHA`` and
``BETA`` are the acceptance constants above.  ``D2_INIT`` is the first
shrink step size and ``D_MIN`` the floor of both; a rejection scales a
step size by ``BACKTRACK_FACTOR``, a clean acceptance by its inverse, and
``MAX_BACKTRACKS`` consecutive rejections are a stall.
``STEP1_PATIENCE`` climb rejections since the last acceptance count as a
plateau.  A climb stalls when no |dJ/du| entry exceeds
``CONTROL_GRADIENT_FLOOR``, and a shrink returns to climbing when |dJ/dT|
does not exceed ``TIME_GRADIENT_FLOOR``.  The run stops once T has moved
less than ``STALL_EPSILON_T_S`` over ``STALL_WINDOW`` iterations at
target fidelity.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

# A run checks its model and its two states once, in ``_oracles``, so its
# model oracles are the unchecked cores of ``model_fidelity`` and
# ``fidelity_and_gradients``: the first returns (J, sweep), and the second
# takes that sweep back.  They keep the public names here, where this
# module's callers look them up and tests and perfbench/tracing.py wrap them.
from .dynamics import (
    GradientBundle,
    PulseSequence,
    SystemModel,
    as_integer,
    as_real,
    random_pulse,
    require_ideal,
)
from .dynamics import _fidelity_and_gradients as fidelity_and_gradients
from .dynamics import _model_fidelity as model_fidelity
from .experiment import (
    DURATION_COLUMN,
    PARTIAL_LABELS,
    ExperimentBackend,
    ExperimentConfig,
    MeasurementLedger,
)
from .linalg import ket, require_state, singlet_state

MODES = ("model-only", "experiment-only", "balanced")
STEP1 = "step1"
STEP2 = "step2"

EVENT_STALL_STEP1 = "StallInStep1"
EVENT_STALL_STEP2 = "StallInStep2"
EVENT_DEGENERATE_TIME_GRADIENT = "DegenerateTimeGradient"
EVENT_PLATEAU_PROMOTION = "PlateauPromotion"

ALPHA = 0.01
BETA = 0.999
D2_INIT = 1e-6
D_MIN = 1e-12
BACKTRACK_FACTOR = 0.5
MAX_BACKTRACKS = 30
STALL_WINDOW = 200
STALL_EPSILON_T_S = 1e-6  # s
STEP1_PATIENCE = 40
CONTROL_GRADIENT_FLOOR = 1e-8  # 1/Hz
TIME_GRADIENT_FLOOR = 1e-8  # 1/s


@dataclass(frozen=True)
class OptimizerConfig:
    """The settings a run varies; the search rule's constants are module-level.

    ``target_fidelity`` gates the climb-to-shrink switch and the
    stall-based termination; the scheduled lower threshold

        threshold_floor - threshold_drop * exp(-n / threshold_rate)

    sends the run back to climbing whenever a logged fidelity falls below
    it.  ``d1_init`` seeds the adaptive climb step size.  Finite-difference
    steps apply to experiment-only gradients.  ``m_slices``,
    ``initial_duration_s`` and ``init_amplitude_hz`` shape the random
    initial pulse.
    """

    target_fidelity: float = 0.999
    threshold_floor: float = 0.999
    threshold_drop: float = 0.099
    threshold_rate: float = 300.0
    d1_init: float = 1e-3
    max_iterations: int = 5000
    fd_step_amplitude_hz: float = 0.1
    fd_step_time_s: float = 1e-8
    m_slices: int = 50
    initial_duration_s: float = 5e-3
    init_amplitude_hz: float = 100.0

    def __post_init__(self):
        for name, value in asdict(self).items():
            if name in ("max_iterations", "m_slices"):
                value = as_integer(value, name)
                if value < 1:
                    raise ValueError(f"{name} must be a positive integer")
            else:
                value = as_real(value, name)
                if not math.isfinite(value):
                    raise ValueError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, value)
        if not 0.0 < self.target_fidelity < 1.0:
            raise ValueError(f"target_fidelity must lie in (0, 1), got {self.target_fidelity}")
        if not 0.0 < self.threshold_floor < 1.0:
            raise ValueError(f"threshold_floor must lie in (0, 1), got {self.threshold_floor}")
        if not 0.0 <= self.threshold_drop < self.threshold_floor:
            raise ValueError(
                f"threshold_drop must lie in [0, threshold_floor), got {self.threshold_drop}"
            )
        if self.threshold_rate <= 0:
            raise ValueError(f"threshold_rate must be positive, got {self.threshold_rate}")
        if not self.d1_init > D_MIN:
            raise ValueError(f"d1_init must exceed D_MIN = {D_MIN}, got {self.d1_init}")
        for name in ("fd_step_amplitude_hz", "fd_step_time_s", "initial_duration_s"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.init_amplitude_hz < 0:
            raise ValueError("init_amplitude_hz must be nonnegative")


@dataclass(frozen=True)
class IterationRecord:
    """One optimizer iteration as logged to the trace.

    ``j_oracle`` is the fidelity measured this iteration (of the trial
    point, or of the current point on baseline iterations); ``j_model``
    is the design model's prediction for the same controls.
    ``t_seconds`` is the retained duration after the accept/reject
    decision.  ``j_reference``, ``grad_dot``, ``step_size_used`` and
    ``acceptance_rhs`` reproduce the acceptance inequality exactly as it
    was evaluated, so traces can be audited arithmetically after the
    fact.  ``backtracks`` counts the consecutive rejections behind the
    step size that was used.
    """

    n: int
    phase: str
    t_seconds: float
    j_oracle: float
    j_model: float
    step_size_used: float
    accepted: bool
    backtracks: int
    measurements_this_iter: int
    j_reference: float
    grad_dot: float
    acceptance_rhs: float
    threshold: float
    event: Optional[str] = None

    def as_dict(self) -> dict:
        # every field is a scalar, so a shallow copy equals ``asdict`` without its deep copy
        return dict(vars(self))


@dataclass
class OptimizationResult:
    mode: str
    final_pulse: PulseSequence
    records: list
    termination: str
    ledger: MeasurementLedger
    final_model_fidelity: float
    final_full_fidelity: Optional[float]


@dataclass(frozen=True)
class _Proposal:
    kind: str
    trial: PulseSequence
    j_reference: float
    grad_dot: float
    step_size: float
    rhs: float


def lower_threshold(n: int, config: OptimizerConfig) -> float:
    """Scheduled return-to-climb fidelity threshold at iteration n."""
    if n < 0:
        raise ValueError(f"iteration index must be >= 0, got {n}")
    return config.threshold_floor - config.threshold_drop * math.exp(
        -n / config.threshold_rate
    )


def _step_along(pulse: PulseSequence, step: float, direction: np.ndarray,
                grad_u: np.ndarray) -> tuple[PulseSequence, float]:
    """Amplitudes moved ``step`` along ``direction``, and the ``grad_dot``
    of the move as rounded."""
    trial_amps = pulse.amplitudes_hz + step * direction
    delta = trial_amps - pulse.amplitudes_hz
    return pulse.with_amplitudes(trial_amps), float(np.sum(delta * grad_u) / step)


def _restart_climb_step(
    model: SystemModel,
    pulse: PulseSequence,
    j_start: float,
    grad_u: np.ndarray,
    config: OptimizerConfig,
    psi0: np.ndarray,
    target: np.ndarray,
) -> float:
    """Climb step size after a stall, sized on the design model.

    Starts at ``d1_init`` and grows by ``1 / BACKTRACK_FACTOR`` while the
    grown step along ``grad_u`` still satisfies the climb inequality
    J(u + d du) >= J(u) + ALPHA d sum(du * grad_u) with J the design
    model's fidelity and ``j_start`` = J(u), for at most
    ``MAX_BACKTRACKS`` growths (each one doubles the step).  Restarting
    at ``d1_init`` itself is too timid near a fidelity plateau: there
    the predicted gain d sum(du * grad_u) falls far below the readout
    noise, every later decision is a coin toss, and each rejection
    shrinks the step again.  The model is free in every mode, so this
    costs model evaluations only, never a measurement.  ``psi0`` and
    ``target`` are the run's states, which ``_oracles`` checked.
    """
    step = config.d1_init
    for _ in range(MAX_BACKTRACKS):
        grown = step / BACKTRACK_FACTOR
        trial, dot = _step_along(pulse, grown, grad_u, grad_u)
        rhs = j_start + ALPHA * grown * dot
        if not model_fidelity(model, trial, psi0, target)[0] >= rhs:
            break
        step = grown
    return step


def finite_diff_gradients(
    backend: ExperimentBackend,
    pulse: PulseSequence,
    fd_step_amplitude_hz: float,
    fd_step_time_s: float,
) -> GradientBundle:
    """Measured gradients by central differences through the 3-readout fidelity.

    Every control amplitude is probed twice (2 x 4M probes) and every
    slice duration is probed twice (2 x M probes); each probe is one
    3-measurement fidelity estimate.  The duration derivative of the
    uniform grid is the mean of the per-slice duration derivatives, since
    stretching T by dT stretches every slice by dT/M.

    All probes go to the backend as one batch of single-entry probes of
    ``pulse``, in the order of one probe at a time: amplitude (m, c) at
    rows 2(4m + c) (+h) and 2(4m + c) + 1 (-h), then slice m's duration
    at rows 2(4M + m) (+ht) and 2(4M + m) + 1 (-ht).  No probe reads out
    ``pulse`` itself, so the bundle's fidelity is NaN.  A step that is
    not positive and finite, or a duration step that would leave a slice
    no positive duration, is rejected before any probe is charged.
    """
    amps = pulse.amplitudes_hz
    m_slices = pulse.n_slices
    n_amps = amps.size
    h = fd_step_amplitude_hz
    ht = fd_step_time_s
    base = pulse.slice_duration_s
    if not 0.0 < h < math.inf:
        raise ValueError(f"fd_step_amplitude_hz must be positive and finite, got {h!r}")
    if not 0.0 < ht < base:  # a duration probe's slice needs time
        raise ValueError(
            f"fd_step_time_s = {ht!r} s must be positive and shorter than the slice "
            f"duration T/M = {base!r} s"
        )

    # entry k of the pulse, amplitude (m, c) at k = 4m + c and slice m's
    # duration at k = 4M + m, is probed by rows 2k (+) and 2k + 1 (-)
    entry = np.arange(n_amps + m_slices)
    slices = np.repeat(np.where(entry < n_amps, entry // 4, entry - n_amps), 2)
    columns = np.repeat(np.where(entry < n_amps, entry % 4, DURATION_COLUMN), 2)
    values = np.empty(2 * (n_amps + m_slices))
    plus = amps.reshape(-1) + h
    values[0 : 2 * n_amps : 2] = plus
    values[1 : 2 * n_amps : 2] = plus - 2.0 * h
    values[2 * n_amps :: 2] = base + ht
    values[2 * n_amps + 1 :: 2] = base - ht
    categories = ["gradient_control"] * (2 * n_amps) + ["gradient_time"] * (2 * m_slices)

    j = backend.fidelity_partial_batch(pulse, slices, columns, values, categories)
    differences = j[0::2] - j[1::2]  # (+, -) pairs
    grad_u = (differences[:n_amps] / (2.0 * h)).reshape(amps.shape)
    slope_sum = 0.0
    for slope in (differences[n_amps:] / (2.0 * ht)).tolist():  # summed in probe order
        slope_sum += slope
    grad_t = slope_sum / m_slices
    return GradientBundle(fidelity=math.nan, grad_amplitudes=grad_u, grad_duration=grad_t)


def readouts_per_iteration(mode: str, m_slices: int) -> dict:
    """Readouts one iteration charges in ``mode``, by ledger category.

    Measured modes charge one ``fidelity_partial`` estimate per iteration;
    experiment-only adds the probes of ``finite_diff_gradients``, one such
    estimate each: two per control amplitude (4M) and two per slice
    duration (M).
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    m_slices = as_integer(m_slices, "m_slices")
    if m_slices < 1:
        raise ValueError(f"m_slices must be a positive integer, got {m_slices}")
    if mode == "model-only":
        return {}
    per_estimate = len(PARTIAL_LABELS)
    readouts = {"fidelity_partial": per_estimate}
    if mode == "experiment-only":
        readouts["gradient_control"] = 2 * 4 * m_slices * per_estimate
        readouts["gradient_time"] = 2 * m_slices * per_estimate
    return readouts


def _oracles(mode: str, model: SystemModel, config: OptimizerConfig,
             experiment: Optional[ExperimentConfig], psi0: np.ndarray,
             target: np.ndarray):
    """The oracles of ``mode``, as (evaluate, gradients, backend).

    ``evaluate(pulse)`` returns (j_oracle, j_model) and ``gradients(pulse)``
    a ``GradientBundle``.  ``backend`` is the emulated apparatus, whose
    ledger is charged for every readout the oracles take; it is None in
    model-only mode, which takes none.  The design model must be ideal
    but for g (``require_ideal``).
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    model, psi0, target = require_ideal(model), require_state(psi0), require_state(target)

    # The last model-evaluated pulse with its sweep, and the last graded
    # pulse with its bundle, both matched by identity.
    evaluated = (None, None)
    graded = (None, None)

    def model_j(p: PulseSequence) -> float:
        nonlocal evaluated
        j, sweep = model_fidelity(model, p, psi0, target)
        evaluated = (p, sweep)
        return j

    def model_gradients(p: PulseSequence) -> GradientBundle:
        nonlocal graded
        if graded[0] is not p:
            sweep = evaluated[1] if evaluated[0] is p else None
            graded = (p, fidelity_and_gradients(model, p, psi0, target, sweep))
        return graded[1]

    if mode == "model-only":
        def model_evaluate(p: PulseSequence):
            j = model_j(p)
            return j, j

        return model_evaluate, model_gradients, None

    if experiment is None:
        raise ValueError(f"{mode} mode requires an experiment configuration")
    backend = ExperimentBackend(experiment)

    def measured_evaluate(p: PulseSequence):
        return backend.fidelity_partial(p), model_j(p)

    def measured_gradients(p: PulseSequence) -> GradientBundle:
        return finite_diff_gradients(
            backend, p, config.fd_step_amplitude_hz, config.fd_step_time_s
        )

    gradients = measured_gradients if mode == "experiment-only" else model_gradients
    return measured_evaluate, gradients, backend


def run_optimization(
    mode: str,
    model: SystemModel,
    config: OptimizerConfig,
    experiment: Optional[ExperimentConfig] = None,
    seed: int = 0,
    initial_pulse: Optional[PulseSequence] = None,
) -> OptimizationResult:
    """Run the dual-objective search in one of the three modes.

    The experiment configuration is required except in model-only mode.
    ``seed`` fixes the initial random pulse (ignored when an explicit
    ``initial_pulse`` is given); the measurement noise stream is seeded
    by the experiment configuration itself.

    The run has one ledger, the apparatus's (an empty one in model-only
    mode), and it alone counts readouts: each record's
    ``measurements_this_iter`` is the ledger's growth over its iteration.
    The closing full tomography runs on a detached replay of the
    apparatus and leaves the ledger untouched.
    """
    psi0 = ket("00")
    target = singlet_state()
    evaluate, gradients, backend = _oracles(mode, model, config, experiment, psi0, target)
    ledger = MeasurementLedger() if backend is None else backend.ledger

    if initial_pulse is None:
        rng = np.random.default_rng(seed)
        pulse = random_pulse(
            config.m_slices, config.initial_duration_s, config.init_amplitude_hz, rng
        )
    else:
        pulse = initial_pulse

    records: list[IterationRecord] = []
    phase = STEP1
    step = {STEP1: config.d1_init, STEP2: D2_INIT}  # adaptive step sizes
    streak = 0   # consecutive rejections behind the current step size
    plateau = 0  # consecutive climb rejections since the last acceptance
    pending: Optional[_Proposal] = None
    j_base = math.nan
    at_target_since = None  # first iteration of the current j_base >= target run
    incumbent: Optional[PulseSequence] = None  # latest state meeting the target
    termination = "max_iterations"

    def enter(new_phase: str) -> None:
        """Switch phase; the rejection counts restart with the new phase."""
        nonlocal phase, streak, plateau
        if phase != new_phase:
            phase = new_phase
            streak = 0
            plateau = 0

    refresh = False
    for n in range(config.max_iterations):
        event = None
        restart = refresh  # re-measuring after a climb stall: resize the climb step
        refresh = False
        charged = ledger.total_measurements

        # 1. One oracle evaluation: the pending trial, or a baseline
        #    measurement of the current point when nothing is pending.
        j_trial, j_model_rec = evaluate(
            pulse if pending is None else pending.trial
        )
        # A baseline iteration logs as a zero step accepted at its own value.
        tried = pending or _Proposal(phase, pulse, j_trial, 0.0, 0.0, j_trial)
        accepted = pending is None or bool(j_trial >= tried.rhs)
        backtracks = streak
        if pending is None:
            j_base = j_trial
        else:
            kind = pending.kind
            if accepted:
                pulse = pending.trial
                j_base = j_trial
                if streak == 0:
                    step[kind] = step[kind] / BACKTRACK_FACTOR
                streak = 0
                plateau = 0
            else:
                streak += 1
                step[kind] = max(step[kind] * BACKTRACK_FACTOR, D_MIN)
                if kind == STEP1:
                    plateau += 1
                if streak >= MAX_BACKTRACKS:
                    event = EVENT_STALL_STEP1 if kind == STEP1 else EVENT_STALL_STEP2
                    streak = 0
                    if kind == STEP1:
                        # re-measure the current point next iteration (the
                        # module docstring says why), then restart the step
                        # size (_restart_climb_step)
                        step[STEP1] = config.d1_init
                        refresh = True

        threshold = lower_threshold(n, config)

        # 2. Phase decision for the next proposal.  A sub-threshold logged
        #    fidelity always forces a return to climbing at frozen T; the
        #    climb hands over to shrinking at target fidelity, or on a
        #    plateau when the target is out of physical reach.
        if j_trial < threshold:
            enter(STEP1)
        elif phase == STEP1 and j_base >= config.target_fidelity:
            enter(STEP2)
        elif phase == STEP1 and plateau >= STEP1_PATIENCE:
            event = event or EVENT_PLATEAU_PROMOTION
            enter(STEP2)
        elif (tried.kind == STEP2 and phase == STEP2 and not accepted
              and step[STEP2] <= D_MIN):
            # the shrink direction is exhausted at the smallest step;
            # climb again so the baseline can recover before retrying
            enter(STEP1)

        # 3. Propose the next trial from the gradient at the current point.
        bundle = gradients(pulse)
        grad_u = bundle.grad_amplitudes
        grad_t = bundle.grad_duration

        if phase == STEP2 and abs(grad_t) <= TIME_GRADIENT_FLOOR:
            event = event or EVENT_DEGENERATE_TIME_GRADIENT
            enter(STEP1)

        trial = None  # the next proposal, if any
        if refresh:
            pass  # next iteration re-measures the baseline instead
        elif phase == STEP1:
            if float(np.max(np.abs(grad_u))) <= CONTROL_GRADIENT_FLOOR:
                event = event or EVENT_STALL_STEP1
            else:
                if restart:
                    # the re-measurement just evaluated the model at pulse
                    step[STEP1] = _restart_climb_step(
                        model, pulse, j_model_rec, grad_u, config, psi0, target
                    )
                trial, next_dot = _step_along(pulse, step[STEP1], grad_u, grad_u)
                rhs = j_base + ALPHA * step[STEP1] * next_dot
        else:
            du = grad_u / grad_t
            dt_change = -float(np.sum(du * du))
            while (step[STEP2] > D_MIN
                   and pulse.duration_s + step[STEP2] * dt_change <= 0.0):
                step[STEP2] = max(step[STEP2] * BACKTRACK_FACTOR, D_MIN)
            new_duration = pulse.duration_s + step[STEP2] * dt_change
            if new_duration <= 0.0:
                event = event or EVENT_DEGENERATE_TIME_GRADIENT
                enter(STEP1)
            else:
                trial, next_dot = _step_along(pulse, step[STEP2], du, grad_u)
                trial = trial.with_duration(new_duration)
                rhs = BETA * j_base
        pending = (
            None if trial is None
            else _Proposal(phase, trial, j_base, next_dot, step[phase], rhs)
        )

        records.append(
            IterationRecord(
                n=n,
                phase=tried.kind,
                t_seconds=pulse.duration_s,
                j_oracle=j_trial,
                j_model=j_model_rec,
                step_size_used=tried.step_size,
                accepted=accepted,
                backtracks=backtracks,
                measurements_this_iter=ledger.total_measurements - charged,
                j_reference=tried.j_reference,
                grad_dot=tried.grad_dot,
                acceptance_rhs=tried.rhs,
                threshold=threshold,
                event=event,
            )
        )

        # 4. Stall termination: duration unchanged over a full window spent
        #    entirely at target fidelity.
        if j_base >= config.target_fidelity:
            incumbent = pulse
            if at_target_since is None:
                at_target_since = n
        else:
            at_target_since = None
        if at_target_since is not None and n - at_target_since >= STALL_WINDOW:
            t_then = records[-1 - STALL_WINDOW].t_seconds
            if t_then - pulse.duration_s < STALL_EPSILON_T_S:
                termination = "stalled"
                break

    # The returned pulse is the latest state that met the target fidelity;
    # a run cut off mid way through a shrink-and-recover cycle falls back
    # to it rather than reporting the half-recovered endpoint.  Runs that
    # never met the target return their last state.
    final_pulse = incumbent if incumbent is not None else pulse
    # a report-time diagnostic, not part of the loop: a detached replay
    # of the same instrument, charged to no run ledger
    final_full = (
        None if backend is None else ExperimentBackend(experiment).fidelity_full(final_pulse)
    )
    return OptimizationResult(
        mode=mode,
        final_pulse=final_pulse,
        records=records,
        termination=termination,
        ledger=ledger,
        final_model_fidelity=model_fidelity(model, final_pulse, psi0, target)[0],
        final_full_fidelity=final_full,
    )


def verify_trace_invariants(records, config: OptimizerConfig) -> dict:
    """Replay a trace's acceptance inequalities and phase rules exactly.

    Checks, from the logged values alone: every accepted climb record
    satisfies j_oracle >= j_reference + ALPHA * step * grad_dot; every
    accepted shrink record satisfies j_oracle >= BETA * j_reference (both
    recomputed bit-exactly and cross-checked against the logged rhs);
    durations never increase, and change only at accepted shrink records;
    and any record whose measured fidelity falls below the scheduled
    threshold is followed by a climb record at identical duration.
    Raises ValueError naming the first offending record; returns summary
    counts otherwise.
    """
    n_accepted = 0
    n_step2_accepted = 0
    n_subthreshold = 0
    previous = None
    for record in records:
        if record.accepted:
            n_accepted += 1
            if record.phase == STEP1:
                rhs = record.j_reference + ALPHA * record.step_size_used * record.grad_dot
            elif record.phase == STEP2:
                rhs = BETA * record.j_reference
                n_step2_accepted += 1
            else:
                raise ValueError(f"record {record.n}: unknown phase {record.phase!r}")
            if record.step_size_used > 0.0 and rhs != record.acceptance_rhs:
                raise ValueError(
                    f"record {record.n}: logged acceptance_rhs {record.acceptance_rhs!r} "
                    f"does not reproduce from its own fields ({rhs!r})"
                )
            if not record.j_oracle >= rhs:
                raise ValueError(
                    f"record {record.n}: accepted {record.phase} violates its "
                    f"acceptance inequality ({record.j_oracle!r} < {rhs!r})"
                )
        if previous is not None:
            if record.t_seconds > previous.t_seconds:
                raise ValueError(
                    f"record {record.n}: duration increased "
                    f"({previous.t_seconds!r} -> {record.t_seconds!r})"
                )
            if record.t_seconds != previous.t_seconds and not (
                record.accepted and record.phase == STEP2
            ):
                raise ValueError(
                    f"record {record.n}: duration changed outside an accepted "
                    "shrink step"
                )
            if previous.j_oracle < lower_threshold(previous.n, config):
                n_subthreshold += 1
                if record.phase != STEP1:
                    raise ValueError(
                        f"record {record.n}: fidelity {previous.j_oracle!r} fell below "
                        f"threshold at n={previous.n} but the next phase is not a climb"
                    )
                if record.t_seconds != previous.t_seconds:
                    raise ValueError(
                        f"record {record.n}: duration moved during a forced "
                        "return to climbing"
                    )
        previous = record
    return {
        "records": len(records),
        "accepted": n_accepted,
        "accepted_step2": n_step2_accepted,
        "subthreshold_returns": n_subthreshold,
    }
