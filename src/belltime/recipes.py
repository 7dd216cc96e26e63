"""Hand-constructed reference pulses.

The main export builds the textbook preparation of the entangled target
(|10> - |01>)/sqrt(2) from |00>: a pi/2 x-rotation on both spins, a free
ZZ window accumulating a quarter-pi coupling phase, then local rotations
(y pi/2 followed by x pi on spin 1, y pi on spin 2).  One can check by
direct matrix multiplication that

    [Rx(pi) Ry(pi/2) (x) Ry(pi)] exp(-i (pi/4) ZZ) [Rx(pi/2) (x) Rx(pi/2)] |00>

is the target up to a global phase.  Because |00> and the target are both
ZZ eigenstates, drift accumulated during the local segments cancels to
first order when the free window is shortened by half the local time, so
the discretized pulse stays accurate at moderate drive amplitudes.
"""

from __future__ import annotations

import numpy as np

from .dynamics import PulseSequence

DRIVE_HZ = 2500.0  # amplitude of every rotation


def _rasterize(segments, duration_s: float, m_slices: int) -> np.ndarray:
    """Area-preserving sampling of piecewise-constant channel segments.

    segments: iterable of (t_start, t_end, channel, amplitude_hz).  Each
    slice amplitude is the time average of the segment amplitudes over the
    slice, so every rotation area is represented exactly.
    """
    edges = np.linspace(0.0, duration_s, m_slices + 1)
    dt = duration_s / m_slices
    grid = np.zeros((m_slices, 4))
    for t0, t1, channel, amp in segments:
        overlap = np.minimum(t1, edges[1:]) - np.maximum(t0, edges[:-1])
        grid[:, channel] += amp * np.clip(overlap, 0.0, None) / dt
    return grid


def bell_recipe_pulse(g_hz: float, m_slices: int = 50) -> PulseSequence:
    """Analytic singlet-preparation pulse on the uniform M-slice grid.

    Channel order is (ux1, uy1, ux2, uy2); all rotations are driven at
    +DRIVE_HZ, so a pi/2 rotation lasts 1/(4 DRIVE_HZ) seconds.
    """
    quarter = 1.0 / (4.0 * DRIVE_HZ)  # pi/2 rotation
    half = 1.0 / (2.0 * DRIVE_HZ)  # pi rotation
    head = quarter
    tail = quarter + half
    free = 1.0 / (2.0 * g_hz) - (head + tail) / 2.0
    if free <= 0:
        raise ValueError(f"g_hz = {g_hz} is too strong: at DRIVE_HZ the local segments "
                         "exceed the coupling window")
    total = head + free + tail

    t1 = head + free  # start of the closing local block
    segments = [
        (0.0, head, 0, DRIVE_HZ),  # x pi/2, spin 1
        (0.0, head, 2, DRIVE_HZ),  # x pi/2, spin 2
        (t1, t1 + quarter, 1, DRIVE_HZ),  # y pi/2, spin 1
        (t1 + quarter, t1 + quarter + half, 0, DRIVE_HZ),  # x pi, spin 1
        (t1, t1 + half, 3, DRIVE_HZ),  # y pi, spin 2 (overlaps spin 1 block)
    ]
    return PulseSequence(total, _rasterize(segments, total, m_slices))
