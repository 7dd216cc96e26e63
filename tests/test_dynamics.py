"""Dynamics checks: propagation identities and exact-gradient correctness.

The gradient oracle is an independent route: central finite differences
of the fidelity computed through model_fidelity(), with steps h = 1e-6 Hz
for amplitudes and h = 1e-9 s for the duration.  Analytic gradients must
match to 1e-6 relative (1e-9 absolute floor for near-zero derivatives).
model_fidelity() itself is checked against ``reference_state``
(tests/oracles.py), which builds and exponentiates each slice Hamiltonian
on its own.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from belltime.dynamics import (
    MAX_SLICE_TURN_RAD,
    GradientBundle,
    PULSE_HEADER,
    PulseSequence,
    SystemModel,
    _fidelity_and_gradients,
    _model_fidelity,
    closed_form_propagators,
    fidelity_and_gradients,
    model_fidelity,
    random_pulse,
    read_pulse_csv,
    slice_propagators,
    write_pulse_csv,
)
from belltime.linalg import ket, pauli_string, singlet_state
from belltime.recipes import bell_recipe_pulse
from oracles import (
    bits,
    expm_hermitian,
    reference_fidelity_and_gradients,
    reference_model_fidelity,
    reference_slice_propagators,
    reference_state,
    rotated_controls,
    swapped_channels,
)

MODEL = SystemModel(g_hz=217.4)
PSI0 = ket("00")
TARGET = singlet_state()
# (psi0, target) pairs: the Bell problem, a drift eigenstate onto itself,
# and a pair the drift alone never connects.
STATE_PAIRS = [
    (ket("00"), singlet_state()),
    (singlet_state(), singlet_state()),
    (ket("01"), ket("10")),
]


def fd_gradients(model, pulse, psi0, target, h_amp=1e-6, h_time=1e-9):
    """Central finite differences through the propagator (oracle route)."""
    grad_amp = np.zeros_like(pulse.amplitudes_hz)
    for m in range(pulse.n_slices):
        for c in range(4):
            for sign in (+1, -1):
                amps = np.array(pulse.amplitudes_hz)
                amps[m, c] += sign * h_amp
                j = model_fidelity(model, pulse.with_amplitudes(amps), psi0, target)
                grad_amp[m, c] += sign * j / (2.0 * h_amp)
    j_plus = model_fidelity(model, pulse.with_duration(pulse.duration_s + h_time), psi0, target)
    j_minus = model_fidelity(model, pulse.with_duration(pulse.duration_s - h_time), psi0, target)
    return grad_amp, (j_plus - j_minus) / (2.0 * h_time)


def assert_grad_close(analytic, oracle, rel=1e-6, abs_floor=1e-9):
    analytic = np.asarray(analytic, dtype=float)
    oracle = np.asarray(oracle, dtype=float)
    small = np.abs(oracle) < 1e-3
    np.testing.assert_allclose(analytic[~small], oracle[~small], rtol=rel)
    np.testing.assert_allclose(analytic[small], oracle[small], atol=abs_floor * 1e3)


def _labelled(valid, *strategies):
    """Draws of any of ``strategies``, each paired with ``valid``."""
    return st.one_of(*strategies).map(lambda value: (value, valid))


POSITIVE_FLOATS = st.floats(0.0, exclude_min=True, allow_infinity=False)
# (duration, valid): real positive finite scalars of any numeric type are
# valid; bools, complex numbers, arrays, non-numbers and values that are
# not positive and finite are not.
DURATIONS = _labelled(
    True,
    POSITIVE_FLOATS,
    POSITIVE_FLOATS.map(np.float64),
    st.floats(0.0, width=32, exclude_min=True, allow_infinity=False).map(np.float32),
    st.integers(1, 2**53),
    st.integers(1, 2**53).map(np.int64),
) | _labelled(
    False,
    st.booleans(),
    st.booleans().map(np.bool_),
    st.complex_numbers(allow_nan=False, allow_infinity=False),
    st.complex_numbers(allow_nan=False, allow_infinity=False).map(np.complex128),
    POSITIVE_FLOATS.map(lambda x: np.array([x])),
    POSITIVE_FLOATS.map(np.array),
    st.floats(max_value=0.0),
    st.sampled_from([np.nan, np.inf, np.float64(np.nan), np.float64(np.inf)]),
    st.integers(-2**64, 0),
    st.text(max_size=5),
    st.none(),
)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
# (amplitudes, valid): finite real (M, 4) grids, of floats or integers,
# are valid; complex grids, other shapes and non-finite entries are not.
AMPLITUDES = _labelled(
    True,
    arrays(np.float64, st.tuples(st.integers(1, 20), st.just(4)), elements=FINITE),
    arrays(np.int64, st.tuples(st.integers(1, 20), st.just(4))),
) | _labelled(
    False,
    arrays(np.complex128, st.tuples(st.integers(1, 20), st.just(4)),
           elements=st.complex_numbers(allow_nan=False, allow_infinity=False)),
    arrays(np.float64, st.tuples(st.integers(0, 20), st.integers(0, 8).filter(lambda k: k != 4)),
           elements=FINITE),
    arrays(np.float64, st.sampled_from([(0, 4), (4,), (1, 4, 1), (2, 2, 4)]), elements=FINITE),
    arrays(np.float64, st.tuples(st.integers(1, 20), st.just(4)),
           elements=FINITE | st.sampled_from([np.nan, np.inf, -np.inf])).filter(
        lambda a: not np.isfinite(a).all()
    ),
)

# What a near-miss pulse file puts where a number belongs: floats of every
# kind (NaN and the infinities too), small integers, overflow, words, and
# spellings float() and int() take but write_pulse_csv never writes.
NUMBER_TEXTS = (
    st.floats().map(repr)
    | st.integers(-2, 6).map(str)
    | st.sampled_from(["nan", "-inf", "1e999", "0x10", "1_0", "+1", "-0", " 7", "", "x",
                       "2_0e-4", " 5 ", "\u0663", "\uff11", "1\u00a0"])
)

# Pulse files that hold a number as write_pulse_csv never spells one, as
# (metadata, rows): underscores, inner spaces, non-ASCII digits (Arabic-Indic
# and fullwidth), and a no-break or em space in a value, between the metadata
# items or at a row's end.  float(), int(), str.split() or str.strip() take
# each of them.
FOREIGN_SPELLINGS = [
    ("T_seconds=2_0e-4 M=2", ["0,1_0, 5 ,\u0663,0", "1,0,0,0,0"]),
    ("T_seconds=0.001 M=0_1", ["0,1.0,2.0,3.0,4.0"]),
    ("T_seconds=0.001 M=\u0661", ["0,1.0,2.0,3.0,4.0"]),
    ("T_seconds=\uff11e-3 M=1", ["0,1.0,2.0,3.0,4.0"]),
    ("T_seconds=0.001 M=1", ["\u0660,1.0,2.0,3.0,4.0"]),
    ("T_seconds=0.001 M=1", ["0 ,1.0,2.0,3.0,4.0"]),
    ("T_seconds=0.001 M=1", ["0,1.0, 2.0,3.0,4.0"]),
    ("T_seconds=0.001 M=1", ["0,1_000.5,2.0,3.0,4.0"]),
    ("T_seconds=0.001 M=1", ["0,1.0,2.0,3.0,\u0664"]),
    ("T_seconds=0.001 M=1", ["0,1.0,2.0,3.0\u00a0,4.0"]),
    ("T_seconds=0.002\u00a0M=1", ["0,1.0,2.0,3.0,4.0"]),
    ("T_seconds=0.002 M=1", ["0,1.0,2.0,3.0,4.0\u2003"]),
]


def pulse_file(meta: str, rows) -> str:
    """A pulse file's text: the metadata line, the header and ``rows``."""
    return "\n".join([f"# {meta}", PULSE_HEADER, *rows]) + "\n"


# A pulse file whose metadata line starts with a no-break space, which
# pulse_file cannot write: str.strip() would take it off.
NO_BREAK_METADATA = "\u00a0" + pulse_file("T_seconds=0.002 M=1", ["0,1.0,2.0,3.0,4.0"])

# Pulse files whose metadata line starts with more than the one '#' that
# write_pulse_csv writes: str.lstrip("#") would take them all off.
EXTRA_HASH_METADATA = ["#" * n + pulse_file("T_seconds=0.002 M=1", ["0,1.0,2.0,3.0,4.0"])
                       for n in (1, 2)]


@st.composite
def near_miss_pulse_files(draw):
    """The bytes of a pulse file written like ``write_pulse_csv``'s, with some parts off.

    Each part drawn into ``faults`` is spoiled: the metadata (random
    ``key=value`` items, or the two real ones in either order with any
    duration text), the header, the row count, the rows' indices, their
    width (3 or 5 values) or their values (any NUMBER_TEXTS).  With no
    fault the file is valid.  Lines end in LF or CRLF, and one file in
    ten has a few random bytes spliced in.
    """
    faults = draw(st.sets(st.sampled_from(["meta", "header", "count", "index", "width", "value"])))
    m = draw(st.integers(1, 4))
    meta = f"# T_seconds={draw(POSITIVE_FLOATS)!r} M={m}"
    if "meta" in faults:
        keys = st.sampled_from(["T_seconds", "M", "m", "T", ""])
        real = [("T_seconds", "=", draw(NUMBER_TEXTS)), ("M", "=", str(m))]
        items = draw(st.permutations(real) | st.lists(
            st.tuples(keys, st.sampled_from(["=", ""]), NUMBER_TEXTS), max_size=4))
        meta = draw(st.sampled_from(["# ", "#", ""])) + " ".join(map("".join, items))
    header = PULSE_HEADER
    if "header" in faults:
        header = draw(st.sampled_from(
            [PULSE_HEADER[:-7], PULSE_HEADER.upper(), PULSE_HEADER + ",x"]))
    rows = []
    for i in range(m + draw(st.sampled_from([-1, 1])) if "count" in faults else m):
        index = draw(NUMBER_TEXTS) if "index" in faults else str(i)
        width = draw(st.sampled_from([3, 5])) if "width" in faults else 4
        value = NUMBER_TEXTS if "value" in faults else FINITE.map(repr)
        rows.append(",".join([index, *draw(st.lists(value, min_size=width, max_size=width))]))
    data = draw(st.sampled_from(["\n", "\r\n"])).join([meta, header, *rows]).encode()
    if draw(st.integers(0, 9)):
        return data
    at = draw(st.integers(0, len(data)))
    return data[:at] + draw(st.binary(min_size=1, max_size=3)) + data[at:]


class TestPulseSequence:
    def test_validation(self):
        with pytest.raises(ValueError, match="duration"):
            PulseSequence(0.0, np.zeros((5, 4)))
        with pytest.raises(ValueError, match="shape"):
            PulseSequence(1e-3, np.zeros((5, 3)))
        with pytest.raises(ValueError, match="finite"):
            PulseSequence(1e-3, np.full((5, 4), np.nan))

    def test_immutable_amplitudes(self):
        p = PulseSequence(1e-3, np.zeros((3, 4)))
        with pytest.raises(ValueError):
            p.amplitudes_hz[0, 0] = 1.0

    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        p = random_pulse(7, 2.34e-3, 100.0, rng)
        path = tmp_path / "pulse.csv"
        write_pulse_csv(p, path)
        q = read_pulse_csv(path)
        assert q.duration_s == p.duration_s
        np.testing.assert_array_equal(q.amplitudes_hz, p.amplitudes_hz)
        # Identical floats must give the identical fidelity.
        j0 = model_fidelity(MODEL, p, PSI0, TARGET)
        j1 = model_fidelity(MODEL, q, PSI0, TARGET)
        assert j0 == j1

    @given(
        amplitudes=arrays(
            np.float64,
            st.tuples(st.integers(1, 60), st.just(4)),
            elements=st.floats(allow_nan=False, allow_infinity=False)
            | st.sampled_from([-0.0, 5e-324, -2.5e-308, 1e300, -1e300]),
        ),
        duration=POSITIVE_FLOATS | POSITIVE_FLOATS.map(np.float64),
    )
    def test_csv_round_trip_keeps_every_bit(self, tmp_path_factory, amplitudes, duration):
        path = tmp_path_factory.getbasetemp() / "round_trip.csv"
        p = PulseSequence(duration, amplitudes)
        write_pulse_csv(p, path)
        q = read_pulse_csv(path)
        assert q.duration_s.hex() == duration.hex()
        assert np.array_equal(bits(q.amplitudes_hz), bits(amplitudes))

    @given(duration=DURATIONS, amplitudes=AMPLITUDES)
    @example(duration=(True, False), amplitudes=(np.zeros((2, 4)), True))
    @example(duration=(np.array([1e-3]), False), amplitudes=(np.zeros((2, 4)), True))
    @example(duration=(np.float64(2e-3), True), amplitudes=(np.full((2, 4), 1j), False))
    def test_input_validation(self, duration, amplitudes):
        (d, d_valid), (a, a_valid) = duration, amplitudes
        if not (d_valid and a_valid):
            with pytest.raises(ValueError):
                PulseSequence(d, a)
            return
        p = PulseSequence(d, a)
        assert type(p.duration_s) is float and p.duration_s.hex() == float(d).hex()
        assert p.amplitudes_hz.dtype == np.float64 and not p.amplitudes_hz.flags.writeable
        assert np.array_equal(bits(p.amplitudes_hz), bits(np.asarray(a, dtype=np.float64)))

    def test_csv_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("slice,ux1_hz\n0,1\n")
        with pytest.raises(ValueError, match="metadata"):
            read_pulse_csv(path)

    def test_csv_with_only_its_metadata_line(self, tmp_path):
        path = tmp_path / "truncated.csv"
        path.write_text("# T_seconds=0.001 M=3\n")
        with pytest.raises(ValueError, match="truncated.csv: expected header .* end of file"):
            read_pulse_csv(path)

    @pytest.mark.parametrize("meta, rows", FOREIGN_SPELLINGS, ids=[
        "found", "M-underscore", "M-arabic-indic", "T-fullwidth", "index-arabic-indic",
        "index-space", "value-inner-space", "value-underscore", "value-arabic-indic",
        "value-no-break-space", "meta-no-break-space-between", "row-em-space-after"])
    def test_a_spelling_write_pulse_csv_never_writes_names_the_file(self, tmp_path, meta, rows):
        path = tmp_path / "foreign.csv"
        path.write_text(pulse_file(meta, rows), encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
            read_pulse_csv(path)

    @pytest.mark.parametrize("text", [NO_BREAK_METADATA, *EXTRA_HASH_METADATA],
                             ids=["no-break-space", "##", "###"])
    def test_a_metadata_line_after_a_stray_character_names_the_file(self, tmp_path, text):
        path = tmp_path / "stray.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: missing '# T_seconds"):
            read_pulse_csv(path)

    @settings(max_examples=500)
    @given(data=st.binary(max_size=200) | near_miss_pulse_files())
    @example(data=pulse_file(*FOREIGN_SPELLINGS[0]).encode())
    @example(data=pulse_file(*FOREIGN_SPELLINGS[3]).encode())
    @example(data=pulse_file(*FOREIGN_SPELLINGS[6]).encode())
    @example(data=NO_BREAK_METADATA.encode())
    @example(data=EXTRA_HASH_METADATA[1].encode())
    def test_hostile_pulse_files_read_or_name_the_file(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "hostile.csv"
        path.write_bytes(data)
        try:
            pulse = read_pulse_csv(path)
        except ValueError as exc:
            assert str(exc).startswith(f"{path}: ")
        else:
            assert isinstance(pulse, PulseSequence)


@st.composite
def control_stacks(draw):
    """(M, 4) amplitudes, 1 <= M <= 600, and a slice duration, scalar or per slice.

    A drawn share of the amplitudes are exact zeros of either sign.
    """
    m_slices = draw(st.integers(1, 600))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e2, 3e3, 1e6]))
    amps = rng.normal(0.0, scale, size=(m_slices, 4))
    zeros = rng.random((m_slices, 4)) < draw(st.floats(0.0, 1.0))
    amps[zeros] = rng.choice([0.0, -0.0], size=np.count_nonzero(zeros))
    if draw(st.booleans()):
        return amps, draw(st.floats(1e-9, 1e-3))
    return amps, rng.uniform(1e-9, 1e-3, size=m_slices)


def turns(g_hz, amps, dts):
    """Each slice's turn t lambda+ (rad), computed as ``closed_form_propagators`` computes it."""
    x1, y1, x2, y2 = np.pi * amps.T
    return dts * np.hypot((np.pi / 2.0) * g_hz, np.hypot(x1, y1) + np.hypot(x2, y2))


class TestSliceHamiltonian:
    def test_zero_controls_is_pure_drift(self):
        drift = (np.pi / 2) * 217.4 * pauli_string("Z", "Z")
        u, h, _, _ = slice_propagators(MODEL, np.zeros((4, 4)), 2.5e-4)
        np.testing.assert_allclose(h[0], drift)
        np.testing.assert_allclose(u[0], expm_hermitian(drift, 2.5e-4), atol=1e-12)

    def test_single_channel_term(self):
        amps = np.zeros((2, 4))
        amps[1, 2] = 7.0  # ux2
        expected = (np.pi / 2) * 217.4 * pauli_string("Z", "Z") + np.pi * 7.0 * pauli_string("I", "X")
        dts = np.array([3e-4, 7e-4])
        u, h, _, _ = slice_propagators(MODEL, amps, dts)
        np.testing.assert_allclose(h[1], expected)
        np.testing.assert_allclose(u[1], expm_hermitian(expected, 7e-4), atol=1e-12)

    @given(stack=control_stacks(), g_hz=st.floats(1.0, 1e3))
    @example(stack=(np.zeros((3, 4)), 2.5e-4), g_hz=217.4)
    @example(stack=(np.full((2, 4), -0.0), np.array([1e-4, 3e-4])), g_hz=217.4)
    @example(stack=(np.array([[-0.0, 5.0, 0.0, -7.5]]), 1e-9), g_hz=217.4)
    def test_equals_einsum_build_bit_for_bit(self, stack, g_hz):
        # (U, H, w, v) keep the bits of the einsum build, signed zeros included
        amps, dt = stack
        model = SystemModel(g_hz)
        fast = slice_propagators(model, amps, dt)
        reference = reference_slice_propagators(model, amps, dt)
        for got, expected in zip(fast, reference):
            assert got.shape == expected.shape
            assert np.array_equal(bits(got), bits(expected))


@st.composite
def drives(draw):
    """A coupling, (M, 4) applied amplitudes and (M,) slice durations with |H_m| dt_m <= pi.

    Each row drives both spins, spin 1 alone, spin 2 alone, both at equal
    strength (p = q, spin 2's drive a rotation of spin 1's), or neither.
    """
    g_hz = draw(st.floats(1.0, 1e3))
    m_slices = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = rng.normal(0.0, draw(st.sampled_from([1e-3, 1.0, 1e2, 3e3, 1e5])), size=(m_slices, 4))
    kind = rng.integers(0, 5, size=m_slices)
    amps[kind == 1, 2:] = 0.0
    amps[kind == 2, :2] = 0.0
    angle = rng.uniform(0.0, 2.0 * np.pi, size=np.count_nonzero(kind == 3))
    x1, y1 = amps[kind == 3, 0], amps[kind == 3, 1]
    amps[kind == 3, 2] = np.cos(angle) * x1 - np.sin(angle) * y1
    amps[kind == 3, 3] = np.sin(angle) * x1 + np.cos(angle) * y1
    amps[kind == 4] = 0.0
    # |H_m| is the largest |eigenvalue|, lambda+ = hypot(pi g/2, p + q)
    norm = np.hypot(np.pi * g_hz / 2.0, np.pi * (np.hypot(*amps[:, :2].T) + np.hypot(*amps[:, 2:].T)))
    dts = rng.uniform(0.0, 1.0, size=m_slices) * np.pi / norm
    return g_hz, amps, dts


class TestClosedFormPropagators:
    # Tolerances from measurement: over 6,000 stacks drawn as ``drives``
    # draws them (~180,000 slices), the closed form was within 1.14e-15
    # of scipy's expm, within 5.7e-15 of the eigendecomposition and
    # unitary to 1.4e-15.  Each bound is about three times that.
    @given(drive=drives())
    @example(drive=(217.4, np.zeros((3, 4)), np.array([1e-4, 2.5e-4, 7.2e-3])))
    @example(drive=(217.4, np.array([[-0.0, 5.0, 0.0, -7.5], [3.0, 4.0, -4.0, 3.0]]),
                    np.array([1e-9, 2e-3])))
    def test_equals_expm_and_eigendecomposition(self, drive):
        from scipy.linalg import expm

        g_hz, amps, dts = drive
        model = SystemModel(g_hz)
        u = closed_form_propagators(model, amps, dts)
        drift = (np.pi / 2.0) * g_hz * pauli_string("Z", "Z")
        controls = [pauli_string(a, b) for a, b in ("XI", "YI", "IX", "IY")]
        hams = drift + np.pi * np.einsum("mc,cij->mij", amps, np.array(controls))
        assert np.max(np.abs(u - expm(-1j * hams * dts[:, None, None]))) <= 4e-15
        assert np.max(np.abs(u - slice_propagators(model, amps, dts)[0])) <= 1.5e-14
        assert np.max(np.abs(u @ u.conj().swapaxes(-1, -2) - np.eye(4))) <= 4e-15

    @given(stack=control_stacks(), g_hz=st.floats(1.0, 1e3))
    @example(stack=(np.zeros((3, 4)), 2.5e-4), g_hz=217.4)
    @example(stack=(np.full((2, 4), -0.0), np.array([1e-4, 3e-4])), g_hz=217.4)
    def test_a_slice_alone_equals_its_row_of_any_stack_bit_for_bit(self, stack, g_hz):
        # the emulator's duration probes and single pulses rely on this
        amps, dt = stack
        model = SystemModel(g_hz)
        dts = np.broadcast_to(dt, len(amps))
        past = turns(g_hz, amps, dts) > MAX_SLICE_TURN_RAD
        if past.any():  # a stack that holds a slice past the limit raises; the rest stay
            with pytest.raises(ValueError, match="MAX_SLICE_TURN_RAD"):
                closed_form_propagators(model, amps, dt)
            assume(not past.all())
            amps, dts = amps[~past], dts[~past]
            dt = dts
        u = closed_form_propagators(model, amps, dt)
        for m in sorted({0, len(amps) // 2, len(amps) - 1}):
            alone = closed_form_propagators(model, amps[m : m + 1].copy(), float(dts[m]))
            assert np.array_equal(bits(alone[0]), bits(u[m]))
        reversed_rows = closed_form_propagators(model, amps[::-1], dts[::-1])
        assert np.array_equal(bits(reversed_rows[::-1]), bits(u))

    def test_rejects_a_turn_past_its_limit_before_any_overflow(self):
        # A slice may turn through MAX_SLICE_TURN_RAD = t lambda+ and no
        # further; past it, up to turns that overflow, it raises first.
        model = SystemModel(217.4)
        amps = np.array([[1e3, 0.0, 0.0, 0.0]])
        lam_plus = turns(217.4, amps, 1.0)[0]
        with np.errstate(all="raise"):
            closed_form_propagators(model, amps, MAX_SLICE_TURN_RAD / lam_plus * (1 - 1e-12))
            for amps, dt in ((amps, MAX_SLICE_TURN_RAD / lam_plus * (1 + 1e-12)),
                             (np.full((2, 4), 1e200), 1e-4), (np.full((1, 4), 1.7e308), 1e-4)):
                with pytest.raises(ValueError, match="MAX_SLICE_TURN_RAD"):
                    closed_form_propagators(model, amps, dt)


class TestModelFidelity:
    @pytest.mark.parametrize("oracle", [model_fidelity, fidelity_and_gradients])
    def test_public_oracles_reject_bad_states(self, oracle):
        # run_optimization checks its states once; the public functions check every call
        p = random_pulse(3, 1e-3, 100.0, np.random.default_rng(9))
        for psi0, target in ((2.0 * PSI0, TARGET), (PSI0, TARGET * (1 + 1e-6)), (PSI0, np.eye(4))):
            with pytest.raises(ValueError, match="state"):
                oracle(MODEL, p, psi0, target)

    def test_zero_pulse_leaves_basis_state(self):
        p = PulseSequence(5e-3, np.zeros((50, 4)))
        # |00> is a drift eigenstate: only a phase accrues.
        assert abs(model_fidelity(MODEL, p, PSI0, PSI0) - 1.0) < 1e-12

    def test_norm_preserved(self):
        # The overlaps with a complete basis add up to the norm.
        rng = np.random.default_rng(7)
        p = random_pulse(50, 5e-3, 100.0, rng)
        total = sum(model_fidelity(MODEL, p, PSI0, ket(b)) for b in ("00", "01", "10", "11"))
        assert abs(total - 1.0) < 1e-12

    def test_split_composition(self):
        # The second half run from the first half's state equals one pass.
        rng = np.random.default_rng(8)
        amps = rng.uniform(-100, 100, size=(10, 4))
        p = PulseSequence(2e-3, amps)
        mid = reference_state(MODEL, PulseSequence(1e-3, amps[:5]), PSI0)
        second = PulseSequence(1e-3, amps[5:])
        for target in (TARGET, ket("00"), ket("01"), ket("11")):
            assert model_fidelity(MODEL, second, mid, target) == pytest.approx(
                model_fidelity(MODEL, p, PSI0, target), abs=1e-10
            )

    def test_slice_duplication_invariance(self):
        # Repeating every slice twice at the same total T changes nothing.
        rng = np.random.default_rng(9)
        amps = rng.uniform(-100, 100, size=(8, 4))
        p1 = PulseSequence(1.5e-3, amps)
        p2 = PulseSequence(1.5e-3, np.repeat(amps, 2, axis=0))
        for target in (TARGET, ket("00"), ket("01"), ket("11")):
            assert model_fidelity(MODEL, p1, PSI0, target) == pytest.approx(
                model_fidelity(MODEL, p2, PSI0, target), abs=1e-12
            )

    @given(
        amps=st.integers(1, 60).flatmap(
            lambda m: arrays(np.float64, (m, 4), elements=st.floats(-3e3, 3e3))
        ),
        duration=st.floats(1e-6, 6e-3),
        pair=st.sampled_from(range(len(STATE_PAIRS))),
    )
    def test_matches_per_slice_reference(self, amps, duration, pair):
        p = PulseSequence(duration, amps)
        psi0, target = STATE_PAIRS[pair]
        expected = abs(np.vdot(target, reference_state(MODEL, p, psi0))) ** 2
        assert abs(model_fidelity(MODEL, p, psi0, target) - expected) <= 1e-12

    @given(
        amps=st.integers(1, 60).flatmap(
            lambda m: arrays(np.float64, (m, 4), elements=st.floats(-3e3, 3e3))
        ),
        duration=st.floats(1e-9, 6e-3),
        pair=st.sampled_from(range(len(STATE_PAIRS))),
        handed=st.booleans(),
    )
    def test_equals_matmul_loop_bit_for_bit(self, amps, duration, pair, handed):
        p = PulseSequence(duration, amps)
        psi0, target = STATE_PAIRS[pair]
        if handed:  # the optimizer's core, which hands its sweep on
            fast = _model_fidelity(MODEL, p, psi0, target)[0]
        else:
            fast = model_fidelity(MODEL, p, psi0, target)
        assert fast.hex() == reference_model_fidelity(MODEL, p, psi0, target).hex()

    def test_analytic_singlet_recipe(self):
        # Hand-built preparation sequence must hit the target at M = 50.
        pulse = bell_recipe_pulse(217.4, m_slices=50)
        j = model_fidelity(MODEL, pulse, PSI0, TARGET)
        assert j >= 0.99

    @pytest.mark.parametrize(
        "arguments, message",
        [
            (dict(g_hz=0.0), "g_hz must be positive and finite, got 0.0"),
            (dict(g_hz=-5.0), "g_hz must be positive and finite, got -5.0"),
            (dict(g_hz=math.nan), "g_hz must be positive and finite, got nan"),
            (dict(g_hz=math.inf), "g_hz must be positive and finite, got inf"),
            (dict(g_hz="217.4"), "g_hz must be a real number"),
            (dict(g_hz=217.4, m_slices=0), "m_slices must be a positive integer, got 0"),
            (dict(g_hz=217.4, m_slices=-3), "m_slices must be a positive integer, got -3"),
            (dict(g_hz=217.4, m_slices=2.5), "m_slices must be an integer, got 2.5"),
            (dict(g_hz=217.4, m_slices=True), "m_slices must be an integer, got True"),
            (dict(g_hz=1e4), "g_hz = 10000.0 is too strong: at DRIVE_HZ the local segments "
                             "exceed the coupling window"),
        ],
        ids=["g 0", "g -5", "g nan", "g inf", "g text", "M 0", "M -3", "M 2.5", "M True",
             "g too strong"],
    )
    def test_recipe_rejects_bad_arguments_by_name(self, arguments, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            bell_recipe_pulse(**arguments)

    def test_closed_form_diagonal_evolution(self):
        # M = 1, zero controls, |++> input: J against the hand calculation.
        # psi(T) = (e^{-i phi}|00> + e^{i phi}|01> + e^{i phi}|10> + e^{-i phi}|11>)/2
        # with phi = (pi/2) g T, so |<target'|psi>|^2 = cos(phi)^2 / 2 for
        # target' = (|00> + |01>)/sqrt(2).
        plus_plus = 0.5 * np.array([1, 1, 1, 1], dtype=complex)
        target = (ket("00") + ket("01")) / np.sqrt(2)
        for t in (0.3e-3, 1.0e-3, 2.2999e-3):
            p = PulseSequence(t, np.zeros((1, 4)))
            j = model_fidelity(MODEL, p, plus_plus, target)
            phi = (np.pi / 2) * 217.4 * t
            assert j == pytest.approx(np.cos(phi) ** 2 / 2.0, abs=1e-12)


class TestGradients:
    def test_bundle_shape(self):
        rng = np.random.default_rng(0)
        p = random_pulse(5, 1e-3, 80.0, rng)
        b = fidelity_and_gradients(MODEL, p, PSI0, TARGET)
        assert isinstance(b, GradientBundle)
        assert b.grad_amplitudes.shape == (5, 4)
        assert b.fidelity == model_fidelity(MODEL, p, PSI0, TARGET)

    @given(
        amps=st.integers(1, 60).flatmap(
            lambda m: arrays(np.float64, (m, 4), elements=st.floats(-400.0, 400.0))
        ),
        zero_rows=st.lists(st.integers(0, 59), max_size=10),
        duration=st.floats(1e-4, 6e-3),
    )
    def test_handed_decomposition_changes_nothing(self, amps, zero_rows, duration):
        # Zero-drive rows leave the bare, doubly degenerate ZZ Hamiltonian.
        # The optimizer's gradient core takes the sweep (decomposition and
        # forward states) that _model_fidelity built, as its memo hands it on.
        amps[[r for r in zero_rows if r < len(amps)]] = 0.0
        p = PulseSequence(duration, amps)
        evaluated, sweep = _model_fidelity(MODEL, p, PSI0, TARGET)
        decomposition, states = sweep
        plain = fidelity_and_gradients(MODEL, p, PSI0, TARGET)
        for handed in (
            _fidelity_and_gradients(MODEL, p, PSI0, TARGET),
            _fidelity_and_gradients(MODEL, p, PSI0, TARGET, sweep),
        ):
            assert np.array_equal(bits(handed.grad_amplitudes), bits(plain.grad_amplitudes))
            assert bits(handed.grad_duration) == bits(plain.grad_duration)
            assert bits(handed.fidelity) == bits(plain.fidelity)
        assert bits(model_fidelity(MODEL, p, PSI0, TARGET)) == bits(plain.fidelity)
        assert bits(evaluated) == bits(plain.fidelity)
        # the sweep holds the pulse's own decomposition, as recomputed
        for kept, fresh in zip(decomposition, slice_propagators(
                MODEL, p.amplitudes_hz, p.slice_duration_s)):
            assert np.array_equal(bits(kept), bits(fresh))
        assert np.array_equal(states[0], PSI0)

    @given(
        amps=st.integers(1, 80).flatmap(
            lambda m: arrays(np.float64, (m, 4), elements=st.floats(-3e3, 3e3))
        ),
        zero_rows=st.lists(st.integers(0, 79), max_size=20),
        duration=st.floats(1e-9, 6e-3),
        pair=st.sampled_from(range(len(STATE_PAIRS))),
    )
    @example(
        amps=np.array([[1e6, -1e6, 0.0, 3e3], [0.0, 0.0, 0.0, 0.0], [-1e6, 2.5, 1e6, -1e6]]),
        zero_rows=[], duration=2.3e-3, pair=0,
    )
    @example(amps=np.zeros((7, 4)), zero_rows=[], duration=1e-9, pair=2)
    def test_equals_slice_first_reference_bit_for_bit(self, amps, zero_rows, duration, pair):
        # Integer views tell -0.0 from +0.0; zero-drive rows leave the
        # bare, doubly degenerate ZZ Hamiltonian.
        amps[[r for r in zero_rows if r < len(amps)]] = 0.0
        p = PulseSequence(duration, amps)
        psi0, target = STATE_PAIRS[pair]
        fast = fidelity_and_gradients(MODEL, p, psi0, target)
        reference = reference_fidelity_and_gradients(MODEL, p, psi0, target)
        assert fast.grad_amplitudes.flags.c_contiguous
        assert np.array_equal(bits(fast.grad_amplitudes), bits(reference.grad_amplitudes))
        assert bits(fast.grad_duration) == bits(reference.grad_duration)
        assert bits(fast.fidelity) == bits(reference.fidelity)

    @pytest.mark.parametrize("m_slices", [1, 5, 50])
    def test_matches_finite_differences(self, m_slices):
        rng = np.random.default_rng(100 + m_slices)
        duration = rng.uniform(1e-3, 6e-3)
        p = random_pulse(m_slices, duration, 100.0, rng)
        b = fidelity_and_gradients(MODEL, p, PSI0, TARGET)
        fd_amp, fd_t = fd_gradients(MODEL, p, PSI0, TARGET)
        assert_grad_close(b.grad_amplitudes, fd_amp)
        assert_grad_close([b.grad_duration], [fd_t])

    def test_zero_pulse_duration_gradient_vanishes(self):
        # |00> is a drift eigenstate, so J(T) is constant at zero drive.
        p = PulseSequence(3e-3, np.zeros((10, 4)))
        b = fidelity_and_gradients(MODEL, p, PSI0, TARGET)
        assert abs(b.grad_duration) < 1e-12
        np.testing.assert_allclose(b.fidelity, 0.0, atol=1e-12)

    def test_gradient_near_optimum_is_small(self):
        pulse = bell_recipe_pulse(217.4, m_slices=50)
        b = fidelity_and_gradients(MODEL, pulse, PSI0, TARGET)
        # Not exactly optimal (J ~ 0.993) but the scale should be modest.
        assert np.max(np.abs(b.grad_amplitudes)) < 5e-3

    def test_degenerate_slice_hamiltonian(self):
        # Zero-drive slices have a doubly degenerate Hamiltonian; the
        # divided-difference kernel must stay finite and correct there.
        amps = np.zeros((3, 4))
        amps[1, 0] = 60.0
        p = PulseSequence(1.2e-3, amps)
        b = fidelity_and_gradients(MODEL, p, PSI0, TARGET)
        fd_amp, fd_t = fd_gradients(MODEL, p, PSI0, TARGET)
        assert_grad_close(b.grad_amplitudes, fd_amp)
        assert_grad_close([b.grad_duration], [fd_t])


class TestSymmetries:
    """The Bell problem's two exact symmetries, in the design model.

    Bounds from measurement, over 1,200 random pulses (1-60 slices, T
    1-5 ms, +-2 kHz, g 150-300 Hz) and the draws below, whose structured
    pulses cancel worse: J moved by at most 1.6e-14, the Noether sum was
    at most 1.3e-14 of sum |u| max |dJ/du|, and the gradients were
    equivariant to 1.2e-12 of their largest entry.  Each bound is six to
    eight times that.
    The gradient checks skip J < 1e-6: a drive the same on both spins
    keeps |00> in the triplet, where J and its gradient are rounding
    noise about zero.
    """

    @settings(max_examples=200)
    @given(
        amps=st.integers(1, 60).flatmap(
            lambda m: arrays(np.float64, (m, 4), elements=st.floats(-2000.0, 2000.0))
        ),
        duration=st.floats(1e-3, 5e-3),
        g_hz=st.floats(150.0, 300.0),
        phi=st.floats(0.0, 2.0 * np.pi),
    )
    def test_rotation_and_swap_keep_j_and_turn_the_gradient(self, amps, duration, g_hz, phi):
        model, pulse = SystemModel(g_hz), PulseSequence(duration, amps)
        bundle = fidelity_and_gradients(model, pulse, PSI0, TARGET)
        transforms = (lambda a: rotated_controls(a, phi), swapped_channels)
        moved = [fidelity_and_gradients(model, pulse.with_amplitudes(transform(amps)), PSI0, TARGET)
                 for transform in transforms]
        assert all(abs(b.fidelity - bundle.fidelity) <= 1e-13 for b in moved)
        assume(bundle.fidelity >= 1e-6)
        grad = bundle.grad_amplitudes
        for transform, b in zip(transforms, moved):
            gap = np.max(np.abs(b.grad_amplitudes - transform(grad)))
            assert gap <= 1e-11 * np.max(np.abs(grad))
        # Noether: d/dphi J(rotated(u, phi)) = 0 at phi = 0
        terms = np.stack([amps[:, 0] * grad[:, 1], -amps[:, 1] * grad[:, 0],
                          amps[:, 2] * grad[:, 3], -amps[:, 3] * grad[:, 2]])
        assert abs(terms.sum()) <= 1e-13 * np.abs(amps).sum() * np.max(np.abs(grad))
