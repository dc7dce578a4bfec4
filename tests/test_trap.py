"""Pulse unitaries and the trajectory engine's drives and readouts.

The rotation-matrix cases here were computed by hand from the closed form
R(theta, phi) = [[cos(t/2), -i e^{i phi} sin(t/2)],
                 [-i e^{-i phi} sin(t/2), cos(t/2)]]
acting on (lower, upper) = (S, D); they pin the sign/phase conventions that
every sequence milestone depends on.
"""
import math

import numpy as np
import pytest

from teleion.errors import DimensionMismatch, InvariantViolation
from teleion.trap import (
    D,
    H,
    S,
    Carrier,
    Detect,
    Hide,
    Outcome,
    Wait,
    apply_pulse,
    bright_projector_mask,
    fluorescence_measure,
    hide_local,
    rotation_2x2,
    sideband_local,
)

PI = math.pi
SQ2 = 1 / math.sqrt(2)


@pytest.mark.parametrize(
    "theta,phi,expected",
    [
        (PI, 0.0, np.array([[0, -1j], [-1j, 0]])),               # -i sigma_x
        (PI, 0.5 * PI, np.array([[0, 1], [-1, 0]])),
        (PI, 1.5 * PI, np.array([[0, -1], [1, 0]])),
        (0.5 * PI, 1.5 * PI, SQ2 * np.array([[1, -1], [1, 1]])),
        (0.5 * PI, 0.5 * PI, SQ2 * np.array([[1, 1], [-1, 1]])),
        (0.5 * PI, PI, SQ2 * np.array([[1, 1j], [1j, 1]])),
    ],
)
def test_rotation_frozen_matrices(theta, phi, expected):
    assert np.allclose(rotation_2x2(theta, phi), expected, atol=1e-12)


def test_rotation_phase_shift_inverts():
    for theta, phi in [(0.3, 0.7), (PI / 2, 0.0), (PI, 1.1)]:
        r = rotation_2x2(theta, phi)
        r_inv = rotation_2x2(theta, phi + PI)
        assert np.allclose(r_inv @ r, np.eye(2), atol=1e-12)


def test_composed_carrier_pairs():
    # R(pi,0) then R(pi,pi/2) composes to -i sigma_z; pins the Z-correction.
    z = rotation_2x2(PI, 0.5 * PI) @ rotation_2x2(PI, 0.0)
    assert np.allclose(z, -1j * np.diag([1, -1]), atol=1e-12)


def test_hide_swaps_s_and_h():
    u = hide_local(PI, 0.0)
    assert np.allclose(u[:, S], -1j * np.eye(3)[:, H], atol=1e-12)  # S -> -iH
    assert np.allclose(u[:, D], np.eye(3)[:, D], atol=1e-12)        # D untouched
    # unhide with phase pi undoes hide(pi, 0) exactly
    assert np.allclose(hide_local(PI, PI) @ u, np.eye(3), atol=1e-12)


def test_sideband_couples_s_n_to_d_nplus1():
    nc = 4
    u = sideband_local(PI, 0.0, nc)  # (3*nc, 3*nc) on (level, fock)

    def idx(level, n):
        return level * nc + n

    # |S,0> -> -i|D,1> under a pi pulse
    v = np.zeros(3 * nc)
    v[idx(S, 0)] = 1.0
    out = u @ v
    assert np.isclose(out[idx(D, 1)], -1j, atol=1e-12)
    # |D,0> and H levels are fixed points
    for fixed in [idx(D, 0), idx(H, 0), idx(H, 2)]:
        v = np.zeros(3 * nc)
        v[fixed] = 1.0
        assert np.allclose(u @ v, v, atol=1e-12)


def test_sideband_area_scales_with_sqrt_n():
    nc = 4
    # A pulse of area pi/sqrt(2) is a half flip on n=0 but a full pi on n=1.
    u = sideband_local(PI / math.sqrt(2), 0.0, nc)
    v1 = np.zeros(3 * nc)
    v1[S * nc + 1] = 1.0
    out = u @ v1
    assert np.isclose(abs(out[D * nc + 2]), 1.0, atol=1e-12)


def test_top_fock_fixed_point_guard():
    # |S, nc-1> cannot couple upward; the unitary leaves it alone.
    nc = 3
    u = sideband_local(0.77, 0.3, nc)
    v = np.zeros(3 * nc)
    v[S * nc + (nc - 1)] = 1.0
    assert np.allclose(u @ v, v, atol=1e-12)


def ground(shots, n_ions, fock_cutoff):
    """`shots` copies of all ions in S, motion in |n=0>: the trajectory engine's state."""
    psi = np.zeros((shots,) + (3,) * n_ions + (fock_cutoff,), dtype=np.complex128)
    psi[(slice(None),) + (0,) * (n_ions + 1)] = 1.0
    return psi


def test_apply_pulse_carrier_roundtrip():
    psi = apply_pulse(ground(1, 2, 3), Carrier(0, PI, 0.0))
    psi = apply_pulse(psi, Carrier(0, PI, PI))
    assert np.isclose(abs(psi[0, S, S, 0]), 1.0, atol=1e-12)


def test_apply_pulse_rejects_bad_ion():
    with pytest.raises(DimensionMismatch):
        apply_pulse(ground(1, 2, 2), Carrier(5, PI, 0.0))


@pytest.mark.parametrize("step", [Wait(25.0), Detect(0, "pmt1")])
def test_apply_pulse_applies_drives_only(step):
    with pytest.raises(InvariantViolation, match="drives only"):
        apply_pulse(ground(1, 1, 2), step)


def test_bright_projector_counts_s_population():
    mask = bright_projector_mask(2, 2, ion=0)
    assert mask.shape == (3, 3, 2)
    assert mask[S].all() and not mask[D].any() and not mask[H].any()


def test_fluorescence_collapse_and_forcing():
    reported, post = fluorescence_measure(ground(1, 1, 2), 0, np.array([[0.3, 0.9]]))
    assert reported.tolist() == [True]
    assert np.isclose(abs(post[0, S, 0]), 1.0)

    # an equal superposition collapses on the branch its uniform forces:
    # below P(bright) = 1/2 Bright, above it Dark
    psi = apply_pulse(ground(2, 1, 2), Carrier(0, 0.5 * PI, 0.0))
    reported, post = fluorescence_measure(psi, 0, np.array([[0.4, 0.9], [0.6, 0.9]]))
    assert reported.tolist() == [True, False]
    assert np.isclose(abs(post[0, S, 0]), 1.0, atol=1e-12)
    assert np.isclose(abs(post[1, D, 0]), 1.0, atol=1e-12)


def test_detection_error_flips_report_not_state():
    rng = np.random.default_rng(1)
    reported, post = fluorescence_measure(ground(2000, 1, 2), 0, rng.random((2000, 2)), detection_error=0.25)
    # the state is |S>, so every shot's true outcome is Bright and it stays |S>
    assert np.allclose(abs(post[:, S, 0]), 1.0)
    assert 400 < np.count_nonzero(~reported) < 600  # 25% +/- 5 sigma-ish


def test_hidden_population_never_fluoresces():
    psi = apply_pulse(ground(1, 1, 2), Hide(0, PI, 0.0))
    reported, post = fluorescence_measure(psi, 0, np.random.default_rng(2).random((1, 2)))
    assert reported.tolist() == [False]


def test_outcome_flip():
    assert Outcome.BRIGHT.flipped() is Outcome.DARK
    assert Outcome.DARK.flipped() is Outcome.BRIGHT
