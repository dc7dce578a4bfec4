"""Three-level ion register with a shared motional mode.

Level layout per ion: S = 0 (bright qubit ground), D = 1 (metastable qubit
excited), H = 2 (hideout level reached from S, invisible to the PMT together
with D). The trajectory engine's state is one complex array of shape
(shots,) + (3,)*n_ions + (fock_cutoff,), one pure state per shot, with the
motional mode last; protocol.run_shot owns it and keeps the clock.

Pulse zoo:

* Carrier(ion, theta, phi)      — R(theta, phi) on {S, D}, motion untouched.
* Hide(ion, theta, phi)         — same 2x2 rotation on {S, H}.
* BlueSideband(ion, theta, phi) — couples |S,n> <-> |D,n+1> with area
  theta*sqrt(n+1); |D,0> and all H levels are fixed points; the uncoupled
  top state |S, fock_cutoff-1> is held at identity, and both engines refuse
  a sideband that finds more than protocol.TRUNCATION_BOUND there.
* Wait(duration_us)             — identity; only the clock moves.
* Detect(ion, label)            — a readout: fluorescence_measure on shots,
  the exact engine's instrument on density matrices.

apply_pulse applies the three drives and refuses the rest.

The 2x2 rotation convention (basis order: lower level first) is

    R(theta, phi) = [[cos(theta/2),            -i e^{+i phi} sin(theta/2)],
                     [-i e^{-i phi} sin(theta/2), cos(theta/2)         ]]

All sign/phase choices are documented in docs/CONVENTIONS.md; the teleport
sequence reproduces every branch at fidelity 1 under them (see tests).
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvariantViolation

S, D, H = 0, 1, 2


class Outcome(str, enum.Enum):
    BRIGHT = "bright"   # fluorescence seen: population in S
    DARK = "dark"       # no fluorescence: population in D or H

    def flipped(self) -> "Outcome":
        return Outcome.DARK if self is Outcome.BRIGHT else Outcome.BRIGHT


@dataclass(frozen=True)
class Carrier:
    ion: int
    theta: float
    phi: float


@dataclass(frozen=True)
class BlueSideband:
    ion: int
    theta: float
    phi: float


@dataclass(frozen=True)
class Hide:
    ion: int
    theta: float
    phi: float


@dataclass(frozen=True)
class Wait:
    duration_us: float


@dataclass(frozen=True)
class Detect:
    ion: int
    label: str


Pulse = Carrier | BlueSideband | Hide | Wait | Detect


def rotation_2x2(theta: float | np.ndarray, phi: float | np.ndarray) -> np.ndarray:
    """R(theta, phi); arrays of areas or phases give a stack of their broadcast shape + (2, 2)."""
    half = np.asarray(theta) / 2.0
    c, s = np.cos(half), np.sin(half)
    upper = -1j * np.exp(1j * phi) * s
    r = np.empty(np.shape(upper) + (2, 2), dtype=np.complex128)
    r[..., 0, 0] = c
    r[..., 0, 1] = upper
    r[..., 1, 0] = -1j * np.exp(-1j * phi) * s
    r[..., 1, 1] = c
    return r


def carrier_local(theta: float, phi: float) -> np.ndarray:
    """3x3 single-ion matrix: R(theta, phi) on {S, D}, identity on H."""
    u = np.eye(3, dtype=np.complex128)
    u[np.ix_([S, D], [S, D])] = rotation_2x2(theta, phi)
    return u


def hide_local(theta: float, phi: float) -> np.ndarray:
    """3x3 single-ion matrix: R(theta, phi) on {S, H}, identity on D."""
    u = np.eye(3, dtype=np.complex128)
    u[np.ix_([S, H], [S, H])] = rotation_2x2(theta, phi)
    return u


def sideband_local(theta: float, phi: float, fock_cutoff: int) -> np.ndarray:
    """(3*nc x 3*nc) matrix on (ion level, motion), index = level*nc + n.

    Each |S,n>,|D,n+1> block gets R(theta*sqrt(n+1), phi); everything else
    (H levels, |D,0>, the truncated |S, nc-1>) is an exact fixed point, so the
    matrix is unitary at any cutoff.
    """
    nc = fock_cutoff
    u = np.eye(3 * nc, dtype=np.complex128)
    for n in range(nc - 1):
        idx = [S * nc + n, D * nc + n + 1]
        u[np.ix_(idx, idx)] = rotation_2x2(theta * math.sqrt(n + 1), phi)
    return u


def _check_ion(n_ions: int, ion: int) -> None:
    if not 0 <= ion < n_ions:
        raise DimensionMismatch(f"ion index {ion} out of range for {n_ions} ions")


# ---------------------------------------------------------------------------
# The trajectory engine: drives and readouts on a stack of shots, the array
# (shots,) + (3,)*n_ions + (fock_cutoff,). The exact engine applies the local
# matrices above.

def apply_site(psi: np.ndarray, op: np.ndarray, site: int) -> np.ndarray:
    """Apply a single-site operator to subsystem `site` of a stack of shots.

    `op` is one (d, d) matrix for every shot or a stack (shots, d, d) with one
    matrix per shot.
    """
    shape = psi.shape
    x = psi.reshape(shape[0], math.prod(shape[1:site + 1]), shape[site + 1], math.prod(shape[site + 2:]))
    return (op[..., None, :, :] @ x).reshape(shape)


def _rotate(a: np.ndarray, b: np.ndarray, rot: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A 2x2 rotation, or one per shot along a's leading axis, on amplitude pairs (a, b)."""
    r = rot.reshape(rot.shape[:-2] + (1,) * (a.ndim + 2 - rot.ndim) + (2, 2))
    return r[..., 0, 0] * a + r[..., 0, 1] * b, r[..., 1, 0] * a + r[..., 1, 1] * b


def _phased(rot: np.ndarray, phase: np.ndarray | None, upper: int) -> np.ndarray:
    """R @ diag(1, p) with p = phase[..., upper]: the rotations on (S, upper) after that level's phase."""
    if phase is None:
        return rot
    out = np.empty(np.broadcast_shapes(rot.shape[:-2], phase.shape[:-1]) + (2, 2), dtype=np.complex128)
    out[..., 0] = rot[..., 0]
    np.multiply(rot[..., 1], phase[..., upper, None], out=out[..., 1])
    return out


def apply_pulse(psi: np.ndarray, pulse: Pulse, phase: np.ndarray | None = None) -> np.ndarray:
    """A drive on a stack of shots; returns a new array.

    `pulse.theta` and `pulse.phi` may hold one value per shot. `phase`, shape
    (shots, 3), holds factors on the driven ion's S, D and H applied just
    before the drive (a free-evolution phase; S's factor, the frame's, must
    be 1): each 2x2 rotation's upper column takes its level's factor, and
    only the levels the drive leaves alone are multiplied. Waits and readouts
    are not drives and raise.
    """
    if not isinstance(pulse, (Carrier, Hide, BlueSideband)):
        raise InvariantViolation(f"apply_pulse applies drives only, not {type(pulse).__name__}")
    _check_ion(psi.ndim - 2, pulse.ion)
    # Every drive is a set of 2x2 rotations on pairs of levels: {S, D} or
    # {S, H} of the ion, or each |S,n>,|D,n+1> block of a sideband.
    shape, ion = psi.shape, pulse.ion
    lead = (shape[0], math.prod(shape[1:ion + 1]), 3)
    if isinstance(pulse, (Carrier, Hide)):
        upper, idle = (D, H) if isinstance(pulse, Carrier) else (H, D)
        x = psi.reshape(lead + (math.prod(shape[ion + 2:]),)).copy()
        rot = _phased(rotation_2x2(pulse.theta, pulse.phi), phase, upper)
        if phase is not None:
            x[..., idle, :] *= phase[..., idle, None, None]
        x[..., S, :], x[..., upper, :] = _rotate(x[..., S, :], x[..., upper, :], rot)
    else:
        nc = shape[-1]
        x = psi.reshape(lead + (math.prod(shape[ion + 2:-1]), nc)).copy()
        if phase is not None:
            x[..., D, :, 0] *= phase[..., D, None, None]
            x[..., H, :, :] *= phase[..., H, None, None, None]
        for n in range(nc - 1):
            rot = _phased(rotation_2x2(np.multiply(pulse.theta, math.sqrt(n + 1)), pulse.phi), phase, D)
            x[..., S, :, n], x[..., D, :, n + 1] = _rotate(
                x[..., S, :, n], x[..., D, :, n + 1], rot
            )
    return x.reshape(shape)


def bright_projector_mask(n_ions: int, fock_cutoff: int, ion: int) -> np.ndarray:
    """Boolean tensor mask selecting basis states with the ion in S."""
    dims = (3,) * n_ions + (fock_cutoff,)
    grid = np.zeros(dims, dtype=bool)
    sl = [slice(None)] * len(dims)
    sl[ion] = S
    grid[tuple(sl)] = True
    return grid


def fluorescence_measure(
    psi: np.ndarray, ion: int, u: np.ndarray, detection_error: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """Projective S-vs-{D,H} readout of a stack of shots.

    `u`, shape (shots, 2), holds each shot's uniforms: the first decides the
    collapse, the second the report flip. Returns (reported, collapsed):
    reported Bright per shot (bool), and the states collapsed on the *true*
    outcome; with detection error epsilon the report flips with probability
    epsilon.
    """
    _check_ion(psi.ndim - 2, ion)
    flat = psi.reshape(psi.shape[0], math.prod(psi.shape[1:]))
    mask = bright_projector_mask(psi.ndim - 2, psi.shape[-1], ion).reshape(-1)
    p_bright = np.sum(np.abs(flat[..., mask]) ** 2, axis=-1)
    p_bright = np.clip(p_bright, 0.0, 1.0)
    true = u[..., 0] < p_bright

    collapsed = np.where(true[..., None] == mask, flat, 0.0)
    norm = np.linalg.norm(collapsed, axis=-1)
    if np.any(norm == 0.0):
        raise InvariantViolation("measurement collapsed onto a zero branch")
    collapsed = collapsed / norm[..., None]

    reported = true ^ ((detection_error > 0.0) & (u[..., 1] < detection_error))
    return reported, collapsed.reshape(psi.shape)
