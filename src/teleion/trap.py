"""Three-level ion register with a shared motional mode.

Level layout per ion: S = 0 (bright qubit ground), D = 1 (metastable qubit
excited), H = 2 (hideout level reached from S, invisible to the PMT together
with D). The trajectory engine's state is one complex array of logical shape
(shots,) + (3,)*n_ions + (fock_cutoff,), one pure state per shot, with the
motional mode last; protocol.run_shot owns it and keeps the clock. run_shot
stores it with the shot axis innermost in memory (a moveaxis view of a
(3,)*n_ions + (fock_cutoff, shots) buffer), so each amplitude's shots are one
contiguous run; apply_pulse and fluorescence_measure take any memory order
and write the array they are given in place.

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

drive_pairs is the one definition of the three drives: the level pairs each
rotates and the levels it leaves idle. apply_pulse iterates it on shots (and
refuses the other pulses); protocol._drive_plan writes it into the exact
engine's operators.

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


def drive_pairs(pulse: Carrier | Hide | BlueSideband, fock_cutoff: int):
    """(pairs, idle): the level pairs a drive rotates, and the levels it leaves idle.

    A level is (ion level,) for a carrier or a hide, which leave the motion
    alone, and (ion level, Fock number) for a sideband, whose (ion level,)
    holds every Fock number. Each pair (lower, upper, f) takes R(theta*f,
    phi): {S, D} or {S, H} with f = 1, or each |S,n>,|D,n+1> block with
    f = sqrt(n+1). `idle` lists the D and H levels that no pair touches; the
    sideband's uncoupled |S, fock_cutoff-1> is idle too, but S, the frame,
    never takes a phase.
    """
    if isinstance(pulse, BlueSideband):
        return tuple(((S, n), (D, n + 1), math.sqrt(n + 1)) for n in range(fock_cutoff - 1)), ((D, 0), (H,))
    upper, idle = (D, H) if isinstance(pulse, Carrier) else (H, D)
    return (((S,), (upper,), 1.0),), ((idle,),)


def _check_ion(n_ions: int, ion: int) -> None:
    if not 0 <= ion < n_ions:
        raise DimensionMismatch(f"ion index {ion} out of range for {n_ions} ions")


# ---------------------------------------------------------------------------
# The trajectory engine: drives and readouts on a stack of shots, the array
# (shots,) + (3,)*n_ions + (fock_cutoff,) in any memory order, updated in
# place. The exact engine builds its drives from the same drive_pairs.

def apply_site(psi: np.ndarray, op: np.ndarray, site: int) -> np.ndarray:
    """Apply a single-site operator to subsystem `site` of a stack of shots.

    `op` is one (d, d) matrix for every shot or a stack (shots, d, d) with one
    matrix per shot.
    """
    shape = psi.shape
    x = psi.reshape(shape[0], math.prod(shape[1:site + 1]), shape[site + 1], math.prod(shape[site + 2:]))
    return (op[..., None, :, :] @ x).reshape(shape)


def _rotate(a: np.ndarray, b: np.ndarray, rot: np.ndarray) -> None:
    """A 2x2 rotation, or one per shot along a's leading axis, on amplitude pairs (a, b), in place."""
    r = rot.reshape(rot.shape[:-2] + (1,) * (a.ndim + 2 - rot.ndim) + (2, 2))
    upper = r[..., 0, 1] * b  # a's new value needs the b that the next line overwrites
    np.multiply(r[..., 1, 1], b, out=b)
    b += r[..., 1, 0] * a
    np.multiply(r[..., 0, 0], a, out=a)
    a += upper


def _phased(rot: np.ndarray, phase: np.ndarray | None, upper: int) -> np.ndarray:
    """R @ diag(1, p) with p = phase[..., upper]: the rotations on (S, upper) after that level's phase."""
    if phase is None:
        return rot
    out = np.empty(np.broadcast_shapes(rot.shape[:-2], phase.shape[:-1]) + (2, 2), dtype=np.complex128)
    out[..., 0] = rot[..., 0]
    np.multiply(rot[..., 1], phase[..., upper, None], out=out[..., 1])
    return out


def apply_pulse(psi: np.ndarray, pulse: Pulse, phase: np.ndarray | None = None) -> np.ndarray:
    """A drive on a stack of shots, written into `psi` in place; returns `psi`.

    Each of drive_pairs' pairs takes its 2x2 rotation. `psi` may be any
    strided view of the stack, such as run_shot's shot-innermost one: the
    drive reaches its levels through basic-index views and never reshapes,
    which would silently copy such a view. `pulse.theta` and `pulse.phi` may
    hold one value per shot. `phase`, shape (shots, 3), holds factors on the
    driven ion's S, D and H applied just before the drive (a free-evolution
    phase; S's factor, the frame's, must be 1): each rotation's upper column
    takes its level's factor, and only drive_pairs' idle levels are
    multiplied. Waits and readouts are not drives and raise.
    """
    if not isinstance(pulse, (Carrier, Hide, BlueSideband)):
        raise InvariantViolation(f"apply_pulse applies drives only, not {type(pulse).__name__}")
    _check_ion(psi.ndim - 2, pulse.ion)
    lead = (slice(None),) * (1 + pulse.ion)  # every shot, every level of the ions before the driven one

    def at(level: tuple[int, ...]) -> np.ndarray:  # the view of one drive_pairs level of the driven ion
        return psi[lead + level[:1] + (...,) + level[1:]]

    pairs, idle = drive_pairs(pulse, psi.shape[-1])
    for lower, upper, factor in pairs:
        rot = _phased(rotation_2x2(np.multiply(pulse.theta, factor), pulse.phi), phase, upper[0])
        _rotate(at(lower), at(upper), rot)
    if phase is not None:
        for level in idle:  # each shot's phase factor of the level, in place
            view = at(level)
            view *= phase[:, level[0]].reshape((-1,) + (1,) * (view.ndim - 1))
    return psi


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
    """Projective S-vs-{D,H} readout of a stack of shots, collapsing `psi` in place.

    `u`, shape (shots, 2), holds each shot's uniforms: the first decides the
    collapse, the second the report flip. Returns (reported, psi): reported
    Bright per shot (bool), and `psi` itself, each shot collapsed on its
    *true* outcome (the rejected levels zeroed, the rest divided by the
    shot's norm); with detection error epsilon the report flips with
    probability epsilon. `psi` may be any strided view of the stack; each
    shot's populations are summed from a C-ordered copy, so a shot's result
    depends neither on the memory order nor on the other shots.
    """
    _check_ion(psi.ndim - 2, ion)
    mask = bright_projector_mask(psi.ndim - 2, psi.shape[-1], ion)
    weight = np.abs(psi, order="C").reshape(psi.shape[0], mask.size)
    np.square(weight, out=weight)
    # np.compress keeps each shot's entries contiguous (a boolean index would not)
    p_bright, p_dark = (np.compress(m, weight, axis=1).sum(axis=-1) for m in (mask.ravel(), ~mask.ravel()))
    true = u[..., 0] < np.clip(p_bright, 0.0, 1.0)

    norm = np.sqrt(np.where(true, p_bright, p_dark))
    if np.any(norm == 0.0):
        raise InvariantViolation("measurement collapsed onto a zero branch")
    np.copyto(psi, 0.0, where=true.reshape((-1,) + (1,) * mask.ndim) != mask)
    psi /= norm.reshape((-1,) + (1,) * mask.ndim)

    reported = true ^ ((detection_error > 0.0) & (u[..., 1] < detection_error))
    return reported, psi
