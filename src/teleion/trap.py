"""Three-level ion register with a shared motional mode.

Level layout per ion: S = 0 (bright qubit ground), D = 1 (metastable qubit
excited), H = 2 (hideout level reached from S, invisible to the PMT together
with D). The register state is a tensor over (3,)*n_ions + (fock_cutoff,)
with the motional mode always last; flattening is row-major.

Pulse zoo:

* Carrier(ion, theta, phi)      — R(theta, phi) on {S, D}, motion untouched.
* Hide(ion, theta, phi)         — same 2x2 rotation on {S, H}.
* BlueSideband(ion, theta, phi) — couples |S,n> <-> |D,n+1> with area
  theta*sqrt(n+1); |D,0> and all H levels are fixed points; the uncoupled
  top state |S, fock_cutoff-1> is held at identity, and both engines refuse
  a sideband that finds more than protocol.TRUNCATION_BOUND there.
* Wait(duration_us)             — identity plus elapsed-time bookkeeping.
* Detect(ion, label)            — handled by fluorescence_measure / the
  protocol runner, never by apply_pulse.

The 2x2 rotation convention (basis order: lower level first) is

    R(theta, phi) = [[cos(theta/2),            -i e^{+i phi} sin(theta/2)],
                     [-i e^{-i phi} sin(theta/2), cos(theta/2)         ]]

All sign/phase choices are documented in docs/CONVENTIONS.md; the teleport
sequence reproduces every branch at fidelity 1 under them (see tests).
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatch, InvariantViolation
from .qcore import ATOL_STRUCTURAL

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


@dataclass(frozen=True)
class TrapRegister:
    """Pure-state register plus its clock (immutable).

    A register may hold a stack of shots: `psi` then has shape (shots, dim),
    and `elapsed_us` is a per-shot array.
    """

    n_ions: int
    fock_cutoff: int
    psi: np.ndarray                       # flat, dim 3**n_ions * fock_cutoff (per shot)
    elapsed_us: float | np.ndarray = 0.0

    @property
    def dims(self) -> tuple[int, ...]:
        return (3,) * self.n_ions + (self.fock_cutoff,)

    @property
    def dim(self) -> int:
        return 3 ** self.n_ions * self.fock_cutoff

    def tensor(self) -> np.ndarray:
        return self.psi.reshape(self.psi.shape[:-1] + self.dims)


def initialize(n_ions: int = 3, fock_cutoff: int = 4, shots: int | None = None) -> TrapRegister:
    """All ions in S, motion in |n=0> (Doppler + sideband cooling + pumping).

    With `shots`, a stack of that many identical registers.
    """
    if n_ions < 1 or fock_cutoff < 2:
        raise DimensionMismatch("need n_ions >= 1 and fock_cutoff >= 2")
    lead = () if shots is None else (shots,)
    psi = np.zeros(lead + (3 ** n_ions * fock_cutoff,), dtype=np.complex128)
    psi[..., 0] = 1.0
    return TrapRegister(n_ions, fock_cutoff, psi, np.zeros(lead))


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
# The trajectory engine's drives: local application on flat states with any
# leading (shot) axes. The exact engine applies the local matrices above.

def apply_site(psi: np.ndarray, op: np.ndarray, dims: tuple[int, ...], site: int) -> np.ndarray:
    """Apply a single-site operator to axis `site` of flat states (..., prod(dims)).

    `op` is one (d, d) matrix for every state or a stack (..., d, d) with one
    matrix per state.
    """
    before, after = int(np.prod(dims[:site])), int(np.prod(dims[site + 1:]))
    x = psi.reshape(psi.shape[:-1] + (before, dims[site], after))
    return (op[..., None, :, :] @ x).reshape(psi.shape)


def _rotate(a: np.ndarray, b: np.ndarray, rot: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A 2x2 rotation, or one per state along a's leading axes, on amplitude pairs (a, b)."""
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


def apply_pulse(reg: TrapRegister, pulse: Pulse, phase: np.ndarray | None = None) -> TrapRegister:
    """Unitary pulse application.

    On a stack of shots, `pulse.theta` and `pulse.phi` may hold one value per
    shot. `phase`, shape (..., 3) with one row per shot, holds factors on the
    driven ion's S, D and H applied just before the drive (a free-evolution
    phase; S's factor, the frame's, must be 1): each 2x2 rotation's upper
    column takes its level's factor, and only the levels the drive leaves
    alone are multiplied. Detect is not a unitary; route it through
    fluorescence_measure instead.
    """
    if isinstance(pulse, Detect):
        raise InvariantViolation("Detect steps are measurements, not pulses")
    if isinstance(pulse, Wait):
        return replace(reg, elapsed_us=reg.elapsed_us + float(pulse.duration_us))

    _check_ion(reg.n_ions, pulse.ion)
    # Every drive is a set of 2x2 rotations on pairs of levels: {S, D} or
    # {S, H} of the ion, or each |S,n>,|D,n+1> block of a sideband.
    lead, dims, ion = reg.psi.shape[:-1], reg.dims, pulse.ion
    before = int(np.prod(dims[:ion]))
    if isinstance(pulse, (Carrier, Hide)):
        upper, idle = (D, H) if isinstance(pulse, Carrier) else (H, D)
        x = reg.psi.reshape(lead + (before, 3, int(np.prod(dims[ion + 1:])))).copy()
        rot = _phased(rotation_2x2(pulse.theta, pulse.phi), phase, upper)
        if phase is not None:
            x[..., idle, :] *= phase[..., idle, None, None]
        x[..., S, :], x[..., upper, :] = _rotate(x[..., S, :], x[..., upper, :], rot)
    elif isinstance(pulse, BlueSideband):
        nc = reg.fock_cutoff
        x = reg.psi.reshape(lead + (before, 3, int(np.prod(dims[ion + 1:-1])), nc)).copy()
        if phase is not None:
            x[..., D, :, 0] *= phase[..., D, None, None]
            x[..., H, :, :] *= phase[..., H, None, None, None]
        for n in range(nc - 1):
            rot = _phased(rotation_2x2(np.multiply(pulse.theta, math.sqrt(n + 1)), pulse.phi), phase, D)
            x[..., S, :, n], x[..., D, :, n + 1] = _rotate(
                x[..., S, :, n], x[..., D, :, n + 1], rot
            )
    else:
        raise DimensionMismatch(f"unknown pulse type {type(pulse).__name__}")

    return replace(reg, psi=x.reshape(reg.psi.shape))


def bright_projector_mask(n_ions: int, fock_cutoff: int, ion: int) -> np.ndarray:
    """Boolean tensor mask selecting basis states with the ion in S."""
    dims = (3,) * n_ions + (fock_cutoff,)
    grid = np.zeros(dims, dtype=bool)
    sl = [slice(None)] * len(dims)
    sl[ion] = S
    grid[tuple(sl)] = True
    return grid


def fluorescence_measure(
    reg: TrapRegister,
    ion: int,
    rng: np.random.Generator | np.ndarray,
    detection_error: float = 0.0,
    force: Outcome | None = None,
) -> tuple[Outcome | np.ndarray, Outcome | np.ndarray, TrapRegister]:
    """Projective S-vs-{D,H} readout.

    Returns (true_outcome, reported_outcome, collapsed_register). The state
    collapses according to the *true* outcome; with detection error epsilon the
    reported outcome flips with probability epsilon. `force` selects a branch
    deterministically (replay mode) and raises if that branch has zero weight.

    `rng` is a Generator or the uniforms themselves, shape (..., 2) with one
    row per shot: the first decides the collapse, the second the report flip.
    On a stack of shots each collapses on its own row, and both outcomes are
    boolean arrays (True = Bright) instead of Outcomes.
    """
    _check_ion(reg.n_ions, ion)
    lead = reg.psi.shape[:-1]
    u = rng.random(lead + (2,)) if isinstance(rng, np.random.Generator) else np.asarray(rng)
    mask = bright_projector_mask(reg.n_ions, reg.fock_cutoff, ion).reshape(-1)
    p_bright = np.sum(np.abs(reg.psi[..., mask]) ** 2, axis=-1)
    p_bright = np.clip(p_bright, 0.0, 1.0)

    if force is not None:
        p_forced = p_bright if force is Outcome.BRIGHT else 1.0 - p_bright
        if np.any(p_forced <= ATOL_STRUCTURAL):
            raise InvariantViolation(
                f"forced branch {force.value} has probability {np.min(p_forced):.3e}"
            )
        true = np.full(lead, force is Outcome.BRIGHT)
    else:
        true = u[..., 0] < p_bright

    collapsed = np.where(true[..., None] == mask, reg.psi, 0.0)
    norm = np.linalg.norm(collapsed, axis=-1)
    if np.any(norm == 0.0):
        raise InvariantViolation("measurement collapsed onto a zero branch")
    collapsed = collapsed / norm[..., None]

    reported = true ^ ((detection_error > 0.0) & (u[..., 1] < detection_error))
    post = replace(reg, psi=collapsed)
    if lead:
        return true, reported, post
    as_outcome = {True: Outcome.BRIGHT, False: Outcome.DARK}
    return as_outcome[bool(true)], as_outcome[bool(reported)], post
