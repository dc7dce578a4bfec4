"""Noise channels layered on top of the ideal pulse algebra.

Physical content:

* quasi-static dephasing — one Gaussian detuning draw per shot (shared by all
  ions by default, per-ion with correlated_dephasing=False); the D level
  accrues phase detuning_SD * t, the H level detuning_H * t with
  detuning_H = dephasing_ratio_H * detuning_SD (same field fluctuation seen by
  a more sensitive transition);
* amplitude errors — every drive's area is scaled by a per-shot factor
  1 + N(0, amplitude_error_sigma), drawn per sequence step (ShotNoise's
  amplitude_factors, which protocol.run_shot multiplies in) so conditional
  branches never shift the draw stream;
* depolarizing — after each carrier/sideband pulse the addressed ion's {S,D}
  subspace suffers rho -> (1-3p/4) rho + (p/4)(X rho X + Y rho Y + Z rho Z).
  Hide pulses are exempt: a {S,D} error while an ion is hidden would leak
  population into H permanently, which is not what this channel models;
* detection error — the reported PMT outcome flips with probability epsilon
  while the collapse follows the true outcome (trap.fluorescence_measure).

Durations are bookkeeping inputs to the dephasing integral: a pulse of area
theta lasts (theta/pi) * t_pi for its pulse class, detection lasts a fixed
window, waits last their nominal value.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimensionMismatch
from . import trap
from .trap import BlueSideband, Carrier, Detect, Hide, Wait

#: Draw-stream tag separating the run stream from the shot-noise stream.
RUN_STREAM_TAG = 0x7E1E
#: Shots per draw block: shot i of a seed takes row i % SHOT_BLOCK of its
#: block i // SHOT_BLOCK's streams. A stream-layout constant, not a setting.
SHOT_BLOCK = 64

# Embedded single-site Pauli operators: index 0..2 -> X, Y, Z acting on the
# {S, D} subspace of a 3-level ion (identity on H) or on a plain qubit.
_PAULI3 = (
    np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=np.complex128),
    np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 1]], dtype=np.complex128),
    np.array([[1, 0, 0], [0, -1, 0], [0, 0, 1]], dtype=np.complex128),
)
_PAULI2 = (
    np.array([[0, 1], [1, 0]], dtype=np.complex128),
    np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    np.array([[1, 0], [0, -1]], dtype=np.complex128),
)


def _site_paulis(dim: int):
    if dim == 2:
        return _PAULI2
    if dim == 3:
        return _PAULI3
    raise DimensionMismatch(f"no embedded Pauli set for subsystem dim {dim}")


@dataclass(frozen=True)
class PulseDurations:
    """Duration table in microseconds (pi-pulse times; detect is a window)."""

    carrier_pi: float = 10.0
    sideband_pi: float = 100.0
    hide_pi: float = 10.0
    detect: float = 250.0

    def __post_init__(self):
        for name in ("carrier_pi", "sideband_pi", "hide_pi", "detect"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"pulse duration {name} must be positive")

    def of(self, pulse: trap.Pulse) -> float:
        if isinstance(pulse, Carrier):
            return self.carrier_pi * pulse.theta / math.pi
        if isinstance(pulse, BlueSideband):
            return self.sideband_pi * pulse.theta / math.pi
        if isinstance(pulse, Hide):
            return self.hide_pi * pulse.theta / math.pi
        if isinstance(pulse, Wait):
            return float(pulse.duration_us)
        if isinstance(pulse, Detect):
            return self.detect
        raise DimensionMismatch(f"unknown pulse type {type(pulse).__name__}")


@dataclass(frozen=True)
class NoiseConfig:
    detuning_sigma_SD: float = 0.0       # rad/us
    detuning_bias_SD: float = 0.0        # rad/us, deterministic offset
    dephasing_ratio_H: float = 2.0       # detuning_H / detuning_SD
    amplitude_error_sigma: float = 0.0   # relative pulse-area error
    depolarizing_per_pulse: float = 0.0  # probability parameter p
    detection_error: float = 0.0         # reported-outcome flip probability
    correlated_dephasing: bool = True    # shared detuning draw for all ions
    pulse_durations: PulseDurations = field(default_factory=PulseDurations)
    # Optional step-id whitelist restricting where depolarizing attaches
    # (diagnostic hook; None = every carrier/sideband pulse).
    depolarizing_steps: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.detuning_sigma_SD < 0 or self.amplitude_error_sigma < 0:
            raise ConfigError("noise sigmas must be nonnegative")
        if not 0.0 <= self.depolarizing_per_pulse <= 1.0:
            raise ConfigError("depolarizing_per_pulse must be in [0, 1]")
        if not 0.0 <= self.detection_error <= 1.0:
            raise ConfigError("detection_error must be in [0, 1]")
        if self.dephasing_ratio_H < 0:
            raise ConfigError("dephasing_ratio_H must be nonnegative")
        if self.depolarizing_steps is not None:
            object.__setattr__(
                self, "depolarizing_steps", tuple(int(s) for s in self.depolarizing_steps)
            )

    @property
    def is_noiseless(self) -> bool:
        return (
            self.detuning_sigma_SD == 0.0
            and self.detuning_bias_SD == 0.0
            and self.amplitude_error_sigma == 0.0
            and self.depolarizing_per_pulse == 0.0
            and self.detection_error == 0.0
        )

    def depolarizing_applies(self, step_id: int) -> bool:
        if self.depolarizing_per_pulse == 0.0:
            return False
        return self.depolarizing_steps is None or step_id in self.depolarizing_steps


@dataclass(frozen=True)
class ShotNoise:
    """Frozen per-shot noise realisation (one entry per ion / sequence step).

    Built by sample_shot_noise, which gives the layout of the draws; sampled
    for several shots at once, each array gains a leading shot axis.
    """

    detuning_SD: np.ndarray        # rad/us, per ion
    detuning_H: np.ndarray         # rad/us, per ion
    amplitude_factors: np.ndarray  # unitless, indexed by step_id - 1
    depol_u: np.ndarray            # uniform per step: which Pauli, if any, a drive draws
    meas_u: np.ndarray             # two uniforms per step: a readout's collapse, then its report


def sample_shot_noise(
    config: NoiseConfig,
    master_seed: int | np.ndarray,
    shot_index: int | np.ndarray,
    n_ions: int = 3,
    n_steps: int = 35,
) -> ShotNoise:
    """Deterministic draw keyed by (master_seed, shot_index) only.

    Shots are drawn in blocks of SHOT_BLOCK: shot i of a seed takes row
    i % SHOT_BLOCK of two streams keyed by its block b = i // SHOT_BLOCK.
    The noise stream [seed, b] draws one (SHOT_BLOCK, n_g + n_steps) standard
    normal block: per row the detuning first (n_g = 1 draw when correlated,
    n_ions otherwise), then the per-step amplitude factors; it is skipped when
    both sigmas are 0. The run stream [seed, b, RUN_STREAM_TAG] draws the
    (SHOT_BLOCK, n_steps) depolarizing uniforms, then the (SHOT_BLOCK,
    n_steps, 2) readout pairs. Whole blocks are drawn whatever rows are asked
    for, so a shot's draws depend on no other shot. A 1-D array of shot
    indices stacks the shots' draws; `master_seed` is one seed or one per shot.
    """
    lead = np.shape(shot_index)
    index = np.asarray(shot_index).reshape(-1)
    seeds = np.broadcast_to(np.asarray(master_seed, dtype=object), lead).reshape(-1)
    n_g = 1 if config.correlated_dephasing else n_ions
    g = np.zeros((index.size, n_g))
    z = np.zeros((index.size, n_steps))
    depol_u = np.empty((index.size, n_steps))
    meas_u = np.empty((index.size, n_steps, 2))
    blocks: dict[tuple[int, int], list[int]] = {}
    for k, (seed, shot) in enumerate(zip(seeds.tolist(), index.tolist())):
        blocks.setdefault((int(seed), shot // SHOT_BLOCK), []).append(k)
    # With both sigmas zero every noise-stream draw is multiplied by 0, so none is made.
    draw_noise = config.detuning_sigma_SD != 0.0 or config.amplitude_error_sigma != 0.0
    for key, where in blocks.items():
        rows = index[where] % SHOT_BLOCK
        if draw_noise:
            normal = np.random.default_rng(key).standard_normal((SHOT_BLOCK, n_g + n_steps))[rows]
            g[where], z[where] = normal[:, :n_g], normal[:, n_g:]
        rng = np.random.default_rng(key + (RUN_STREAM_TAG,))
        depol_u[where] = rng.random((SHOT_BLOCK, n_steps))[rows]
        meas_u[where] = rng.random((SHOT_BLOCK, n_steps, 2))[rows]
    det_sd = config.detuning_bias_SD + config.detuning_sigma_SD * g * np.ones(n_ions)
    drawn = (det_sd, config.dephasing_ratio_H * det_sd, 1.0 + config.amplitude_error_sigma * z, depol_u, meas_u)
    return ShotNoise(*(a.reshape(lead + a.shape[1:]) for a in drawn))


def sample_pauli_index(u: np.ndarray, p: float) -> np.ndarray:
    """Map depolarizing uniforms to the unraveling's Pauli: -1 for none, else 0..2 (X, Y, Z)."""
    k = np.full(u.shape, -1)
    hit = u >= 1.0 - 0.75 * p
    k[hit] = np.minimum(((u[hit] - (1.0 - 0.75 * p)) / (0.25 * p)).astype(int), 2)
    return k


@functools.lru_cache(maxsize=None)
def depolarizing_superop(p: float, site_dim: int = 3) -> np.ndarray:
    """The depolarizing channel on one site as a (d*d, d*d) superoperator.

    Acts on the row-major (site, site') pair: vec(out) = S @ vec(rho), with
    S = (1 - 3p/4) I + (p/4) sum_k sigma_k (x) conj(sigma_k). Read-only; cached
    per (p, site_dim).
    """
    d = site_dim
    sup = (1.0 - 0.75 * p) * np.eye(d * d, dtype=np.complex128)
    for sig in _site_paulis(d):
        sup = sup + 0.25 * p * np.kron(sig, sig.conj())
    sup.flags.writeable = False
    return sup


def depolarize_density_tensor(rho_t: np.ndarray, site: int, p: float,
                              site_dim: int = 3) -> np.ndarray:
    """Depolarizing channel on one site of a (dims + dims) density tensor."""
    n_axes = rho_t.ndim // 2
    d = site_dim
    sup = depolarizing_superop(p, d).reshape(d, d, d, d)
    out = np.tensordot(sup, rho_t, axes=([2, 3], [site, site + n_axes]))
    return np.moveaxis(out, [0, 1], [site, site + n_axes])
