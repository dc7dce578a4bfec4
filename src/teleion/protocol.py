"""Deterministic three-ion teleportation protocol.

The 35-step pulse table teleports an arbitrary qubit state written on ion 1
onto ion 3: a sideband-mediated Bell pair is shared between ions 2 and 3, a
composite-pulse phase gate plus carrier rotations project ions 1-2 onto the
Bell basis via two sequential PMT readouts, and the reported outcomes steer
unitary reconstruction pulses on ion 3. Every classical branch occurs with
probability 1/4 and reconstructs the input exactly in the noiseless limit —
the conditional set is {I, iX, iZ, XZ} up to global phases, keyed on
(pmt1, pmt2) = (S/D, S/D).

Two execution paths share the same sequence objects:

* run_shot — pure-state trajectories with sampled noise, each keyed
  deterministically by (master_seed, shot_index). All shots of a sequence
  advance together as one (shots, 3, 3, 3, fock_cutoff) state; feed-forward
  is a mask over shots. sample_counts is the one source of sampled counts: it
  sums one run_shot call per sequence, or draws from exact_run's P(bright);
* exact_run — density-matrix evolution with measurement instruments and
  channel noise, Gauss-Hermite-averaged over the quasi-static detuning
  distribution. The full register is kept only until the last row that
  touches ion 1, ion 2 or the motion; the rest runs on ion 3's 3x3 state.
  This is the infinite-statistics reference.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DimensionMismatch, InvariantViolation
from .noise import (
    NoiseConfig,
    RUN_STREAM_TAG,
    accrue_phase,
    depolarize_density_tensor,
    depolarizing_superop,
    perturb_pulse,
    phase_exponent,
    sample_pauli_index,
    sample_shot_noise,
    _site_paulis,
)
from .qcore import ATOL_STRUCTURAL, DensityMatrix, PureState, _ptrace, state_fidelity
from . import trap
from .trap import (
    BlueSideband,
    Carrier,
    Detect,
    Hide,
    Outcome,
    S,
    Wait,
    apply_pulse,
    apply_site,
    bright_projector_mask,
    fluorescence_measure,
    initialize,
)

PI = math.pi
N_IONS = 3
N_STEPS = 35
#: The target ion. From the cut on (after row 27 of the standard table) the
#: exact engine keeps only its 3x3 state per quadrature node and branch.
_TARGET = N_IONS - 1
#: First step of the reconstruction/analysis tail, the rows that carry the
#: calibration phase offset. It lies after the cut, so calibration replays
#: rows from here to 33 on the cached ion-3 stack only.
_TAIL_START = 30
#: The mode-dependent analysis row; every row before it is shared by all modes.
_ANALYSIS_ROW = 34
#: Largest population a blue sideband may find on its ion's |S, fock_cutoff-1>,
#: whose partner |D, fock_cutoff> is cut away. The noiseless phase gate puts 0.5
#: there at cutoff 2; paper noise puts 0.012 there at cutoff 3, 2e-4 at 4.
TRUNCATION_BOUND = 0.05


@dataclass(frozen=True)
class InputStateSpec:
    """Input qubit written on ion 1 by R(theta_chi, phi_chi) acting on |S>."""

    theta_chi: float
    phi_chi: float
    label: str = ""

    def ket(self) -> np.ndarray:
        c = math.cos(self.theta_chi / 2.0)
        s = math.sin(self.theta_chi / 2.0)
        return np.array([c, -1j * np.exp(-1j * self.phi_chi) * s])

    def pure(self) -> PureState:
        return PureState(self.ket())


def canonical_inputs() -> tuple[InputStateSpec, ...]:
    """The six axis states of the Bloch sphere, in reporting order."""
    return (
        InputStateSpec(0.0, 0.0, "psi1"),             # |S>
        InputStateSpec(PI, 1.5 * PI, "psi2"),         # |D>
        InputStateSpec(0.5 * PI, PI, "psi3"),         # (|S>+i|D>)/sqrt2
        InputStateSpec(0.5 * PI, 0.5 * PI, "psi4"),   # (|S>-|D>)/sqrt2
        InputStateSpec(0.5 * PI, 0.0, "psi5"),        # (|S>-i|D>)/sqrt2
        InputStateSpec(0.5 * PI, 1.5 * PI, "psi6"),   # (|S>+|D>)/sqrt2
    )


@dataclass(frozen=True)
class FidelityCheck:
    """Row 34 undoes the preparation; row 35's Bright frequency = fidelity."""


@dataclass(frozen=True)
class Tomography:
    """Row 34 becomes the analysis pulse for one measurement basis."""

    basis: str  # "z" | "x" | "y"

    def __post_init__(self):
        if self.basis not in ("z", "x", "y"):
            raise ConfigError(f"unknown tomography basis {self.basis!r}")


Mode = FidelityCheck | Tomography


@dataclass(frozen=True)
class ConditionalPulse:
    detect_label: str
    required: Outcome
    pulse: trap.Pulse


@dataclass(frozen=True)
class SequenceStep:
    step_id: int
    action: trap.Pulse | ConditionalPulse
    comment: str = ""


@dataclass(frozen=True)
class ShotRecord:
    shot_index: int
    pmt1: Outcome
    pmt2: Outcome
    final_outcome: Outcome
    branch: str           # "SS" | "SD" | "DS" | "DD" (pmt1 first, Bright=S)
    leakage_max: float
    elapsed_us: float


def branch_label(pmt1: Outcome, pmt2: Outcome) -> str:
    return ("S" if pmt1 is Outcome.BRIGHT else "D") + (
        "S" if pmt2 is Outcome.BRIGHT else "D"
    )


BRANCHES = ("SS", "SD", "DS", "DD")


def build_sequence(
    input_state: InputStateSpec,
    phase_offset: float = 0.0,
    mode: Mode = FidelityCheck(),
    *,
    standby_wait_us: float = 1.0,
    rephase_wait_us: float = 300.0,
    spin_echo: bool = True,
    reconstruction: bool = True,
) -> tuple[SequenceStep, ...]:
    """The 35-row teleport table for one input state and analysis mode.

    `phase_offset` is added to every pulse phase from row 30 on (the
    reconstruction/analysis tail); it compensates deterministic phase drift
    accumulated between the readouts and the reconstruction.
    `spin_echo=False` replaces the rows 16-18 echo block with markers and
    inverts the two feed-forward conditions (the echo's net iY = ZX flip is
    then applied by the corrections themselves). `reconstruction=False`
    replaces rows 31-33 with markers, exposing the raw branch states.
    """
    phi = phase_offset
    chi_t, chi_p = input_state.theta_chi, input_state.phi_chi

    rows: list[tuple[trap.Pulse | ConditionalPulse, str]] = [
        (Wait(0.0), "397 nm light: Doppler cooling"),
        (Wait(0.0), "729 nm light: sideband cooling to n=0"),
        (Wait(0.0), "397 nm light: optical pumping into S"),
        (BlueSideband(2, 0.5 * PI, 1.5 * PI), "split ion 3 onto the motional mode"),
        (Carrier(1, PI, 1.5 * PI), "flip ion 2 into D"),
        (BlueSideband(1, PI, 0.5 * PI), "close the ion2-ion3 Bell pair"),
        (Wait(standby_wait_us), "standby window"),
        (Hide(2, PI, 0.0), "park target ion in H"),
        (Carrier(0, chi_t, chi_p), "write input state on ion 1"),
        (BlueSideband(1, PI, 1.5 * PI), "move ion 2's qubit onto the motion"),
        (BlueSideband(0, PI / math.sqrt(2.0), 0.5 * PI), "phase gate segment 1/4"),
        (BlueSideband(0, PI, 0.0), "phase gate segment 2/4"),
        (BlueSideband(0, PI / math.sqrt(2.0), 0.5 * PI), "phase gate segment 3/4"),
        (BlueSideband(0, PI, 0.0), "phase gate segment 4/4"),
        (Carrier(0, PI, 0.5 * PI), "echo pulse on ion 1"),
        # The target-ion echo block: without it the ion is simply left parked,
        # and the missing iY (= ZX) flip is absorbed by inverting the two
        # feed-forward conditions below, keeping the noiseless protocol exact.
        (
            Hide(2, PI, PI) if spin_echo else Wait(0.0),
            "bring target back for its echo" if spin_echo else "echo block disabled",
        ),
        (
            Carrier(2, PI, 0.5 * PI) if spin_echo else Wait(0.0),
            "echo pulse on ion 3" if spin_echo else "echo pulse disabled",
        ),
        (
            Hide(2, PI, 0.0) if spin_echo else Wait(0.0),
            "park target ion again" if spin_echo else "echo block disabled",
        ),
        (BlueSideband(1, PI, 0.5 * PI), "return the motional qubit to ion 2"),
        (Carrier(0, 0.5 * PI, 1.5 * PI), "Bell-basis rotation, ion 1 half"),
        (Carrier(1, 0.5 * PI, 0.5 * PI), "Bell-basis rotation, ion 2 half"),
        (Hide(1, PI, 0.0), "shield ion 2 during first readout"),
        (Detect(0, "pmt1"), "PMT readout of ion 1"),
        (Hide(0, PI, 0.0), "shield ion 1 during second readout"),
        (Hide(1, PI, PI), "expose ion 2"),
        (Detect(1, "pmt2"), "PMT readout of ion 2"),
        (Hide(1, PI, 0.0), "park ion 2 for good"),
        (Wait(rephase_wait_us), "rephasing interval"),
        (Hide(2, PI, PI), "release the target ion"),
        (Carrier(2, 0.5 * PI, 1.5 * PI + phi), "rotate target out of the Bell frame"),
    ]

    # With the echo, corrections fire on Dark; without it the echo's iY flip
    # is missing, which is the same as toggling both corrections (ZX = iY).
    fire_on = Outcome.DARK if spin_echo else Outcome.BRIGHT

    def conditional(label: str, pulse: trap.Pulse, text: str):
        if reconstruction:
            return (ConditionalPulse(label, fire_on, pulse), text)
        return (Wait(0.0), f"{text} (reconstruction disabled)")

    rows.append(conditional("pmt1", Carrier(2, PI, phi), "phase flip, first half"))
    rows.append(conditional("pmt1", Carrier(2, PI, 0.5 * PI + phi), "phase flip, second half"))
    rows.append(conditional("pmt2", Carrier(2, PI, phi), "bit flip"))

    if isinstance(mode, FidelityCheck):
        rows.append(
            (Carrier(2, chi_t, chi_p + PI + phi), "undo the input preparation")
        )
    elif mode.basis == "z":
        rows.append((Wait(0.0), "no analysis pulse (Z basis)"))
    elif mode.basis == "x":
        rows.append((Carrier(2, 0.5 * PI, 1.5 * PI + phi), "X-basis analysis pulse"))
    else:
        rows.append((Carrier(2, 0.5 * PI, PI + phi), "Y-basis analysis pulse"))
    rows.append((Detect(2, "final"), "readout of ion 3"))

    steps = tuple(
        SequenceStep(i + 1, action, comment) for i, (action, comment) in enumerate(rows)
    )
    _validate_sequence(steps)
    return steps


def _validate_sequence(steps: tuple[SequenceStep, ...]) -> None:
    if [s.step_id for s in steps] != sorted({s.step_id for s in steps}):
        raise InvariantViolation("step ids must be strictly increasing")
    seen_detects: set[str] = set()
    for s in steps:
        if isinstance(s.action, Detect):
            if s.action.label in seen_detects:
                raise InvariantViolation(f"duplicate detect label {s.action.label!r}")
            seen_detects.add(s.action.label)
        elif isinstance(s.action, ConditionalPulse):
            if isinstance(s.action.pulse, Detect):
                raise InvariantViolation(f"step {s.step_id}: a readout cannot be conditional")
            if s.action.detect_label not in seen_detects:
                raise InvariantViolation(
                    f"step {s.step_id} conditions on future/unknown detect "
                    f"{s.action.detect_label!r}"
                )


def _fmt_angle(x: float) -> str:
    return f"{x / PI:.4f}pi"


def _fmt_pulse(p: trap.Pulse | ConditionalPulse) -> str:
    if isinstance(p, ConditionalPulse):
        return f"if {p.detect_label}={p.required.value}: {_fmt_pulse(p.pulse)}"
    if isinstance(p, Carrier):
        return f"RC_{p.ion + 1}({_fmt_angle(p.theta)}, {_fmt_angle(p.phi)})"
    if isinstance(p, BlueSideband):
        return f"R+_{p.ion + 1}({_fmt_angle(p.theta)}, {_fmt_angle(p.phi)})"
    if isinstance(p, Hide):
        return f"RH_{p.ion + 1}({_fmt_angle(p.theta)}, {_fmt_angle(p.phi)})"
    if isinstance(p, Wait):
        return f"wait {p.duration_us:g} us"
    if isinstance(p, Detect):
        return f"detect ion {p.ion + 1} [{p.label}]"
    raise DimensionMismatch(f"unknown action {type(p).__name__}")


def sequence_text(steps: tuple[SequenceStep, ...]) -> str:
    """Human-readable listing, one numbered row per step."""
    lines = [f"{s.step_id:>2}  {_fmt_pulse(s.action):<44}  {s.comment}" for s in steps]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Sampled path

def _resolve_budget(noise: NoiseConfig, leakage_budget: float | None) -> float:
    if leakage_budget is not None:
        return leakage_budget
    # Amplitude errors physically populate intermediate Fock states; the tight
    # noiseless budget would reject valid noisy runs, so loosen it while still
    # guarding against a genuinely too-small cutoff.
    return 1e-3 if noise.amplitude_error_sigma > 0 else trap.LEAKAGE_BUDGET_DEFAULT


#: X, Y, Z on a three-level ion, indexed by sample_pauli_index's k.
_PAULI_STACK = np.stack(_site_paulis(3))


def run_shot(
    sequence: tuple[SequenceStep, ...],
    noise: NoiseConfig,
    master_seed: int,
    shot_index: int | range | np.ndarray,
    *,
    fock_cutoff: int = 4,
    leakage_budget: float | None = None,
) -> ShotRecord | list[ShotRecord]:
    """Full trajectories through the sequence with sampled noise.

    An int `shot_index` gives one ShotRecord; a range or 1-D array of indices
    gives one record per index. All shots advance together as one
    (shots, 3, 3, 3, fock_cutoff) state, one row at a time. Each shot's
    randomness is keyed by (master_seed, shot_index) alone and its draws are
    indexed by step id, so a skipped conditional pulse never shifts another
    step's noise and a shot's outcomes do not depend on the other shots.
    """
    index = np.atleast_1d(np.asarray(shot_index, dtype=np.int64))
    n_steps = max(s.step_id for s in sequence)
    shot = sample_shot_noise(noise, master_seed, index, N_IONS, n_steps)
    depol_u = np.empty((index.size, n_steps))
    meas_u = np.empty((index.size, n_steps, 2))
    for k, i in enumerate(index):
        rng = np.random.default_rng([int(master_seed), int(i), RUN_STREAM_TAG])
        depol_u[k] = rng.random(n_steps)
        meas_u[k] = rng.random((n_steps, 2))

    reg = initialize(
        N_IONS, fock_cutoff, leakage_budget=_resolve_budget(noise, leakage_budget), shots=index.size
    )
    bright: dict[str, np.ndarray] = {}  # reported Bright per shot, by readout label

    for step in sequence:
        action, col = step.action, step.step_id - 1
        pulse = action.pulse if isinstance(action, ConditionalPulse) else action
        fired = True  # the shots this row acts on
        if isinstance(action, ConditionalPulse):
            fired = bright[action.detect_label] == (action.required is Outcome.BRIGHT)
        # A shot whose condition fails sees a zero-area pulse lasting no time,
        # which is exactly the identity, and draws no Pauli flip.
        reg = accrue_phase(reg, np.where(fired, noise.pulse_durations.of(pulse), 0.0), shot)

        if isinstance(pulse, Detect):
            _true, bright[pulse.label], reg = fluorescence_measure(
                reg, pulse.ion, meas_u[:, col], noise.detection_error
            )
        elif not isinstance(pulse, Wait):  # a wait's time is booked by accrue_phase
            theta = pulse.theta
            if noise.amplitude_error_sigma != 0.0:  # otherwise every factor is exactly 1
                theta = perturb_pulse(pulse, shot, col).theta
            reg = apply_pulse(reg, replace(pulse, theta=np.where(fired, theta, 0.0)))
            if isinstance(pulse, (Carrier, BlueSideband)) and noise.depolarizing_applies(
                step.step_id
            ):
                k = sample_pauli_index(depol_u[:, col], noise.depolarizing_per_pulse)
                hit = (k >= 0) & fired
                if np.any(hit):
                    psi = reg.psi.copy()
                    psi[hit] = apply_site(psi[hit], _PAULI_STACK[k[hit]], reg.dims, pulse.ion)
                    # A flip mid-gate legitimately drives population up the
                    # truncated Fock ladder; the cutoff tripwire only guards
                    # trajectories that are still on the ideal path.
                    reg = replace(
                        reg, psi=psi, leakage_budget=np.where(hit, math.inf, reg.leakage_budget)
                    )

    for label in ("pmt1", "pmt2", "final"):
        if label not in bright:
            raise InvariantViolation(f"sequence produced no {label!r} readout")
    outcome = (Outcome.DARK, Outcome.BRIGHT)
    pmt1, pmt2, final = (bright[label].tolist() for label in ("pmt1", "pmt2", "final"))
    records = [
        ShotRecord(i, outcome[a], outcome[b], outcome[f], branch_label(outcome[a], outcome[b]), leak, t)
        for i, a, b, f, leak, t in zip(
            index.tolist(), pmt1, pmt2, final, reg.leakage_max.tolist(), reg.elapsed_us.tolist()
        )
    ]
    return records[0] if np.ndim(shot_index) == 0 else records


def sample_counts(
    sequences: list[tuple[SequenceStep, ...]],
    noise: NoiseConfig,
    shots: int,
    master_seed: int,
    *,
    p_bright: list[float] | None = None,
    tag: int = 0,
    fock_cutoff: int = 4,
) -> list[int]:
    """Final-readout Bright counts over `shots` shots of each sequence.

    Sequence j draws from stream j. Given every sequence's exact reported
    P(bright), clamped to [0, 1] against roundoff, its count is one binomial
    draw from default_rng([master_seed, tag, j]); otherwise it counts the
    trajectories of one run_shot call over shot indices j * shots + i for
    i < shots. Sampled artefacts rest on these streams, so they must not move.
    """
    if p_bright is not None:
        return [
            int(np.random.default_rng([int(master_seed), tag, j]).binomial(shots, min(max(p, 0.0), 1.0)))
            for j, p in enumerate(p_bright)
        ]
    return [
        sum(
            r.final_outcome is Outcome.BRIGHT
            for r in run_shot(
                seq, noise, master_seed, range(j * shots, (j + 1) * shots), fock_cutoff=fock_cutoff
            )
        )
        for j, seq in enumerate(sequences)
    ]


# ---------------------------------------------------------------------------
# Exact path: density-matrix evolution with measurement instruments.

def _apply_unitary_density(rho_t: np.ndarray, op: np.ndarray, sites) -> np.ndarray:
    n = rho_t.ndim // 2
    if len(sites) == 1:
        (s,) = sites
        out = np.moveaxis(np.tensordot(op, rho_t, axes=([1], [s])), 0, s)
        out = np.moveaxis(np.tensordot(op.conj(), out, axes=([1], [s + n])), 0, s + n)
        return out
    s1, s2 = sites
    out = np.tensordot(op, rho_t, axes=([2, 3], [s1, s2]))
    out = np.moveaxis(out, [0, 1], [s1, s2])
    out = np.tensordot(op.conj(), out, axes=([2, 3], [s1 + n, s2 + n]))
    return np.moveaxis(out, [0, 1], [s1 + n, s2 + n])


def _pulse_op_and_sites(pulse: trap.Pulse, fock_cutoff: int):
    if isinstance(pulse, Carrier):
        return trap.carrier_local(pulse.theta, pulse.phi), (pulse.ion,)
    if isinstance(pulse, Hide):
        return trap.hide_local(pulse.theta, pulse.phi), (pulse.ion,)
    if isinstance(pulse, BlueSideband):
        op = trap.sideband_local(pulse.theta, pulse.phi, fock_cutoff).reshape(
            3, fock_cutoff, 3, fock_cutoff
        )
        return op, (pulse.ion, N_IONS)
    raise DimensionMismatch(f"not a unitary pulse: {type(pulse).__name__}")


# Step labels whose detections split the exact state into reported branches.
_SPLIT_LABELS = ("pmt1", "pmt2")


def _evolve_exact(
    branches: dict[tuple[tuple[str, Outcome], ...], np.ndarray],
    steps,
    noise: NoiseConfig,
    det_sd: np.ndarray,
    det_h: np.ndarray,
    fock_cutoff: int,
) -> tuple[dict[tuple[tuple[str, Outcome], ...], np.ndarray], float]:
    """Full-register evolution of unnormalized, branch-resolved density tensors.

    Branches are keyed by their reported (label, outcome) pairs. A detection in
    `_SPLIT_LABELS` splits every branch on its reported outcome (the collapse
    follows the true outcome); any other detection decoheres in place.
    Returns the branches and the largest population a blue sideband found on
    its ion's |S, fock_cutoff-1>; past TRUNCATION_BOUND that raises.
    """
    eps = noise.detection_error
    truncation = 0.0
    phase_cache: dict[float, np.ndarray] = {}

    def dephase(rho_t, duration):
        if duration == 0.0 or (not np.any(det_sd) and not np.any(det_h)):
            return rho_t
        ph = phase_cache.get(duration)
        if ph is None:
            ph = np.exp(-1j * phase_exponent(N_IONS, fock_cutoff, det_sd, det_h, duration))
            phase_cache[duration] = ph
        nf = ph.reshape(-1)
        flat = rho_t.reshape(nf.size, nf.size)
        return (flat * nf[:, None] * nf.conj()[None, :]).reshape(rho_t.shape)

    branches = dict(branches)
    for step in steps:
        action = step.action
        if isinstance(action, Detect):
            duration = noise.pulse_durations.of(action)
            mask = bright_projector_mask(N_IONS, fock_cutoff, action.ion).reshape(-1)
            bright_d = np.where(mask, 1.0, 0.0)
            dark_d = 1.0 - bright_d
            new_branches: dict = {}
            for key, rho in branches.items():
                rho = dephase(rho, duration)
                flat = rho.reshape(bright_d.size, bright_d.size)
                rho_s = (flat * bright_d[:, None] * bright_d[None, :]).reshape(rho.shape)
                rho_d = (flat * dark_d[:, None] * dark_d[None, :]).reshape(rho.shape)
                if action.label in _SPLIT_LABELS:
                    rep_bright = (1.0 - eps) * rho_s + eps * rho_d
                    rep_dark = eps * rho_s + (1.0 - eps) * rho_d
                    new_branches[key + ((action.label, Outcome.BRIGHT),)] = rep_bright
                    new_branches[key + ((action.label, Outcome.DARK),)] = rep_dark
                else:
                    new_branches[key] = rho_s + rho_d
            branches = new_branches
        elif isinstance(action, Wait):
            for key in list(branches):
                branches[key] = dephase(branches[key], action.duration_us)
        else:
            conditional = isinstance(action, ConditionalPulse)
            pulse = action.pulse if conditional else action
            duration = noise.pulse_durations.of(pulse)
            op, sites = _pulse_op_and_sites(pulse, fock_cutoff)
            depol = isinstance(pulse, (Carrier, BlueSideband)) and noise.depolarizing_applies(
                step.step_id
            )
            top = 0.0
            for key in list(branches):
                if conditional and dict(key).get(action.detect_label) is not action.required:
                    continue
                rho = dephase(branches[key], duration)
                if isinstance(pulse, BlueSideband):
                    pops = np.einsum("abcdabcd->abcd", rho).real
                    top += float(np.take(pops, S, axis=pulse.ion)[..., fock_cutoff - 1].sum())
                rho = _apply_unitary_density(rho, op, sites)
                if depol:
                    rho = depolarize_density_tensor(rho, pulse.ion, noise.depolarizing_per_pulse)
                branches[key] = rho
            if top > TRUNCATION_BOUND:
                raise InvariantViolation(
                    f"row {step.step_id}: population {top:.3e} on ion {pulse.ion + 1}'s "
                    f"|S, n={fock_cutoff - 1}> exceeds TRUNCATION_BOUND; raise fock_cutoff"
                )
            truncation = max(truncation, top)
    return branches, truncation


def _gh_nodes(noise: NoiseConfig, quad_points: int | None):
    """(detuning_SD per ion, detuning_H per ion, weight) quadrature nodes."""
    sigma, bias, ratio = (
        noise.detuning_sigma_SD,
        noise.detuning_bias_SD,
        noise.dephasing_ratio_H,
    )
    if sigma == 0.0:
        d = np.full(N_IONS, bias)
        return [(d, ratio * d, 1.0)]
    if noise.correlated_dephasing:
        points = quad_points if quad_points is not None else 21
        x, w = np.polynomial.hermite.hermgauss(points)
        nodes = []
        for xi, wi in zip(x, w):
            d = np.full(N_IONS, bias + math.sqrt(2.0) * sigma * xi)
            nodes.append((d, ratio * d, wi / math.sqrt(math.pi)))
        return nodes
    points = quad_points if quad_points is not None else 9
    x, w = np.polynomial.hermite.hermgauss(points)
    nodes = []
    for combo in itertools.product(range(points), repeat=N_IONS):
        d = bias + math.sqrt(2.0) * sigma * x[np.array(combo)]
        weight = float(np.prod(w[np.array(combo)])) / math.pi ** (N_IONS / 2.0)
        nodes.append((d, ratio * d, weight))
    return nodes


def _check_exact_noise(noise: NoiseConfig, entry: str) -> None:
    if noise.amplitude_error_sigma != 0.0:
        raise ConfigError(
            f"{entry} handles channel-representable noise only; "
            "amplitude_error_sigma must be 0"
        )


def _node_branches(steps, noise: NoiseConfig, quad_points: int | None, fock_cutoff: int):
    """The exact engine's one Gauss-Hermite loop.

    Evolves the cooled full register through `steps` once per quadrature node
    and yields (det_sd, det_h, weight, branches, truncation) for each.
    """
    dims = (3,) * N_IONS + (fock_cutoff,)
    d = int(np.prod(dims))
    for det_sd, det_h, weight in _gh_nodes(noise, quad_points):
        rho0 = np.zeros((d, d), dtype=np.complex128)
        rho0[0, 0] = 1.0
        branches, truncation = _evolve_exact(
            {(): rho0.reshape(dims + dims)}, steps, noise, det_sd, det_h, fock_cutoff
        )
        yield det_sd, det_h, weight, branches, truncation


def _acts_on_target_only(action: trap.Pulse | ConditionalPulse) -> bool:
    """Whether a row's effect on ion 3's reduced state needs no other subsystem.

    Waits qualify: the detuning phase is a sum of per-ion terms, so the other
    ions' phases cancel in the partial trace. Branch-splitting readouts do not.
    """
    if isinstance(action, ConditionalPulse):
        action = action.pulse
    if isinstance(action, Wait):
        return True
    if isinstance(action, Detect):
        return action.ion == _TARGET and action.label not in _SPLIT_LABELS
    return isinstance(action, (Carrier, Hide)) and action.ion == _TARGET


def _cut(sequence: tuple[SequenceStep, ...], before: int) -> int:
    """Number of leading rows that need the full register.

    That is every row up to the last one touching ion 1, ion 2 or the motion
    (row 27 of the standard table); it must come before step `before`.
    """
    cut = max(
        (i + 1 for i, s in enumerate(sequence) if not _acts_on_target_only(s.action)),
        default=0,
    )
    if cut and sequence[cut - 1].step_id >= before:
        raise InvariantViolation(
            f"row {sequence[cut - 1].step_id} acts beyond the target ion; "
            f"the exact engine needs all such rows before row {before}"
        )
    return cut


@dataclass(frozen=True)
class _TargetStack:
    """Ion 3's unnormalized 3x3 density for every (quadrature node, branch)."""

    rho: np.ndarray                       # (K, 3, 3), at the cut
    weight: np.ndarray                    # (K,) Gauss-Hermite weight of the entry's node
    rates: np.ndarray                     # (K, 3) ion-3 detuning of S, D, H in rad/us
    keys: tuple[dict[str, Outcome], ...]  # reported outcomes of the entry's branch
    motional_residual: float              # population above n=0; no later row moves it
    truncation: float                     # largest truncation population over nodes


def _target_stack(
    prefix, noise: NoiseConfig, quad_points: int | None, fock_cutoff: int
) -> _TargetStack:
    """Evolve the full register through `prefix`, then reduce every branch to ion 3."""
    dims = (3,) * N_IONS + (fock_cutoff,)
    d = int(np.prod(dims))
    rho, weight, rates, keys = [], [], [], []
    motion = np.zeros((fock_cutoff, fock_cutoff), dtype=np.complex128)
    truncation = 0.0
    for det_sd, det_h, w, branches, top in _node_branches(prefix, noise, quad_points, fock_cutoff):
        truncation = max(truncation, top)
        for key, rho_t in branches.items():
            flat = rho_t.reshape(d, d)
            rho.append(_ptrace(flat, dims, keep=[_TARGET]))
            motion += w * _ptrace(flat, dims, keep=[N_IONS])
            weight.append(w)
            rates.append((0.0, det_sd[_TARGET], det_h[_TARGET]))
            keys.append(dict(key))
    return _TargetStack(
        rho=np.array(rho),
        weight=np.array(weight),
        rates=np.array(rates),
        keys=tuple(keys),
        motional_residual=float(np.real(np.trace(motion) - motion[0, 0])),
        truncation=truncation,
    )


def _evolve_target(
    stack: _TargetStack, rho: np.ndarray, steps, noise: NoiseConfig
) -> tuple[np.ndarray, np.ndarray | None]:
    """Apply ion-3 rows to every (node, branch) state at once.

    Conditional rows act on the entries whose branch meets their condition.
    Returns the evolved (K, 3, 3) stack and, when `steps` hold the final
    readout, each entry's unnormalized reported P(bright) there (else None).
    """
    eps = noise.detection_error
    rho = rho.copy()
    bright = None
    for step in steps:
        action, sel = step.action, slice(None)
        if isinstance(action, ConditionalPulse):
            sel = np.array([k.get(action.detect_label) is action.required for k in stack.keys])
            action = action.pulse
        duration = noise.pulse_durations.of(action)
        if duration != 0.0 and np.any(stack.rates):
            ph = np.exp(-1j * duration * stack.rates[sel])
            rho[sel] = rho[sel] * ph[:, :, None] * ph.conj()[:, None, :]
        if isinstance(action, Detect):
            if action.label == "final":
                pop_s = rho[:, S, S].real
                total = np.trace(rho, axis1=1, axis2=2).real
                bright = (1.0 - eps) * pop_s + eps * (total - pop_s)
            rho[:, S, 1:] = 0.0  # the readout decoheres S from {D, H}
            rho[:, 1:, S] = 0.0
        elif not isinstance(action, Wait):
            op = (trap.carrier_local if isinstance(action, Carrier) else trap.hide_local)(
                action.theta, action.phi
            )
            rho[sel] = op @ rho[sel] @ op.conj().T
            if isinstance(action, Carrier) and noise.depolarizing_applies(step.step_id):
                sup = depolarizing_superop(noise.depolarizing_per_pulse, 3)
                part = rho[sel]
                rho[sel] = (part.reshape(-1, 9) @ sup.T).reshape(part.shape)
    return rho, bright


@dataclass(frozen=True)
class ExactRun:
    """Infinite-statistics result for one input state."""

    rho_exp: DensityMatrix                   # ion 3, {S,D} block, post-row-33
    branch_probs: dict[str, float]
    # The two per-branch conditionals below leave out every branch whose
    # probability is at roundoff level (<= 1e-12): it has no conditional state.
    branch_states: dict[str, DensityMatrix]  # normalized per reported branch
    final_bright: dict[str, float]           # reported P(bright | branch), row 35, first mode
    p_bright: dict[Mode, float]              # reported P(bright), row 35, per requested mode,
                                             # clamped to [0, 1] against roundoff
    h_residual: float
    motional_residual: float
    truncation_population: float             # max blue-sideband |S, fock_cutoff-1> population


def exact_run(
    input_state: InputStateSpec,
    phase_offset: float = 0.0,
    noise: NoiseConfig = NoiseConfig(),
    mode: Mode | tuple[Mode, ...] = FidelityCheck(),
    *,
    quad_points: int | None = None,
    fock_cutoff: int = 4,
    spin_echo: bool = True,
    standby_wait_us: float = 1.0,
    rephase_wait_us: float = 300.0,
    reconstruction: bool = True,
    sequence: tuple[SequenceStep, ...] | None = None,
) -> ExactRun:
    """Full exact evolution: branch states after row 33 + row-35 statistics.

    The full (3, 3, 3, fock_cutoff) register is evolved, once per quadrature
    node, only up to the last row that touches ion 1, ion 2 or the motion (row
    27 of the standard table). Each (node, branch) is then cut down to ion 3's
    3x3 density, which is exact because every later row acts on ion 3 alone,
    and the remaining rows are applied to the whole stack at once.

    `mode` may be a tuple of row-34 modes: rows up to 33 are shared, and only
    rows 34-35 are replayed per mode. `final_bright` belongs to the first mode;
    `p_bright` maps each mode to its branch-summed reported P(bright). An
    explicit `sequence` fixes its own row 34, so it takes a single mode.
    """
    _check_exact_noise(noise, "exact_run")
    modes = mode if isinstance(mode, tuple) else (mode,)
    if sequence is not None:
        if len(modes) != 1:
            raise ConfigError("an explicit sequence fixes its own row-34 mode")
        sequences = (sequence,)
    else:
        sequences = tuple(
            build_sequence(
                input_state,
                phase_offset,
                m,
                standby_wait_us=standby_wait_us,
                rephase_wait_us=rephase_wait_us,
                spin_echo=spin_echo,
                reconstruction=reconstruction,
            )
            for m in modes
        )
    seq = sequences[0]
    cut = _cut(seq, _ANALYSIS_ROW)
    stack = _target_stack(seq[:cut], noise, quad_points, fock_cutoff)
    shared = tuple(s for s in seq[cut:] if s.step_id < _ANALYSIS_ROW)
    rho, _ = _evolve_target(stack, stack.rho, shared, noise)

    labels = [branch_label(k["pmt1"], k["pmt2"]) for k in stack.keys]
    members = {b: np.array([lab == b for lab in labels]) for b in dict.fromkeys(labels)}
    weighted = stack.weight[:, None, None] * rho
    acc = {b: weighted[mask].sum(axis=0) for b, mask in members.items()}
    branch_probs = {b: float(np.real(np.trace(r))) for b, r in acc.items()}
    # A branch whose probability is a roundoff-level defect has no conditional state.
    occurring = {b: members[b] for b in acc if branch_probs[b] > ATOL_STRUCTURAL}
    branch_states = {b: _qubit_block(acc[b] / branch_probs[b]) for b in occurring}

    total = sum(acc.values())
    tr_total = float(np.real(np.trace(total)))
    if abs(tr_total - 1.0) > 1e-9:
        raise InvariantViolation(f"exact evolution lost trace: {tr_total}")
    h_residual = float(np.real(total[2, 2]))
    motional_residual = stack.motional_residual
    if h_residual > 1e-8:
        raise InvariantViolation(
            f"residual H population {h_residual:.3e} after unhide (sequence/convention bug)"
        )
    # Depolarizing flips and inter-pulse detuning phases both break the
    # composite gate's interference and legitimately strand motional
    # population, so the bug tripwire only arms when neither is present.
    can_strand = (
        noise.depolarizing_per_pulse != 0.0
        or noise.detuning_sigma_SD != 0.0
        or noise.detuning_bias_SD != 0.0
    )
    if not can_strand and motional_residual > 1e-8:
        raise InvariantViolation(
            f"residual motional excitation {motional_residual:.3e} (sequence/convention bug)"
        )

    p_bright: dict[Mode, float] = {}
    final_bright: dict[Mode, dict[str, float]] = {}
    for m, seq_m in zip(modes, sequences):
        tail = tuple(s for s in seq_m if s.step_id >= _ANALYSIS_ROW)
        rho_m, bright = _evolve_target(stack, rho, tail, noise)
        if bright is None:
            raise InvariantViolation("sequence produced no 'final' readout on ion 3")
        w_end = stack.weight * np.trace(rho_m, axis1=1, axis2=2).real
        final_bright[m] = {
            b: float(np.sum(stack.weight[mask] * bright[mask])) / float(np.sum(w_end[mask]))
            for b, mask in occurring.items()
        }
        p_bright[m] = min(max(float(np.sum(stack.weight * bright)), 0.0), 1.0)
    return ExactRun(
        rho_exp=_qubit_block(total),
        branch_probs=branch_probs,
        branch_states=branch_states,
        final_bright=final_bright[modes[0]],
        p_bright=p_bright,
        h_residual=h_residual,
        motional_residual=motional_residual,
        truncation_population=stack.truncation,
    )


def _qubit_block(rho3: np.ndarray) -> DensityMatrix:
    """Drop the (verified tiny) H row/column of an ion-3 state and renormalize."""
    block = rho3[:2, :2]
    tr = float(np.real(np.trace(block)))
    if tr <= 0.0:
        raise InvariantViolation("ion-3 qubit block has no population")
    block = block / tr
    block = 0.5 * (block + block.conj().T)
    return DensityMatrix(block)


def run_exact(
    input_state: InputStateSpec,
    phase_offset: float = 0.0,
    noise: NoiseConfig = NoiseConfig(),
    **kwargs,
) -> DensityMatrix:
    """Ion 3's reduced output state after the conditional reconstruction."""
    return exact_run(input_state, phase_offset, noise, FidelityCheck(), **kwargs).rho_exp


# ---------------------------------------------------------------------------
# Fidelity estimators

@dataclass(frozen=True)
class Exact:
    quad_points: int | None = None


@dataclass(frozen=True)
class Sampled:
    shots: int
    master_seed: int = 1234


@dataclass(frozen=True)
class FidelityEstimate:
    value: float
    stderr: float


def teleportation_fidelity(
    input_state: InputStateSpec,
    noise: NoiseConfig = NoiseConfig(),
    mode: Exact | Sampled = Exact(),
    *,
    phase_offset: float = 0.0,
    fock_cutoff: int = 4,
    spin_echo: bool = True,
    standby_wait_us: float = 1.0,
    rephase_wait_us: float = 300.0,
) -> FidelityEstimate:
    """Teleportation fidelity for one input state.

    Exact mode: overlap of run_exact's output with the ideal input state
    (stderr 0). Sampled mode: Bright frequency at the final readout over
    `shots` trajectories with binomial standard error — this additionally sees
    the inverse-preparation pulse's noise and the final detection error.
    """
    if isinstance(mode, Exact):
        rho = run_exact(
            input_state,
            phase_offset,
            noise,
            quad_points=mode.quad_points,
            fock_cutoff=fock_cutoff,
            spin_echo=spin_echo,
            standby_wait_us=standby_wait_us,
            rephase_wait_us=rephase_wait_us,
        )
        return FidelityEstimate(state_fidelity(rho, input_state.pure()), 0.0)

    seq = build_sequence(
        input_state,
        phase_offset,
        FidelityCheck(),
        standby_wait_us=standby_wait_us,
        rephase_wait_us=rephase_wait_us,
        spin_echo=spin_echo,
    )
    (n_bright,) = sample_counts([seq], noise, mode.shots, mode.master_seed, fock_cutoff=fock_cutoff)
    f = n_bright / mode.shots
    return FidelityEstimate(f, math.sqrt(max(f * (1.0 - f), 0.0) / mode.shots))


# ---------------------------------------------------------------------------
# Phase calibration

@dataclass(frozen=True)
class CalibrationResult:
    phi_star: float
    grid_phis: np.ndarray
    grid_fidelities: np.ndarray


def calibrate_phase(
    noise: NoiseConfig = NoiseConfig(),
    reference_input: InputStateSpec | None = None,
    *,
    grid: int = 32,
    quad_points: int | None = None,
    fock_cutoff: int = 4,
    spin_echo: bool = True,
    standby_wait_us: float = 1.0,
    rephase_wait_us: float = 300.0,
    tol: float = 1e-3,
) -> CalibrationResult:
    """Scan the tail phase offset and refine the best grid cell.

    Evolves the full register once per quadrature node up to the cut (the last
    row touching ion 1, ion 2 or the motion, row 27), reduces every (node,
    branch) to ion 3's 3x3 state and applies the phase-independent rows up to
    29 to that stack. Each candidate phase then replays only rows 30-33 on the
    cached stack. A golden-section pass shrinks the best grid bracket below
    `tol` radians.
    """
    _check_exact_noise(noise, "calibrate_phase")
    if grid < 8:
        raise ConfigError("calibration grid needs at least 8 points")
    if reference_input is None:
        reference_input = canonical_inputs()[5]  # +x superposition: phase-sensitive

    base_seq = build_sequence(
        reference_input,
        0.0,
        FidelityCheck(),
        standby_wait_us=standby_wait_us,
        rephase_wait_us=rephase_wait_us,
        spin_echo=spin_echo,
    )
    cut = _cut(base_seq, _TAIL_START)
    stack = _target_stack(base_seq[:cut], noise, quad_points, fock_cutoff)
    fixed = tuple(s for s in base_seq[cut:] if s.step_id < _TAIL_START)
    rho_fixed, _ = _evolve_target(stack, stack.rho, fixed, noise)
    psi = reference_input.ket()

    def fidelity_at(phi: float) -> float:
        tail = tuple(
            s
            for s in build_sequence(
                reference_input,
                phi,
                FidelityCheck(),
                standby_wait_us=standby_wait_us,
                rephase_wait_us=rephase_wait_us,
                spin_echo=spin_echo,
            )
            if _TAIL_START <= s.step_id < _ANALYSIS_ROW
        )
        rho, _ = _evolve_target(stack, rho_fixed, tail, noise)
        rho3 = np.tensordot(stack.weight, rho, axes=1)[:2, :2]
        tr = float(np.real(np.trace(rho3)))
        return float(np.real(psi.conj() @ rho3 @ psi)) / tr

    phis = np.linspace(0.0, 2.0 * PI, grid, endpoint=False)
    fids = np.array([fidelity_at(p) for p in phis])
    best = int(np.argmax(fids))
    spacing = 2.0 * PI / grid
    lo, hi = phis[best] - spacing, phis[best] + spacing

    # Golden-section pass on the bracket around the best grid point.
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, dd = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = fidelity_at(c), fidelity_at(dd)
    while b - a > tol:
        if fc > fd:
            b, dd, fd = dd, c, fc
            c = b - invphi * (b - a)
            fc = fidelity_at(c)
        else:
            a, c, fc = c, dd, fd
            dd = a + invphi * (b - a)
            fd = fidelity_at(dd)
    phi_star = float((a + b) / 2.0) % (2.0 * PI)
    return CalibrationResult(phi_star, phis, fids)


# ---------------------------------------------------------------------------
# Baselines and calibration helpers

def classical_baseline_per_state() -> np.ndarray:
    """Best measure-and-resend fidelity (fixed Z measurement) per canonical input."""
    out = []
    for spec in canonical_inputs():
        amps = spec.ket()
        out.append(float(sum(abs(a) ** 4 for a in amps)))
    return np.array(out)


def classical_baseline() -> float:
    """Six-state average of the measure-and-resend strategy (= 2/3)."""
    return float(classical_baseline_per_state().mean())


def bell_preparation_fidelity(
    noise: NoiseConfig = NoiseConfig(),
    *,
    quad_points: int | None = None,
    fock_cutoff: int = 4,
) -> float:
    """Overlap of the ion2-ion3 state after row 6 with (|DS>+|SD>)/sqrt(2).

    Calibration helper: tune depolarizing_per_pulse against this number.
    """
    _check_exact_noise(noise, "bell_preparation_fidelity")
    seq = build_sequence(canonical_inputs()[0], 0.0, FidelityCheck())
    prefix = tuple(s for s in seq if s.step_id <= 6)
    dims = (3,) * N_IONS + (fock_cutoff,)
    d = int(np.prod(dims))
    target = np.zeros(9, dtype=np.complex128)
    target[1 * 3 + 0] = 1.0 / math.sqrt(2.0)  # |D S>
    target[0 * 3 + 1] = 1.0 / math.sqrt(2.0)  # |S D>

    f = 0.0
    for _sd, _h, weight, branches, _top in _node_branches(prefix, noise, quad_points, fock_cutoff):
        rho = sum(r.reshape(d, d) for r in branches.values())
        rho23 = _ptrace(rho, dims, keep=[1, 2])
        f += weight * float(np.real(target.conj() @ rho23 @ target))
    return f
