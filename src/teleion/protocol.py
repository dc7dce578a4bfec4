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
  deterministically by (master_seed, shot_index) in noise.SHOT_BLOCK blocks.
  Shots of several sequences advance together as one (shots, 3, 3, 3,
  fock_cutoff) array; feed-forward and rows where the sequences differ are
  masks over shots, and the results are per-shot arrays (Shots).
  sample_counts is the one source of sampled counts: it runs all sequences'
  shots in passes of SHOT_PASS, or draws from exact_run's P(bright);
* exact_run — density-matrix evolution with measurement instruments and
  channel noise, Gauss-Hermite-averaged over the quasi-static detuning
  distribution. Every (quadrature node, reported branch) entry advances on
  one stacked live register in one row loop, NODE_PASS nodes at a time: a
  subsystem holds only the levels its drives have reached (any other level
  is exactly zero) and leaves after the last sideband or readout needing it
  (at most 48 levels, after rows 10-18 of the standard table, then 12, 18,
  9 and ion 3's 3x3 state), every readout splits the entries on the
  reported outcome, and each ion's detuning phase waits for its next drive.
  This is the infinite-statistics reference.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DimensionMismatch, InvariantViolation
from .noise import (
    NoiseConfig,
    depolarize_density_tensor,  # noqa: F401  perfbench/run.py --self-check needs this binding (ROADMAP B2)
    depolarizing_superop,
    sample_pauli_index,
    sample_shot_noise,
    _site_paulis,
)
from .qcore import ATOL_STRUCTURAL, DensityMatrix, PureState
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
    fluorescence_measure,
)

PI = math.pi
N_IONS = 3
#: The target ion, the one subsystem the exact engine keeps to the last row.
_TARGET = N_IONS - 1
#: First step of the reconstruction/analysis tail, the rows that carry the
#: calibration phase offset: calibration replays rows from here to 33 per
#: fit phase on the stack advanced through the rows before it.
_TAIL_START = 30
#: The mode-dependent analysis row; every row before it is shared by all modes.
_ANALYSIS_ROW = 34
#: Largest population a blue sideband may find on its ion's |S, fock_cutoff-1>,
#: whose partner |D, fock_cutoff> is cut away: the one truncation rule of both
#: engines. The noiseless phase gate puts 0.5 there at cutoff 2; paper noise
#: puts 0.012 there at cutoff 3, 2e-4 at 4.
TRUNCATION_BOUND = 0.05


def _check_truncation(step_id: int, ion: int, fock_cutoff: int, populations: np.ndarray) -> None:
    """Raise when a blue sideband on `ion` at row `step_id` finds any of
    `populations` (one per node or shot) on its |S, fock_cutoff-1> above TRUNCATION_BOUND."""
    top = np.max(populations, initial=0.0)
    if top > TRUNCATION_BOUND:
        raise InvariantViolation(
            f"row {step_id}: population {top:.3e} on ion {ion + 1}'s "
            f"|S, n={fock_cutoff - 1}> exceeds TRUNCATION_BOUND; raise fock_cutoff"
        )


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


def _shift_phases(steps: tuple[SequenceStep, ...], offset: float) -> tuple[SequenceStep, ...]:
    """`steps` with `offset` added to every pulse phase, conditional pulses included:
    applied to build_sequence's phase-0 tail, the tail built with that phase_offset."""
    def shift(action):
        if isinstance(action, ConditionalPulse):
            return replace(action, pulse=shift(action.pulse))
        return replace(action, phi=action.phi + offset) if hasattr(action, "phi") else action

    return tuple(replace(s, action=shift(s.action)) for s in steps)


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

#: X, Y, Z on a three-level ion, indexed by sample_pauli_index's k.
_PAULI_STACK = np.stack(_site_paulis(3))
#: Shots per run_shot call in sample_counts: bounds the stacked state whatever
#: the shot total, while spreading each row's fixed cost over many shots.
SHOT_PASS = 256


def _row_plan(tables: list[tuple[SequenceStep, ...]], noise: NoiseConfig) -> list[tuple]:
    """Rows of tables run together: (step id, first action, drive, on, theta, phi, duration).

    The tables must share step ids, readouts, conditions and each row's kind
    of drive, but one may wait where others drive; `on` marks those that drive.
    The last four are one value for all tables, or an array with one per table.
    """
    plan = []
    for steps in itertools.zip_longest(*tables):
        if None in steps:
            raise InvariantViolation(f"row {next(filter(None, steps)).step_id}: sequences differ in length")
        pulses = [s.action.pulse if isinstance(s.action, ConditionalPulse) else s.action for s in steps]
        shared = {
            (s.step_id, getattr(s.action, "detect_label", None), getattr(s.action, "required", None),
             p if isinstance(p, Detect) else None)
            for s, p in zip(steps, pulses)
        }
        kinds = {(type(p), p.ion) for p in pulses if not isinstance(p, Wait)}
        if len(shared) > 1 or len(kinds) > 1:
            raise InvariantViolation(
                f"row {steps[0].step_id}: sequences in one run must share step ids, readouts, "
                "conditions and the kind of drive"
            )
        drive = next((p for p in pulses if not isinstance(p, Wait)), pulses[0])
        plan.append((steps[0].step_id, steps[0].action, drive, *(
            v[0] if len(set(v)) == 1 else np.array(v)
            for v in (
                [not isinstance(p, (Wait, Detect)) for p in pulses],
                [getattr(p, "theta", 0.0) for p in pulses],
                [getattr(p, "phi", 0.0) for p in pulses],
                [noise.pulse_durations.of(p) for p in pulses],
            )
        )))
    return plan


@dataclass(frozen=True)
class Shots:
    """run_shot's results, one entry per shot index; outcomes are reported Bright (bool)."""

    pmt1: np.ndarray
    pmt2: np.ndarray
    final: np.ndarray
    truncation: np.ndarray  # largest |S, fock_cutoff-1> population a blue sideband found
    elapsed_us: np.ndarray


def run_shot(
    sequence: tuple[SequenceStep, ...] | list[tuple[SequenceStep, ...]],
    noise: NoiseConfig,
    master_seed: int | np.ndarray,
    shot_index: range | np.ndarray,
    *,
    sequence_index: np.ndarray | None = None,
    fock_cutoff: int = 4,
    plan: list[tuple] | None = None,
) -> Shots:
    """Full trajectories through the sequence with sampled noise.

    `shot_index` is a range or 1-D array of indices, one shot each. All shots
    advance together as one (shots, 3, 3, 3, fock_cutoff) array, one row at a
    time. Each shot's randomness is keyed by (master_seed, shot_index) alone,
    in the block layout of sample_shot_noise, and its draws are indexed by
    step id, so a skipped conditional pulse never shifts another step's noise
    and a shot's outcomes do not depend on the other shots.

    With a list of tables as `sequence`, `sequence_index` gives each shot's
    table and `master_seed` may give each shot's seed; `plan`, the tables'
    _row_plan under `noise`, spares a caller with many batches rebuilding it.
    Each ion's detuning phase waits for its next drive, which applies it
    (apply_pulse's `phase`); what is left after the last readout changes no
    outcome and is dropped. Before each blue sideband, a shot that no Pauli
    flip has hit raises past TRUNCATION_BOUND on its ion's |S, fock_cutoff-1>,
    as exact_run's nodes do.
    """
    index = np.asarray(shot_index, dtype=np.int64)
    if index.ndim != 1:
        raise DimensionMismatch("shot_index must be a range or 1-D array of shot indices")
    tables = [sequence] if sequence_index is None else list(sequence)
    table = np.zeros(index.size, np.intp) if sequence_index is None else np.asarray(sequence_index, np.intp)
    plan = _row_plan(tables, noise) if plan is None else plan
    seeds = np.broadcast_to(np.asarray(master_seed, dtype=object), index.shape)
    shot = sample_shot_noise(noise, seeds, index, N_IONS, max(row[0] for row in plan))
    # Each ion's per-level detuning (S, D, H), or None when no shot dephases.
    rates = np.stack([np.zeros_like(shot.detuning_SD), shot.detuning_SD, shot.detuning_H], axis=-1)
    rates = rates if np.any(rates) else None

    psi = np.zeros((index.size,) + (3,) * N_IONS + (fock_cutoff,), dtype=np.complex128)
    psi[(slice(None),) + (S,) * N_IONS + (0,)] = 1.0  # all ions in S, motion in |n=0>
    elapsed = np.zeros(index.size)
    # A flip mid-gate legitimately drives population up the truncated Fock
    # ladder, so the truncation rule only guards shots still on the ideal path.
    flipped = np.zeros(index.size, bool)
    truncation = np.zeros(index.size)
    released = np.zeros((index.size, N_IONS))  # clock time up to which each ion's phase is applied
    bright: dict[str, np.ndarray] = {}  # reported Bright per shot, by readout label

    for step_id, action, pulse, *per_table in plan:
        on, theta, phi, duration = (v if np.ndim(v) == 0 else v[table] for v in per_table)
        col, fired = step_id - 1, True  # the shots this row acts on
        if isinstance(action, ConditionalPulse):
            fired = bright[action.detect_label] == (action.required is Outcome.BRIGHT)
        # A shot whose condition fails sees a zero-area pulse lasting no time,
        # which is exactly the identity, and draws no Pauli flip; so does a
        # shot whose table waits where others drive, after its own wait.
        on = on & fired
        elapsed = elapsed + np.where(fired, duration, 0.0)

        if isinstance(pulse, Detect):  # the unreleased phases commute with the projectors
            bright[pulse.label], psi = fluorescence_measure(
                psi, pulse.ion, shot.meas_u[:, col], noise.detection_error
            )
        elif np.any(on):
            if isinstance(pulse, BlueSideband):
                top = np.abs(psi[(slice(None),) * (1 + pulse.ion) + (S, ..., -1)]) ** 2  # (shots, other two ions)
                top = np.where(on, top.sum(axis=(1, 2)), 0.0)
                _check_truncation(step_id, pulse.ion, fock_cutoff, top[~flipped])
                truncation = np.maximum(truncation, top)
            phase = None
            if rates is not None:
                t = elapsed - released[:, pulse.ion]
                phase, released[:, pulse.ion] = np.exp(-1j * t[:, None] * rates[:, pulse.ion]), elapsed
            theta = np.where(on, theta, 0.0)
            if noise.amplitude_error_sigma != 0.0:  # otherwise every factor is exactly 1
                theta = theta * shot.amplitude_factors[:, col]
            psi = apply_pulse(psi, replace(pulse, theta=theta, phi=phi), phase)
            if isinstance(pulse, (Carrier, BlueSideband)) and noise.depolarizing_applies(step_id):
                k = sample_pauli_index(shot.depol_u[:, col], noise.depolarizing_per_pulse)
                hit = (k >= 0) & on
                if np.any(hit):  # psi is apply_pulse's fresh array, this pass's own
                    psi[hit] = apply_site(psi[hit], _PAULI_STACK[k[hit]], pulse.ion)
                    flipped |= hit

    for label in ("pmt1", "pmt2", "final"):
        if label not in bright:
            raise InvariantViolation(f"sequence produced no {label!r} readout")
    return Shots(bright["pmt1"], bright["pmt2"], bright["final"], truncation, elapsed)


def sample_counts(
    sequences: list[tuple[SequenceStep, ...]],
    noise: NoiseConfig,
    shots: int,
    master_seed: int | list[int],
    *,
    p_bright: list[float] | None = None,
    tag: int = 0,
    fock_cutoff: int = 4,
) -> list[int]:
    """Final-readout Bright counts over `shots` shots of each sequence.

    `master_seed` is one seed, or one per group of equally many consecutive
    sequences; sequence j of a group draws from stream j of the group's seed.
    Given every sequence's exact reported P(bright), clamped to [0, 1] against
    roundoff, its count is one binomial draw from default_rng([seed, tag, j]);
    otherwise it counts trajectories with shot indices j * shots + i for
    i < shots, those of all sequences advancing together, SHOT_PASS shots per
    run_shot call on one row plan. Sampled artefacts rest on this layout: the
    binomial streams, and for trajectories the shot indices under
    sample_shot_noise's SHOT_BLOCK-shot blocks of each seed.
    """
    seeds = [master_seed] if np.ndim(master_seed) == 0 else list(master_seed)
    if len(sequences) % len(seeds):
        raise ConfigError(f"{len(sequences)} sequences do not split into {len(seeds)} seed groups")
    per = len(sequences) // len(seeds) or 1
    if p_bright is not None:
        rngs = (np.random.default_rng([int(seeds[k // per]), tag, k % per]) for k in range(len(p_bright)))
        return [int(rng.binomial(shots, min(max(p, 0.0), 1.0))) for rng, p in zip(rngs, p_bright)]
    table = np.repeat(np.arange(len(sequences)), shots)
    index = table % per * shots + np.tile(np.arange(shots), len(sequences))
    seed = np.array(seeds, dtype=object)[table // per]
    plan = _row_plan(sequences, noise)
    counts = np.zeros(len(sequences), dtype=np.int64)
    for part in (slice(lo, lo + SHOT_PASS) for lo in range(0, table.size, SHOT_PASS)):
        final = run_shot(
            sequences, noise, seed[part], index[part], sequence_index=table[part], fock_cutoff=fock_cutoff,
            plan=plan,
        ).final
        np.add.at(counts, table[part], final)
    return counts.tolist()


# ---------------------------------------------------------------------------
# Exact path: density-matrix evolution with measurement instruments.

#: The exact engine's subsystems: the ions, then the motional mode.
_SUBSYSTEMS = N_IONS + 1
_MOTION = N_IONS
#: Quadrature nodes per pass of the exact engine: bounds the stacked register
#: (27 nodes at the standard table's 48 levels hold about 1 MB) whatever the
#: node count, 9^3 = 729 by default for uncorrelated dephasing.
NODE_PASS = 27


def _reached(hit: np.ndarray, axis: int, levels: tuple[int, ...]) -> tuple[int, ...]:
    """`levels` plus every index along `axis` at which `hit` holds a True."""
    hits = hit.any(axis=tuple(a for a in range(hit.ndim) if a != axis))
    return tuple(sorted({*levels, *map(int, np.flatnonzero(hits))}))


@functools.lru_cache(maxsize=256)
def _drive_plan(pulse: trap.Pulse, fock_cutoff: int, kept: tuple[tuple[int, ...], ...], depol: float):
    """(levels, op, dep) of a drive on subsystems that hold the levels `kept`.

    `levels` are `kept` plus every level the drive's local unitary (on (ion,
    motion) for a sideband) reaches from them by its nonzero pattern, then,
    for depol > 0, every ion level the depolarizing channel's pattern
    reaches: any other level stays exactly zero. `op` is the unitary on
    `levels`, and `dep` the ion's (d*d, d*d) depolarizing superoperator on
    them, None for depol = 0. Read-only; cached.
    """
    if isinstance(pulse, BlueSideband):
        op = trap.sideband_local(pulse.theta, pulse.phi, fock_cutoff).reshape((3, fock_cutoff) * 2)
    else:
        op = (trap.carrier_local if isinstance(pulse, Carrier) else trap.hide_local)(pulse.theta, pulse.phi)
    hit = op[(...,) + np.ix_(*kept)] != 0
    levels = [_reached(hit, j, lv) for j, lv in enumerate(kept)]
    dep = None
    if depol:  # a Hermiticity-preserving map: its ket pattern is its bra pattern
        sup = depolarizing_superop(depol, 3).reshape(3, 3, 3, 3)
        levels[0] = _reached(sup[(...,) + np.ix_(levels[0], levels[0])] != 0, 0, levels[0])
        d = len(levels[0])
        dep = sup[np.ix_(*levels[:1] * 4)].reshape(d * d, d * d)
        dep.flags.writeable = False
    op = op[np.ix_(*levels * 2)]
    op.flags.writeable = False
    return tuple(levels), op, dep


def _row_sites(action: trap.Pulse | ConditionalPulse) -> tuple[tuple[int, ...], bool]:
    """(subsystems a row acts on, whether the live register must hold them for it).

    Only a blue sideband and a readout, which splits the entries, need their
    subsystems: any other row is a local channel, skipped on a subsystem only
    traced out.
    """
    pulse = action.pulse if isinstance(action, ConditionalPulse) else action
    if isinstance(pulse, Wait):
        return (), False
    if isinstance(pulse, BlueSideband):
        return (pulse.ion, _MOTION), True
    return (pulse.ion,), isinstance(pulse, Detect)


def _lifetimes(steps, keep: tuple[int, ...]) -> dict[int, int]:
    """The row index in `steps` after which each subsystem leaves the live register.

    A subsystem is traced out right after the last row that needs it; one in
    `keep` stays to the end, len(steps). A subsystem that no row needs is
    never driven and has no entry.
    """
    rows = [_row_sites(s.action) for s in steps]
    life = {}
    for site in range(_SUBSYSTEMS):
        needed = [i for i, (acts, held) in enumerate(rows) if held and site in acts] + [len(steps)] * (site in keep)
        if needed:
            life[site] = needed[-1]
    return life


def _along(v: np.ndarray, axis: int) -> np.ndarray:
    """Per-level values, (n,) or (entries, n), shaped to broadcast along one axis of the stack."""
    v = np.atleast_2d(v)
    return v.reshape(v.shape[:1] + (1,) * (axis - 1) + v.shape[1:] + (1,) * (2 * _SUBSYSTEMS - axis))


def _grow(rho: np.ndarray, site: int, old: tuple[int, ...], new: tuple[int, ...]) -> np.ndarray:
    """Zero-fill a subsystem's axis pair from the levels `old` out to `new`, a superset."""
    if old == new:
        return rho
    axes = (1 + site, 1 + site + _SUBSYSTEMS)
    out = np.zeros([len(new) if a in axes else n for a, n in enumerate(rho.shape)], rho.dtype)
    at = [new.index(level) for level in old]
    np.moveaxis(out, axes, (0, 1))[np.ix_(at, at)] = np.moveaxis(rho, axes, (0, 1))
    return out


def _apply(ops: np.ndarray, rho: np.ndarray, axes: list[int], work: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Each entry's (d, d) operator, or one shared by all, on the flattened `axes` of its tensor.

    The operand is gathered into work[0] and the product written into work[1],
    buffers the caller keeps from row to row: at a few nodes, fresh arrays per
    row cost more in page faults than the product. The result views work[1]."""
    order = [0, *axes, *(a for a in range(1, rho.ndim) if a not in axes)]
    moved = rho.transpose(order)
    gathered, out = (w[:rho.size].reshape(len(moved), ops.shape[-1], -1) for w in work)
    np.copyto(gathered.reshape(moved.shape), moved)
    np.matmul(ops, gathered, out=out)
    return out.reshape(moved.shape).transpose(np.argsort(order))


def _gh_nodes(noise: NoiseConfig, quad_points: int | None):
    """(detuning_SD per ion, detuning_H per ion, weight) quadrature nodes."""
    sigma, bias, ratio = noise.detuning_sigma_SD, noise.detuning_bias_SD, noise.dephasing_ratio_H
    if sigma == 0.0:
        d = np.full(N_IONS, bias)
        return [(d, ratio * d, 1.0)]
    draws = 1 if noise.correlated_dephasing else N_IONS  # one detuning for all ions, or one each
    points = quad_points if quad_points is not None else (21 if draws == 1 else 9)
    x, w = np.polynomial.hermite.hermgauss(points)
    nodes = []
    for combo in itertools.product(range(points), repeat=draws):
        d = np.resize(bias + math.sqrt(2.0) * sigma * x[list(combo)], N_IONS)
        nodes.append((d, ratio * d, float(np.prod(w[list(combo)])) / math.pi ** (draws / 2.0)))
    return nodes


def _check_exact_noise(noise: NoiseConfig, entry: str) -> None:
    if noise.amplitude_error_sigma != 0.0:
        raise ConfigError(
            f"{entry} handles channel-representable noise only; "
            "amplitude_error_sigma must be 0"
        )


@dataclass(frozen=True)
class _Stack:
    """Every (quadrature node, reported branch) entry of the exact engine.

    `rho` holds each entry's unnormalized density tensor: a leading entry
    axis, then one ket and one bra axis per subsystem. Both hold the
    subsystem's `levels`, the only ones a drive has reached so far: every
    other level is exactly zero. A subsystem holds (0,), |S> or |n=0>, until
    its first drive, and (0,), its trace, after its `_lifetimes`. Each ion's
    free-evolution time waits in `pending` until its next drive.
    """

    rho: np.ndarray                       # (E,) + ket axes + bra axes
    node: np.ndarray                      # (E,) index of the entry's quadrature node
    weight: np.ndarray                    # (E,) Gauss-Hermite weight of that node
    rates: np.ndarray                     # (E, ion, level) detuning of S, D, H in rad/us
    pending: np.ndarray                   # (E, ion) time not yet applied as a phase, in us
    keys: tuple[dict[str, Outcome], ...]  # reported outcomes of the entry's branch
    levels: tuple[tuple[int, ...], ...]   # per subsystem, the levels its ket and bra axes hold
    truncation: float = 0.0               # largest per-node blue-sideband |S, fock_cutoff-1> population
    motion: float = 0.0                   # weighted population above n = 0 when the motion left


def _advance(stack: _Stack, steps, life, first: int, noise: NoiseConfig, fock_cutoff: int) -> _Stack:
    """The exact engine's one row loop: `steps` on every entry of `stack` at once.

    `steps` are rows first, first + 1, ... of the table `life` came from. A
    conditional row acts on the entries whose branch meets its condition.
    Every readout splits each entry on the reported outcome (the collapse
    follows the true outcome). A drive folds each entry's pending phase into
    its own operator; a blue sideband raises past TRUNCATION_BOUND when a
    node's entries hold more than that on its ion's |S, fock_cutoff-1>.
    Before a drive, its subsystems grow to the levels `_drive_plan` says it
    reaches, and the drive acts on those levels only.
    """
    rho, pending, keys = stack.rho.copy(), stack.pending.copy(), stack.keys
    node, weight, rates = stack.node, stack.weight, stack.rates
    truncation, motion, levels = stack.truncation, stack.motion, list(stack.levels)
    eps = noise.detection_error
    work = (np.empty(0, rho.dtype),) * 2
    for i, step in enumerate(steps, start=first):
        action, sel = step.action, slice(None)
        if isinstance(action, ConditionalPulse):
            sel = np.array([key.get(action.detect_label) is action.required for key in keys], bool)
            rho = rho.copy()  # rho[sel] is written below: rho must not be _apply's output buffer
        pulse = action.pulse if isinstance(action, ConditionalPulse) else action
        pending[sel] += noise.pulse_durations.of(pulse)
        acts = _row_sites(action)[0]
        if not acts or any(i > life.get(s, -1) for s in acts):
            continue  # a wait, or a local row on a subsystem that is only traced out
        k, k_bra = 1 + pulse.ion, 1 + pulse.ion + _SUBSYSTEMS
        if isinstance(pulse, Detect):
            is_s = np.array(levels[pulse.ion]) == S
            on_s, off_s = (_along(v, k) * _along(v, k_bra) for v in (is_s * 1.0, 1.0 - is_s))
            reports = np.stack([(1.0 - eps) * on_s + eps * off_s, eps * on_s + (1.0 - eps) * off_s], axis=1)
            rho = (rho[:, None] * reports).reshape((-1,) + rho.shape[1:])  # Bright, then Dark
            node, weight, rates, pending = (np.repeat(a, 2, axis=0) for a in (node, weight, rates, pending))
            keys = tuple({**key, pulse.label: o} for key in keys for o in (Outcome.BRIGHT, Outcome.DARK))
        else:
            depol = noise.depolarizing_applies(step.step_id) and not isinstance(pulse, Hide)
            grown, op, dep = _drive_plan(
                pulse, fock_cutoff, tuple(levels[s] for s in acts), noise.depolarizing_per_pulse if depol else 0.0
            )
            for site, lv in zip(acts, grown):
                rho, levels[site] = _grow(rho, site, levels[site], lv), lv
            part = rho[sel]
            if work[0].size < part.size:  # as two arrays: one of twice the size kept more memory resident
                work = (np.empty(part.size, rho.dtype), np.empty(part.size, rho.dtype))
            # The ion's pending phase acts first: fold it into each entry's drive
            # as a scale on the columns of its ion level.
            ph = np.exp(-1j * pending[sel, pulse.ion][:, None] * rates[sel, pulse.ion][:, grown[0]])
            pending[sel, pulse.ion] = 0.0
            if isinstance(pulse, BlueSideband):
                ion_lv, motion_lv = grown
                top = 0.0  # a level the register does not hold is exactly empty
                if S in ion_lv and fock_cutoff - 1 in motion_lv:
                    pops = np.einsum("eabcdabcd->eabcd", part).real
                    pops = np.take(pops, ion_lv.index(S), axis=k)[..., motion_lv.index(fock_cutoff - 1)]
                    top = np.bincount(node[sel], pops.reshape(len(pops), -1).sum(axis=1)).max(initial=0.0)
                _check_truncation(step.step_id, pulse.ion, fock_cutoff, top)
                truncation = max(truncation, top)
                d = op.shape[0] * op.shape[1]
                u = (op * ph[:, None, None, :, None]).reshape(len(ph), d, d)
                part = _apply(u, part, [k, 1 + _MOTION], work)
                part = _apply(u.conj(), part, [k_bra, 1 + _MOTION + _SUBSYSTEMS], work)
                if dep is not None:
                    part = _apply(dep, part, [k, k_bra], work)
            else:  # one fused (site, site') superoperator: drive, then depolarizing
                d = len(op)
                sup = np.einsum("ab,cd->acbd", op, op.conj()).reshape(d * d, d * d)
                if dep is not None:
                    sup = dep @ sup
                cols = (ph[:, :, None] * ph.conj()[:, None, :]).reshape(-1, 1, d * d)
                part = _apply(sup * cols, part, [k, k_bra], work)
            if isinstance(sel, slice):
                rho = part
            else:
                rho[sel] = part
        for site in (s for s in acts if life[s] == i):
            if site == _MOTION:
                pops = np.einsum("eabcdabcd->eabcd", rho).real[..., np.array(levels[site]) != 0]
                motion += float(weight @ pops.reshape(len(pops), -1).sum(axis=1))
            axes = (1 + site, 1 + site + _SUBSYSTEMS)
            rho = np.expand_dims(np.trace(rho, axis1=axes[0], axis2=axes[1]), axes)
            levels[site] = (0,)
    return _Stack(rho, node, weight, rates, pending, keys, tuple(levels), truncation, motion)


def _evolve(steps, life, noise: NoiseConfig, quad_points: int | None, fock_cutoff: int) -> _Stack:
    """`_advance` from the cooled register through the leading rows `steps`,
    NODE_PASS quadrature nodes at a time; the passes' entries end in node order."""
    nodes, parts = _gh_nodes(noise, quad_points), []
    for lo in range(0, len(nodes), NODE_PASS):
        det_sd, det_h, weight = (np.array(v) for v in zip(*nodes[lo:lo + NODE_PASS]))
        n = len(weight)
        start = _Stack(
            rho=np.ones((n,) + (1,) * 2 * _SUBSYSTEMS, dtype=np.complex128),
            node=np.arange(lo, lo + n),
            weight=weight,
            rates=np.stack([np.zeros_like(det_sd), det_sd, det_h], axis=2),
            pending=np.zeros((n, N_IONS)),
            keys=({},) * n,
            levels=((0,),) * _SUBSYSTEMS,
        )
        parts.append(_advance(start, steps, life, 0, noise, fock_cutoff))
    return _Stack(
        *(np.concatenate([getattr(p, f) for p in parts]) for f in ("rho", "node", "weight", "rates", "pending")),
        keys=tuple(itertools.chain.from_iterable(p.keys for p in parts)),
        levels=parts[0].levels,
        truncation=max(p.truncation for p in parts),
        motion=sum(p.motion for p in parts),
    )


def _reduced(stack: _Stack, keep: tuple[int, ...]) -> np.ndarray:
    """Each entry's (d, d) density over the ions in `keep`, pending phases applied;
    every other subsystem is traced out."""
    rho = stack.rho
    for site in range(_SUBSYSTEMS):
        a, a_bra = 1 + site, 1 + site + _SUBSYSTEMS
        if site in keep:
            rho = _grow(rho, site, stack.levels[site], (0, 1, 2))
            ph = np.exp(-1j * stack.pending[:, site, None] * stack.rates[:, site])
            rho = rho * _along(ph, a) * _along(ph.conj(), a_bra)
        elif rho.shape[a] > 1:
            rho = np.expand_dims(np.trace(rho, axis1=a, axis2=a_bra), (a, a_bra))
    d = math.prod(rho.shape[1:1 + _SUBSYSTEMS])
    return rho.reshape(len(rho), d, d)


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

    Every (quadrature node, branch) entry advances through rows up to 33 on
    one stacked live register (`_advance`, NODE_PASS nodes at a time). Each
    mode then advances rows 34-35, whose readout splits the entries like pmt1
    and pmt2: P(bright) is the weight of the `final` = Bright entries.

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
    life = _lifetimes(seq, (_TARGET,))
    shared = sum(s.step_id < _ANALYSIS_ROW for s in seq)
    stack = _evolve(seq[:shared], life, noise, quad_points, fock_cutoff)

    labels = np.array([branch_label(k["pmt1"], k["pmt2"]) for k in stack.keys])
    weighted = stack.weight[:, None, None] * _reduced(stack, (_TARGET,))
    acc = {b: weighted[labels == b].sum(axis=0) for b in BRANCHES if b in labels}
    branch_probs = {b: float(np.real(np.trace(r))) for b, r in acc.items()}
    # A branch whose probability is a roundoff-level defect has no conditional state.
    occurring = [b for b in acc if branch_probs[b] > ATOL_STRUCTURAL]
    branch_states = {b: _qubit_block(acc[b] / branch_probs[b]) for b in occurring}

    total = sum(acc.values())
    tr_total = float(np.real(np.trace(total)))
    if abs(tr_total - 1.0) > 1e-9:
        raise InvariantViolation(f"exact evolution lost trace: {tr_total}")
    h_residual = float(np.real(total[2, 2]))
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
    if not can_strand and stack.motion > 1e-8:
        raise InvariantViolation(
            f"residual motional excitation {stack.motion:.3e} (sequence/convention bug)"
        )

    p_bright: dict[Mode, float] = {}
    final_bright: dict[Mode, dict[str, float]] = {}
    for m, seq_m in zip(modes, sequences):
        end = _advance(stack, seq_m[shared:], life, shared, noise, fock_cutoff)
        if "final" not in end.keys[0]:
            raise InvariantViolation("sequence produced no 'final' readout on ion 3")
        p = end.weight * _reduced(end, ()).real[:, 0, 0]
        bright = np.array([k["final"] is Outcome.BRIGHT for k in end.keys])
        label = np.array([branch_label(k["pmt1"], k["pmt2"]) for k in end.keys])
        final_bright[m] = {
            b: float(np.sum(p[bright & (label == b)])) / float(np.sum(p[label == b])) for b in occurring
        }
        p_bright[m] = min(max(float(np.sum(p[bright])), 0.0), 1.0)
    return ExactRun(
        rho_exp=_qubit_block(total),
        branch_probs=branch_probs,
        branch_states=branch_states,
        final_bright=final_bright[modes[0]],
        p_bright=p_bright,
        h_residual=h_residual,
        motional_residual=stack.motion,
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


# ---------------------------------------------------------------------------
# Phase calibration

@dataclass(frozen=True)
class CalibrationResult:
    phi_star: float
    fidelity: float  # the fitted polynomial at phi_star: the reference input's exact fidelity there
    grid_phis: np.ndarray
    grid_fidelities: np.ndarray
    residual: float  # the tripwire replay's miss of the fitted polynomial


def _trig_basis(phis) -> np.ndarray:
    """Rows (1, cos d, sin d, cos 2d, sin 2d), one per phase d."""
    d = np.atleast_1d(np.asarray(phis, dtype=float))[:, None]
    return np.hstack([np.ones_like(d), np.cos(d), np.sin(d), np.cos(2.0 * d), np.sin(2.0 * d)])


#: calibrate_phase's tail phases: five nodes 2 pi j / 5, whose values fix the
#: five coefficients (the 5-point DFT _DFT5), then one tripwire off the nodes.
_FIT_PHASES = np.append(np.arange(5) * (0.4 * PI), 1.0)
_DFT5 = _trig_basis(_FIT_PHASES[:5]).T * np.array([[0.2], [0.4], [0.4], [0.4], [0.4]])
#: Largest tripwire miss; also the coefficient size below which F is flat.
_FIT_TOL = 1e-12


def _phase_fit(samples) -> tuple[float, np.ndarray, float]:
    """(phi*, (a0, a1, b1, a2, b2), tripwire miss) of F(d) = a0 + sum_m a_m cos md + b_m sin md
    from F at _FIT_PHASES. phi* is the best angle among the roots of e^{2id} F'(d),
    a quartic in e^{id}, after one Newton step on F'; 0 for a flat F.
    """
    samples = np.asarray(samples, dtype=float)
    coef = _DFT5 @ samples[:5]
    residual = float(np.abs(_trig_basis(_FIT_PHASES) @ coef - samples).max())
    if not residual <= _FIT_TOL:
        raise InvariantViolation(f"calibration: a tail replay misses the degree-2 fit by {residual:.3e}")
    _, a1, b1, a2, b2 = coef
    if np.abs(coef[1:]).max() <= _FIT_TOL:
        return 0.0, coef, residual
    # z^2 F' = sum_m (m / 2) ((b_m + i a_m) z^(2+m) + (b_m - i a_m) z^(2-m)), z = e^{id}
    angles = np.angle(np.roots([b2 + 1j * a2, 0.5 * (b1 + 1j * a1), 0.0, 0.5 * (b1 - 1j * a1), b2 - 1j * a2]))
    phi = angles[np.argmax(_trig_basis(angles) @ coef)]
    ((slope, curve),) = _trig_basis(phi) @ [[0, 0], [b1, -a1], [-a1, -b1], [2 * b2, -4 * a2], [-2 * a2, -4 * b2]]
    return float(phi - slope / curve if curve < 0.0 else phi) % (2.0 * PI), coef, residual


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
) -> CalibrationResult:
    """The tail phase offset that maximises the reference input's exact fidelity F.

    Advances the stacked live register once, NODE_PASS quadrature nodes at a
    time, through the phase-independent rows up to 29; each of _FIT_PHASES
    then advances only rows 30-33, the phase = 0 rows with every pulse phase
    shifted, on that stack. The shift conjugates the tail by a z rotation of
    ion 3, so F is a degree-2 trigonometric polynomial of the offset: five
    replays fix it, a sixth checks it (`residual`), and `_phase_fit` gives
    its maximum in closed form, and `fidelity` its value there.
    `grid_fidelities` are its values at `grid` evenly spaced phases.
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
    life = _lifetimes(base_seq, (_TARGET,))
    fixed = sum(s.step_id < _TAIL_START for s in base_seq)
    stack = _evolve(base_seq[:fixed], life, noise, quad_points, fock_cutoff)
    tail = tuple(s for s in base_seq[fixed:] if s.step_id < _ANALYSIS_ROW)
    psi = reference_input.ket()

    def fidelity_at(phi: float) -> float:
        end = _advance(stack, _shift_phases(tail, phi), life, fixed, noise, fock_cutoff)
        rho3 = np.einsum("e,eab->ab", end.weight, _reduced(end, (_TARGET,)))[:2, :2]
        tr = float(np.real(np.trace(rho3)))
        return float(np.real(psi.conj() @ rho3 @ psi)) / tr

    phi_star, coef, residual = _phase_fit([fidelity_at(p) for p in _FIT_PHASES])
    phis = np.linspace(0.0, 2.0 * PI, grid, endpoint=False)
    fidelity = float((_trig_basis(phi_star) @ coef)[0])
    return CalibrationResult(phi_star, fidelity, phis, _trig_basis(phis) @ coef, residual)


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

    Calibration helper: tune depolarizing_per_pulse against this number. The
    stacked live register keeps ions 2 and 3 and traces the motion out after
    row 6.
    """
    _check_exact_noise(noise, "bell_preparation_fidelity")
    seq = build_sequence(canonical_inputs()[0], 0.0, FidelityCheck())
    prefix = tuple(s for s in seq if s.step_id <= 6)
    target = np.zeros(9)
    target[[1 * 3 + 0, 0 * 3 + 1]] = 1.0 / math.sqrt(2.0)  # |D S> + |S D>
    keep = (1, _TARGET)
    stack = _evolve(prefix, _lifetimes(prefix, keep), noise, quad_points, fock_cutoff)
    rho = np.tensordot(stack.weight, _reduced(stack, keep), axes=1)
    return float(np.real(target @ rho @ target))
