"""Deterministic three-ion teleportation protocol.

The 35-step pulse table teleports an arbitrary qubit state written on ion 1
onto ion 3: a sideband-mediated Bell pair is shared between ions 2 and 3, a
composite-pulse phase gate plus carrier rotations project ions 1-2 onto the
Bell basis via two sequential PMT readouts, and the reported outcomes steer
unitary reconstruction pulses on ion 3. Every classical branch occurs with
probability 1/4 and reconstructs the input exactly in the noiseless limit —
the conditional set is {I, iX, iZ, XZ} up to global phases, keyed on
(pmt1, pmt2) = (S/D, S/D).

Two execution paths take the same tables, built once by build_sequence:

* run_shot — pure-state trajectories with sampled noise, each keyed
  deterministically by (master_seed, shot_index) in noise.SHOT_BLOCK blocks.
  Shots of several sequences advance together, SHOT_PASS at a time, as one
  (shots, 3, 3, 3, fock_cutoff) array, stored with the shot axis innermost
  in memory and updated in place by every drive and readout; feed-forward
  and rows where the sequences differ are masks over shots, and the results
  are per-shot arrays (Shots). tomography.bright_counts turns either path's
  results into counts;
* exact_run — density-matrix evolution of every input's tables (one per
  row-34 mode, sharing the rows before it) with measurement instruments and
  channel noise, Gauss-Hermite-averaged over the quasi-static detuning
  distribution. Every (input, quadrature node, reported branch) entry
  advances on one stacked live register in one row loop over run_shot's row
  plan: rows before 34 NODE_PASS (input, node) pairs at a time, then rows
  34-35 once per table index on all entries. The inputs' tables may differ
  wherever run_shot's may: a row they share acts once on all entries, and at
  any other each entry takes its own input's operator. A subsystem holds
  only the levels its drives have reached in any input and no exact pi
  pulse has emptied since (any other level is zero) and leaves after the
  last sideband or readout needing it (at most 32 levels between drives,
  after rows 10-18 of the standard table, then 8, 4 and 2), every readout
  splits the entries on the reported outcome, and each ion's detuning phase
  waits for its next drive. This is the infinite-statistics reference.
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
from .schema import read_fields
from . import trap
from .trap import (
    BlueSideband,
    Carrier,
    D,
    Detect,
    H,
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
#: The mode-dependent analysis row; every row before it is shared by all modes.
_ANALYSIS_ROW = 34
#: Row 34's analysis pulse on the target ion for each tomography basis, as
#: (theta, phi) before the tail phase is added; the z basis reads with none.
ANALYSIS_PULSES = {"z": None, "x": (0.5 * PI, 1.5 * PI), "y": (0.5 * PI, PI)}
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

    def __post_init__(self):
        read_fields(self)

    def ket(self) -> np.ndarray:
        return trap.rotation_2x2(self.theta_chi, self.phi_chi)[:, 0].copy()

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

    basis: str  # a key of ANALYSIS_PULSES: "z", "x" or "y"

    def __post_init__(self):
        if self.basis not in ANALYSIS_PULSES:
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
    elif (analysis := ANALYSIS_PULSES[mode.basis]) is None:
        rows.append((Wait(0.0), "no analysis pulse (Z basis)"))
    else:
        rows.append((Carrier(2, analysis[0], analysis[1] + phi), f"{mode.basis.upper()}-basis analysis pulse"))
    rows.append((Detect(2, "final"), "readout of ion 3"))

    return tuple(SequenceStep(i + 1, action, comment) for i, (action, comment) in enumerate(rows))


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
#: Shots per pass of run_shot: bounds the stacked state (1.8 MB at
#: fock_cutoff 4) whatever the shot total, while spreading each row's fixed
#: cost over many shots; with the shot axis innermost, each elementwise pass
#: runs over contiguous runs of this many amplitudes.
SHOT_PASS = 1024


def _row_plan(tables: list[tuple[SequenceStep, ...]], noise: NoiseConfig) -> list[tuple]:
    """Rows of tables run together: (step id, first action, drive, on, theta, phi, duration).

    The tables must share step ids, readouts, conditions and each row's kind
    of drive, but one may wait where others drive; `on` marks those that drive.
    A readout is never conditional: both engines make every readout.
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
        if isinstance(drive, Detect) and isinstance(steps[0].action, ConditionalPulse):
            raise InvariantViolation(f"row {steps[0].step_id}: a readout cannot be conditional")
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
) -> Shots:
    """Full trajectories through the sequence with sampled noise.

    `shot_index` is a range or 1-D array of indices, one shot each, and each
    Shots field lists them in that order. The shots run SHOT_PASS at a time
    on one row plan, each pass advancing together as one (shots, 3, 3, 3,
    fock_cutoff) array, one row at a time: a view of a (3, 3, 3, fock_cutoff,
    shots) buffer, shot axis innermost in memory, which every drive and
    readout updates in place. Each shot's randomness is keyed by
    (master_seed, shot_index) alone, in the block layout of sample_shot_noise,
    and its draws are indexed by step id, so a skipped conditional pulse never
    shifts another step's noise and a shot's outcomes depend on no other shot.

    With a list of tables as `sequence`, `sequence_index` gives each shot's
    table and `master_seed` may give each shot's seed. Each ion's detuning
    phase waits for its next drive, which applies it (apply_pulse's `phase`);
    what is left after the last readout changes no outcome and is dropped.
    Before each blue sideband, a shot that no Pauli flip has hit raises past
    TRUNCATION_BOUND on its ion's |S, fock_cutoff-1>, as exact_run's nodes do.
    """
    index = np.asarray(shot_index, dtype=np.int64)
    if index.ndim != 1:
        raise DimensionMismatch("shot_index must be a range or 1-D array of shot indices")
    tables = [sequence] if sequence_index is None else list(sequence)
    table = np.zeros(index.size, np.intp) if sequence_index is None else np.asarray(sequence_index, np.intp)
    seed = np.broadcast_to(np.asarray(master_seed, dtype=object), index.shape)
    plan = _row_plan(tables, noise)
    passes = [  # an empty index still makes one pass, which checks the readouts
        _run_pass(plan, noise, seed[part], index[part], table[part], fock_cutoff)
        for part in (slice(lo, lo + SHOT_PASS) for lo in range(0, index.size or 1, SHOT_PASS))
    ]
    return Shots(*map(np.concatenate, zip(*passes)))


def _run_pass(plan: list[tuple], noise: NoiseConfig, master_seed, index, table, fock_cutoff: int) -> tuple:
    """One pass of run_shot over its `plan`: the Shots fields of these shots, in order."""
    shot = sample_shot_noise(noise, master_seed, index, N_IONS, max(row[0] for row in plan))
    # Each ion's per-level detuning (S, D, H), or None when no shot dephases.
    rates = np.stack([np.zeros_like(shot.detuning_SD), shot.detuning_SD, shot.detuning_H], axis=-1)
    rates = rates if np.any(rates) else None

    # Shots innermost: each elementwise pass of a drive runs over contiguous
    # runs of all shots, not over the few amplitudes one shot holds per pair.
    psi = np.moveaxis(np.zeros((3,) * N_IONS + (fock_cutoff, index.size), dtype=np.complex128), -1, 0)
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
            _check_readouts(bright, (action.detect_label,))
            fired = bright[action.detect_label] == (action.required is Outcome.BRIGHT)
        # A shot whose condition fails sees a zero-area pulse lasting no time,
        # which is exactly the identity, and draws no Pauli flip; so does a
        # shot whose table waits where others drive, after its own wait.
        on = on & fired
        elapsed = elapsed + np.where(fired, duration, 0.0)

        if isinstance(pulse, Detect):  # the unreleased phases commute with the projectors
            bright[pulse.label], _ = fluorescence_measure(psi, pulse.ion, shot.meas_u[:, col], noise.detection_error)
        elif np.any(on):
            if isinstance(pulse, BlueSideband):
                top = psi[(slice(None),) * (1 + pulse.ion) + (S, ..., -1)]  # (shots, other two ions)
                # summed in C order: each shot's sum then runs in one order whatever the shot count
                top = np.where(on, (np.abs(top, order="C") ** 2).sum(axis=(1, 2)), 0.0)
                _check_truncation(step_id, pulse.ion, fock_cutoff, top[~flipped])
                truncation = np.maximum(truncation, top)
            phase = None
            if rates is not None:
                t = elapsed - released[:, pulse.ion]
                phase, released[:, pulse.ion] = np.exp(-1j * t[:, None] * rates[:, pulse.ion]), elapsed
            theta = np.where(on, theta, 0.0)
            if noise.amplitude_error_sigma != 0.0:  # otherwise every factor is exactly 1
                theta = theta * shot.amplitude_factors[:, col]
            apply_pulse(psi, replace(pulse, theta=theta, phi=phi), phase)
            if isinstance(pulse, (Carrier, BlueSideband)) and noise.depolarizing_applies(step_id):
                k = sample_pauli_index(shot.depol_u[:, col], noise.depolarizing_per_pulse)
                hit = (k >= 0) & on
                if np.any(hit):
                    psi[hit] = apply_site(psi[hit], _PAULI_STACK[k[hit]], pulse.ion)
                    flipped |= hit

    _check_readouts(bright)
    return bright["pmt1"], bright["pmt2"], bright["final"], truncation, elapsed


def _check_readouts(made, labels=("pmt1", "pmt2", "final")) -> None:
    """Name the first readout in `labels` that is not a key of `made`, the readouts made so far."""
    for label in labels:
        if label not in made:
            raise InvariantViolation(f"sequence produced no {label!r} readout")


# ---------------------------------------------------------------------------
# Exact path: density-matrix evolution with measurement instruments.

#: The exact engine's subsystems: the ions, then the motional mode.
_SUBSYSTEMS = N_IONS + 1
_MOTION = N_IONS
#: (input, quadrature node) pairs per pass of the exact engine: bounds the
#: stacked register (27 pairs at the standard table's 48 levels hold about
#: 1 MB) whatever the input and node counts, 9^3 = 729 nodes per input by
#: default for uncorrelated dephasing.
NODE_PASS = 27


@functools.lru_cache(maxsize=256)
def _drive_plan(pulse: trap.Pulse, fock_cutoff: int, kept: tuple[tuple[int, ...], ...], depol: float):
    """(levels, op, dep) of a drive on subsystems that hold the levels `kept`.

    Built from trap.drive_pairs in closed form. `levels` are `kept` plus both
    ends of every pair whose rotation mixes them (a nonzero off-diagonal
    entry) and that has an end in `kept`, then, for depol > 0, S and D on an
    ion that holds either: any other level stays exactly zero. `op` is the
    unitary on `levels`: the identity, with each pair's rotation entry
    written wherever its row and column both lie in `levels` (an end whose
    partner lies outside keeps its cos(area/2)). `dep` is the ion's (d*d,
    d*d) depolarizing superoperator on its levels, None for depol = 0.
    Read-only; cached.
    """
    pairs = [((lower, upper), trap.rotation_2x2(pulse.theta * f, pulse.phi))
             for lower, upper, f in trap.drive_pairs(pulse, fock_cutoff)[0]]
    grown = [set(sub) for sub in kept]
    for ends, rot in pairs:
        held = any(all(level in sub for sub, level in zip(kept, end)) for end in ends)
        if held and (rot[0, 1] != 0 or rot[1, 0] != 0):
            for sub, both in zip(grown, zip(*ends)):  # each subsystem's levels of the two ends
                sub.update(both)
    if depol and grown[0] & {S, D}:  # the channel mixes S and D, and leaves H alone
        grown[0] |= {S, D}
    levels = tuple(tuple(sorted(sub)) for sub in grown)
    dep = _depolarizing_block(depol, levels[0]) if depol else None
    shape = tuple(map(len, levels))
    op = np.eye(math.prod(shape), dtype=np.complex128).reshape(shape * 2)
    where = [{level: i for i, level in enumerate(sub)} for sub in levels]  # level -> its index in `levels`
    for ends, rot in pairs:
        at = [tuple(ix.get(level) for ix, level in zip(where, end)) for end in ends]
        for (i, row), (j, col) in itertools.product(enumerate(at), repeat=2):
            if None not in row + col:
                op[row + col] = rot[i, j]
    op.flags.writeable = False
    return levels, op, dep


@functools.lru_cache(maxsize=None)
def _depolarizing_block(p: float, levels: tuple[int, ...]) -> np.ndarray:
    """The depolarizing superoperator's (d*d, d*d) block on an ion's `levels`. Read-only; cached."""
    dep = depolarizing_superop(p, 3).reshape(3, 3, 3, 3)[np.ix_(*(levels,) * 4)].reshape(len(levels) ** 2, -1)
    dep.flags.writeable = False
    return dep


def _row_sites(pulse: trap.Pulse) -> tuple[tuple[int, ...], bool]:
    """(subsystems a row's drive acts on, whether the live register must hold them for it).

    Only a blue sideband and a readout, which splits the entries, need their
    subsystems: any other row is a local channel, skipped on a subsystem only
    traced out.
    """
    if isinstance(pulse, Wait):
        return (), False
    if isinstance(pulse, BlueSideband):
        return (pulse.ion, _MOTION), True
    return (pulse.ion,), isinstance(pulse, Detect)


def _lifetimes(plan: list[tuple], keep: tuple[int, ...]) -> dict[int, int]:
    """The row index in `_row_plan`'s `plan` after which each subsystem leaves the live register.

    A subsystem is traced out right after the last row whose drive, in any
    table, needs it; one in `keep` stays to the end, len(plan). A subsystem
    that no row needs is never driven and has no entry.
    """
    life = {}
    for i, (acts, held) in enumerate(_row_sites(row[2]) for row in plan):
        life.update(dict.fromkeys(acts if held else (), i))
    return {**life, **dict.fromkeys(keep, len(plan))}


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


def _hermgauss(points: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy.polynomial.hermite.hermgauss(points) bit for bit, without importing numpy.polynomial.

    The nodes are the eigenvalues of the symmetric tridiagonal companion
    matrix of H_points (Golub & Welsch, Math. Comp. 23, 221 (1969)), refined
    by one Newton step on the normalised Hermite recurrence; the weights come
    from that recurrence, and both are symmetrised, the weights summing to sqrt(pi).
    """
    def normed(x: np.ndarray, n: int) -> np.ndarray:  # the normalised Hermite polynomial of degree n at x
        if n == 0:
            return np.full(x.shape, 1 / np.sqrt(np.sqrt(np.pi)))
        c0, c1, nd = 0.0, 1.0 / np.sqrt(np.sqrt(np.pi)), float(n)
        for _ in range(n - 1):
            c0, c1, nd = -c1 * np.sqrt((nd - 1.0) / nd), c0 + c1 * x * np.sqrt(2.0 / nd), nd - 1.0
        return c0 + c1 * x * np.sqrt(2)

    x = np.linalg.eigvalsh(np.diag(np.sqrt(0.5 * np.arange(1, points)), -1))  # reads the lower triangle
    x -= normed(x, points) / (normed(x, points - 1) * np.sqrt(2 * points))
    fm = normed(x, points - 1)
    fm /= np.abs(fm).max()
    w = 1 / (fm * fm)
    w = (w + w[::-1]) / 2
    w *= np.sqrt(np.pi) / w.sum()
    return (x - x[::-1]) / 2, w


def _gh_nodes(noise: NoiseConfig, quad_points: int | None):
    """(detuning_SD per ion, detuning_H per ion, weight) quadrature nodes."""
    sigma, bias, ratio = noise.detuning_sigma_SD, noise.detuning_bias_SD, noise.dephasing_ratio_H
    if sigma == 0.0:
        d = np.full(N_IONS, bias)
        return [(d, ratio * d, 1.0)]
    draws = 1 if noise.correlated_dephasing else N_IONS  # one detuning for all ions, or one each
    points = quad_points if quad_points is not None else (21 if draws == 1 else 9)
    x, w = _hermgauss(points)
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
    """Every (input, quadrature node, reported branch) entry of the exact engine.

    `rho` holds each entry's unnormalized density tensor: a leading entry
    axis, then one ket and one bra axis per subsystem. Both hold the
    subsystem's `levels`, the only ones a drive has reached so far in any
    input and left nonempty: every other level is zero. A subsystem holds (0,), |S> or
    |n=0>, until its first drive, and (0,), its trace, after its `_lifetimes`.
    Each ion's free-evolution time waits in `pending` until its next drive.
    """

    rho: np.ndarray                       # (E,) + ket axes + bra axes
    node: np.ndarray                      # (E,) index of the entry's (input, quadrature node)
    input: np.ndarray                     # (E,) index of the entry's input
    weight: np.ndarray                    # (E,) Gauss-Hermite weight of that node
    rates: np.ndarray                     # (E, ion, level) detuning of S, D, H in rad/us
    pending: np.ndarray                   # (E, ion) time not yet applied as a phase, in us
    keys: tuple[dict[str, Outcome], ...]  # reported outcomes of the entry's branch
    levels: tuple[tuple[int, ...], ...]   # per subsystem, the levels its ket and bra axes hold
    truncation: np.ndarray                # (inputs,) largest blue-sideband |S, fock_cutoff-1> population of a node
    motion: np.ndarray                    # (inputs,) weighted population above n = 0 when the motion left


def _advance(stack: _Stack, plan: list[tuple], life, first: int, noise: NoiseConfig, fock_cutoff: int) -> _Stack:
    """The exact engine's one row loop: every input's rows on every entry of `stack` at once.

    `plan` is `_row_plan` of rows first, first + 1, ... of each input's table,
    in input order; `life` came from a plan of them. A row all inputs share
    acts once on every entry; at any other, each entry takes its own input's
    operator and duration: where its table waits, as in run_shot, a zero-area
    drive with no depolarizing and no truncation read. A conditional row acts
    on the entries whose branch meets its condition. Every readout splits each
    entry on the reported outcome (the collapse follows the true outcome). A
    drive folds each entry's pending phase into its own operator; a blue
    sideband raises past TRUNCATION_BOUND when an (input, node)'s entries hold
    more than that on its ion's |S, fock_cutoff-1>. Before a drive, its
    subsystems grow to the levels `_drive_plan` says it reaches in every
    input, and the drive acts on those levels only. An exact pi pulse
    (|cos(area/2)| < 2^-52 in every input) that is unconditional,
    undepolarized and not a sideband, and finds one end of its pair held,
    leaves only rounding there: that end leaves the register.
    """
    rho, pending, keys = stack.rho.copy(), stack.pending.copy(), stack.keys
    node, inputs, weight, rates = stack.node, stack.input, stack.weight, stack.rates
    truncation, motion, levels = stack.truncation, stack.motion, list(stack.levels)
    eps = noise.detection_error
    work = (np.empty(0, rho.dtype),) * 2
    for i, (step_id, action, pulse, on, theta, phi, duration) in enumerate(plan, start=first):
        sel = slice(None)
        if isinstance(action, ConditionalPulse):
            _check_readouts(keys[0], (action.detect_label,))
            sel = np.array([key.get(action.detect_label) is action.required for key in keys], bool)
            rho = rho.copy()  # rho[sel] is written below: rho must not be _apply's output buffer
        pending[sel] += duration if np.ndim(duration) == 0 else duration[inputs[sel], None]
        acts = _row_sites(pulse)[0]
        if not acts or any(i > life.get(s, -1) for s in acts):
            continue  # a wait, or a local row on a subsystem that is only traced out
        k, k_bra = 1 + pulse.ion, 1 + pulse.ion + _SUBSYSTEMS
        if isinstance(pulse, Detect):
            is_s = np.array(levels[pulse.ion]) == S
            on_s, off_s = (_along(v, k) * _along(v, k_bra) for v in (is_s * 1.0, 1.0 - is_s))
            reports = np.stack([(1.0 - eps) * on_s + eps * off_s, eps * on_s + (1.0 - eps) * off_s], axis=1)
            rho = (rho[:, None] * reports).reshape((-1,) + rho.shape[1:])  # Bright, then Dark
            node, inputs, weight, rates, pending = (
                np.repeat(a, 2, axis=0) for a in (node, inputs, weight, rates, pending))
            keys = tuple({**key, pulse.label: o} for key in keys for o in (Outcome.BRIGHT, Outcome.DARK))
        else:
            pulses, each = (pulse,), 0  # one drive for all entries, or each input's own
            if np.ndim(on) + np.ndim(theta) + np.ndim(phi):
                theta, phi, on = np.broadcast_arrays(np.where(on, theta, 0.0), phi, on)
                each, pulses = inputs[sel], [replace(pulse, theta=t, phi=p) for t, p in np.c_[theta, phi].tolist()]
            depol = noise.depolarizing_applies(step_id) and not isinstance(pulse, Hide)
            rate, kept = noise.depolarizing_per_pulse if depol else 0.0, tuple(levels[s] for s in acts)
            plans = [_drive_plan(p, fock_cutoff, kept, rate) for p in pulses]
            while len({dp[0] for dp in plans}) > 1:  # inputs reach different levels: plan all on their union
                kept = tuple(tuple(sorted(set().union(*lv))) for lv in zip(*(dp[0] for dp in plans)))
                plans = [_drive_plan(p, fock_cutoff, kept, rate) for p in pulses]
            (grown, _, dep), ops = plans[0], np.stack([dp[1] for dp in plans])
            if dep is not None and not np.all(on):  # an input that waits is not depolarized
                dep = np.where(on[:, None, None], dep, np.eye(len(dep)))
            held = {S, D if isinstance(pulse, Carrier) else H} & set(levels[pulse.ion])
            empties = (len(held) == 1 and dep is None and not isinstance(pulse, BlueSideband) and isinstance(sel, slice)
                       and np.all(np.abs(np.cos(0.5 * theta)) < 2.0 ** -52))  # an input that waits has area 0
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
                top = np.zeros(len(truncation))  # a level the register does not hold is exactly empty
                if S in ion_lv and fock_cutoff - 1 in motion_lv:
                    pops = np.einsum("eabcdabcd->eabcd", part).real
                    pops = np.take(pops, ion_lv.index(S), axis=k)[..., motion_lv.index(fock_cutoff - 1)]
                    per_node = np.bincount(node[sel], pops.reshape(len(pops), -1).sum(axis=1))  # by (input, node)
                    np.maximum.at(top, inputs[sel], per_node[node[sel]])
                top = np.where(on, top, 0.0)
                _check_truncation(step_id, pulse.ion, fock_cutoff, top)
                truncation = np.maximum(truncation, top)
                d = ops.shape[1] * ops.shape[2]
                u = (ops[each] * ph[:, None, None, :, None]).reshape(len(ph), d, d)
                part = _apply(u, part, [k, 1 + _MOTION], work)
                part = _apply(u.conj(), part, [k_bra, 1 + _MOTION + _SUBSYSTEMS], work)
                if dep is not None:
                    part = _apply(dep if dep.ndim == 2 else dep[each], part, [k, k_bra], work)
            else:  # one fused (site, site') superoperator per input: drive, then depolarizing
                d = ops.shape[1]
                sup = np.einsum("iab,icd->iacbd", ops, ops.conj()).reshape(len(ops), d * d, d * d)
                if dep is not None:
                    sup = dep @ sup
                cols = (ph[:, :, None] * ph.conj()[:, None, :]).reshape(-1, 1, d * d)
                part = _apply(sup[each] * cols, part, [k, k_bra], work)
            if empties:  # the levels left are evenly spaced: a basic slice views them
                at = [i for i, lv in enumerate(grown[0]) if lv not in held]
                cut = slice(at[0], at[-1] + 1, at[-1] - at[0] or 1)
                part = part[tuple(cut if a in (k, k_bra) else slice(None) for a in range(part.ndim))]
                levels[pulse.ion] = tuple(grown[0][cut])
            if isinstance(sel, slice):
                rho = part
            else:
                rho[sel] = part
        for site in (s for s in acts if life[s] == i):
            if site == _MOTION:
                pops = np.einsum("eabcdabcd->eabcd", rho).real[..., np.array(levels[site]) != 0]
                motion = motion + np.bincount(inputs, weight * pops.reshape(len(pops), -1).sum(axis=1), len(motion))
            axes = (1 + site, 1 + site + _SUBSYSTEMS)
            rho = np.expand_dims(np.trace(rho, axis1=axes[0], axis2=axes[1]), axes)
            levels[site] = (0,)
    return _Stack(rho, node, inputs, weight, rates, pending, keys, tuple(levels), truncation, motion)


def _evolve(plan, inputs: int, life, noise: NoiseConfig, quad_points: int | None, fock_cutoff: int) -> _Stack:
    """`_advance` from the cooled register through `plan`, one row plan of `inputs`
    inputs' leading rows for all passes of NODE_PASS (input, quadrature node)
    pairs; the passes' entries end input-major, each input's in node order."""
    nodes, parts = _gh_nodes(noise, quad_points), []
    for lo in range(0, inputs * len(nodes), NODE_PASS):
        entry = np.arange(lo, min(lo + NODE_PASS, inputs * len(nodes)))
        det_sd, det_h, weight = (np.array(v) for v in zip(*(nodes[e % len(nodes)] for e in entry)))
        n = len(entry)
        start = _Stack(
            rho=np.ones((n,) + (1,) * 2 * _SUBSYSTEMS, dtype=np.complex128),
            node=entry,
            input=entry // len(nodes),
            weight=weight,
            rates=np.stack([np.zeros_like(det_sd), det_sd, det_h], axis=2),
            pending=np.zeros((n, N_IONS)),
            keys=({},) * n,
            levels=((0,),) * _SUBSYSTEMS,
            truncation=np.zeros(inputs),
            motion=np.zeros(inputs),
        )
        parts.append(_advance(start, plan, life, 0, noise, fock_cutoff))
    return _Stack(
        *(np.concatenate([getattr(p, f) for p in parts])
          for f in ("rho", "node", "input", "weight", "rates", "pending")),
        keys=tuple(itertools.chain.from_iterable(p.keys for p in parts)),
        levels=parts[0].levels,
        truncation=np.max([p.truncation for p in parts], axis=0),
        motion=sum(p.motion for p in parts),
    )


def _inputs(stack: _Stack, lo: int, hi: int) -> _Stack:
    """The entries of inputs lo, ..., hi - 1 of `stack`, in order, those inputs renumbered from 0."""
    keep = (stack.input >= lo) & (stack.input < hi)
    return replace(
        stack, rho=stack.rho[keep], node=stack.node[keep], input=stack.input[keep] - lo, weight=stack.weight[keep],
        rates=stack.rates[keep], pending=stack.pending[keep], keys=tuple(itertools.compress(stack.keys, keep)),
        truncation=stack.truncation[lo:hi], motion=stack.motion[lo:hi],
    )


@dataclass(frozen=True)
class ExactPrefix:
    """An exact pass through the rows before `split`, a row index, for exact_run to go on from.

    `stack` holds the entries of every input of `rows`, each input's table
    cut at `split`, in order, then of one more input when calibrate_phase
    added psi6 for its fit. `plan` is the pass's `_row_plan`, `life` the
    `_lifetimes` it ran with and `settings` its (noise, quad_points, fock_cutoff).
    """

    stack: _Stack
    rows: tuple[tuple[SequenceStep, ...], ...]
    split: int
    plan: list[tuple]
    life: dict[int, int]
    settings: tuple

    def resume(self, tables: list[tuple[tuple[SequenceStep, ...], ...]], life: dict[int, int],
               settings: tuple) -> _Stack:
        """The stack of exact_run's `tables`, run with `life` and `settings`, after the rows before `split`.

        Raises unless those rows of the tables are `rows` and the pass ran with
        the same settings and lifetimes up to `split`.
        """
        cut = [{site: min(i, self.split) for site, i in lf.items()} for lf in (life, self.life)]
        if [t[0][:self.split] for t in tables] != list(self.rows) or cut[0] != cut[1] or settings != self.settings:
            raise InvariantViolation(f"the exact pass handed on does not hold these tables' rows 1-{self.split}")
        return _inputs(self.stack, 0, len(self.rows))


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
    p_bright: tuple[float, ...]              # reported P(bright), row 35, per table in order,
                                             # clamped to [0, 1] against roundoff
    h_residual: float
    motional_residual: float
    truncation_population: float             # max blue-sideband |S, fock_cutoff-1> population
    # The two per-branch conditionals below, built on first read, leave out every
    # branch whose probability is at roundoff level (<= 1e-12): it has no conditional state.
    branches: dict[str, np.ndarray]          # ion-3 state times its probability, per occurring branch
    final: tuple                             # (weight, final Bright, branch) of the first table's entries

    @functools.cached_property
    def branch_states(self) -> dict[str, DensityMatrix]:  # normalized per reported branch
        return {b: _qubit_block(acc / self.branch_probs[b]) for b, acc in self.branches.items()}

    @functools.cached_property
    def final_bright(self) -> dict[str, float]:  # reported P(bright | branch), row 35, first table
        p, bright, label = self.final
        return {b: float(np.sum(p[bright & (label == b)])) / float(np.sum(p[label == b])) for b in self.branches}


def exact_run(
    tables: list[tuple[tuple[SequenceStep, ...], ...]],
    noise: NoiseConfig = NoiseConfig(),
    *,
    quad_points: int | None = None,
    fock_cutoff: int = 4,
    prefix: ExactPrefix | None = None,
) -> list[ExactRun]:
    """Full exact evolution of every input: branch states after row 33 + row-35 statistics.

    `tables` holds one tuple of tables per input, one table per row-34 mode,
    input-major; an input's tables must share every row before 34, and the
    inputs' tables may differ wherever run_shot's may (`_row_plan`). Every
    (input, quadrature node, branch) entry advances through the rows before
    34 once, on one stacked live register (`_advance`, NODE_PASS (input,
    node) pairs at a time). Each table index then advances its rows 34-35
    for all inputs,
    whose readout splits the entries like pmt1 and pmt2: P(bright) is the
    weight of the `final` = Bright entries. One ExactRun per input, in
    order: `final_bright` belongs to its first table; `p_bright` holds each
    of its tables' reported P(bright), in order; no inputs give no runs.
    A `prefix` from calibrate_phase holds the rows before its split already
    advanced on these inputs with these settings (`ExactPrefix.resume`
    checks it and drops an input added for the fit); the rows go on from there.
    """
    _check_exact_noise(noise, "exact_run")
    if not tables:
        return []
    if len({len(t) for t in tables}) > 1:
        raise InvariantViolation("every input needs as many tables as the others")
    heads = [[[(s.step_id, s.action) for s in seq if s.step_id < _ANALYSIS_ROW] for seq in t] for t in tables]
    for a, b in (pair for h in heads for head in h[1:] for pair in itertools.zip_longest(h[0], head)):
        if a != b:
            raise InvariantViolation(f"row {(a or b)[0]}: an input's tables differ before row {_ANALYSIS_ROW}")
    shared, split = sum(s.step_id < _ANALYSIS_ROW for s in tables[0][0]), prefix.split if prefix else 0
    head = _row_plan([t[0][split:shared] for t in tables], noise)
    tails = [_row_plan([t[m][shared:] for t in tables], noise) for m in range(len(tables[0]))]
    life = _lifetimes((prefix.plan if prefix else []) + head + [row for tail in tails for row in tail], (_TARGET,))
    if prefix is None:  # `life` holds what any mode needs
        stack = _evolve(head, len(tables), life, noise, quad_points, fock_cutoff)
    else:
        stack = prefix.resume(tables, life, (noise, quad_points, fock_cutoff))
        stack = _advance(stack, head, life, split, noise, fock_cutoff)
    ends = [_advance(stack, tail, life, shared, noise, fock_cutoff) for tail in tails]
    for end in ends:
        _check_readouts(end.keys[0])
    tails = [(end.input, end.weight * _reduced(end, ()).real[:, 0, 0],
              np.array([k["final"] is Outcome.BRIGHT for k in end.keys]),
              np.array([branch_label(k["pmt1"], k["pmt2"]) for k in end.keys])) for end in ends]

    labels = np.array([branch_label(k["pmt1"], k["pmt2"]) for k in stack.keys])
    weighted = stack.weight[:, None, None] * _reduced(stack, (_TARGET,))
    # Depolarizing flips and inter-pulse detuning phases both break the
    # composite gate's interference and legitimately strand motional
    # population, so the bug tripwire only arms when neither is present.
    can_strand = noise.depolarizing_per_pulse != 0.0 or noise.detuning_sigma_SD != 0.0 or noise.detuning_bias_SD != 0.0
    runs = []
    for j in range(len(tables)):
        mine = stack.input == j
        acc = {b: weighted[mine & (labels == b)].sum(axis=0) for b in BRANCHES if b in labels[mine]}
        branch_probs = {b: float(np.real(np.trace(r))) for b, r in acc.items()}
        total = sum(acc.values())
        tr_total = float(np.real(np.trace(total)))
        if abs(tr_total - 1.0) > 1e-9:
            raise InvariantViolation(f"exact evolution lost trace: {tr_total}")
        h_residual = float(np.real(total[2, 2]))
        if h_residual > 1e-8:
            raise InvariantViolation(f"residual H population {h_residual:.3e} after unhide (sequence/convention bug)")
        if not can_strand and stack.motion[j] > 1e-8:
            raise InvariantViolation(f"residual motional excitation {stack.motion[j]:.3e} (sequence/convention bug)")

        finals = [(p[i == j], bright[i == j], label[i == j]) for i, p, bright, label in tails]
        runs.append(ExactRun(
            rho_exp=_qubit_block(total),
            branch_probs=branch_probs,
            p_bright=tuple(min(max(float(np.sum(p[bright])), 0.0), 1.0) for p, bright, _ in finals),
            h_residual=h_residual,
            motional_residual=float(stack.motion[j]),
            truncation_population=float(stack.truncation[j]),
            branches={b: r for b, r in acc.items() if branch_probs[b] > ATOL_STRUCTURAL},
            final=finals[0],
        ))
    return runs


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
    fidelity: float  # the fitted polynomial at phi_star: psi6's exact fidelity there
    grid_phis: np.ndarray
    grid_fidelities: np.ndarray
    residual: float  # the tripwire replay's miss of the fitted polynomial
    prefix: ExactPrefix  # the fit's exact pass through the rows before the tail, for exact_run


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
    *,
    inputs: tuple[InputStateSpec, ...] = (),
    grid: int = 32,
    quad_points: int | None = None,
    fock_cutoff: int = 4,
    spin_echo: bool = True,
    standby_wait_us: float = 1.0,
    rephase_wait_us: float = 300.0,
) -> CalibrationResult:
    """The tail phase offset that maximises psi6's exact fidelity F.

    psi6's rows before row 30, where the offset starts, advance once on the
    stacked live register, NODE_PASS (input, quadrature node) pairs at a time,
    after those of each of `inputs` unless an input's rows there are psi6's.
    The offset d conjugates rows 30-33 by V = diag(1, e^{-i d}, 1) on ion 3's
    (S, D, H), so F is a degree-2 trigonometric polynomial of d: the part of
    coherence order m (D in the ket minus D in the bra) leaves the phase-0
    tail times e^{i m d}, between V and V^dagger. One phase-0 tail on the three
    parts gives F at the five DFT nodes; a replay at _FIT_PHASES[5] checks
    it (`residual`), `_phase_fit` gives its maximum in closed form, and
    `fidelity` its value there. `grid_fidelities` are its values at `grid`
    evenly spaced phases. `prefix` hands the pass on to exact_run, which goes
    on from it for tables of `inputs` at any phase and row-34 mode.
    """
    _check_exact_noise(noise, "calibrate_phase")
    if grid < 8:
        raise ConfigError("calibration grid needs at least 8 points")
    psi6 = canonical_inputs()[5]  # +x superposition: phase-sensitive
    kwargs = dict(standby_wait_us=standby_wait_us, rephase_wait_us=rephase_wait_us, spin_echo=spin_echo)
    tables = [
        tuple(s for s in build_sequence(psi6, phi, FidelityCheck(), **kwargs) if s.step_id < _ANALYSIS_ROW)
        for phi in _FIT_PHASES[[0, 5]]
    ]
    fixed = next(i for i, row in enumerate(zip(*tables)) if len(set(row)) > 1)
    rows, own = tuple(build_sequence(spec, 0.0, **kwargs)[:fixed] for spec in inputs), tables[0][:fixed]
    heads = list(rows) if own in rows else [*rows, own]
    head, (tail, check) = _row_plan(heads, noise), [_row_plan([t[fixed:]], noise) for t in tables]
    life = _lifetimes(head + tail, (_TARGET,))
    stack = _evolve(head, len(heads), life, noise, quad_points, fock_cutoff)
    at = heads.index(own)
    mine, psi, o = _inputs(stack, at, at + 1), psi6.ket(), np.array(stack.levels[_TARGET]) == D
    order = _along(o * 1, 1 + _TARGET) - _along(o * 1, 1 + _TARGET + _SUBSYSTEMS)
    parts = replace(mine, rho=np.concatenate([mine.rho * (order == m) for m in (-1, 0, 1)]), keys=mine.keys * 3, **{
        f: np.concatenate([getattr(mine, f)] * 3) for f in ("node", "input", "weight", "rates", "pending")})
    end = _advance(parts, tail, life, fixed, noise, fock_cutoff)
    r = [np.einsum("e,eab->ab", w, x) for w, x in zip(np.split(end.weight, 3), np.split(_reduced(end, (_TARGET,)), 3))]
    v = np.exp(-1j * np.outer(_FIT_PHASES[:5], np.arange(3) == D))  # V's diagonal at each DFT node
    rho3 = [x[:, None] * (np.exp(-1j * d) * r[0] + r[1] + np.exp(1j * d) * r[2]) * x.conj()
            for d, x in zip(_FIT_PHASES, v)]
    end = _advance(mine, check, life, fixed, noise, fock_cutoff)
    rho3.append(np.einsum("e,eab->ab", end.weight, _reduced(end, (_TARGET,))))
    samples = [float(np.real(psi.conj() @ x[:2, :2] @ psi)) / float(np.real(np.trace(x[:2, :2]))) for x in rho3]

    phi_star, coef, residual = _phase_fit(samples)
    phis = np.linspace(0.0, 2.0 * PI, grid, endpoint=False)
    fidelity = float((_trig_basis(phi_star) @ coef)[0])
    prefix = ExactPrefix(stack, rows, fixed, head, life, (noise, quad_points, fock_cutoff))
    return CalibrationResult(phi_star, fidelity, phis, _trig_basis(phis) @ coef, residual, prefix)


# ---------------------------------------------------------------------------
# Baselines and calibration helpers

def classical_baseline_per_state() -> np.ndarray:
    """Best measure-and-resend fidelity (fixed Z measurement) per canonical input."""
    return np.array([float(sum(abs(a) ** 4 for a in spec.ket())) for spec in canonical_inputs()])


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
    keep, plan = (1, _TARGET), _row_plan([prefix], noise)
    stack = _evolve(plan, 1, _lifetimes(plan, keep), noise, quad_points, fock_cutoff)
    rho = np.tensordot(stack.weight, _reduced(stack, keep), axes=1)
    return float(np.real(target @ rho @ target))
