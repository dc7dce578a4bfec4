"""The batched trajectory engine against a scalar reference and the exact engine.

`scalar_run_shot` is the one-shot-at-a-time step loop that `run_shot` replaced,
kept here as the oracle: it draws every shot's row of its SHOT_BLOCK-shot
blocks itself, dephases the whole register on every row and applies each
row with its own tensordot algebra, so a batched `run_shot`, which defers
each ion's phase into its next drive, must reproduce it outcome for outcome.
The chi-square suite then checks that the sampled joint (branch, final
outcome) law is the exact engine's, as a Monte-Carlo wave-function
unraveling of that channel must be.
"""
from dataclasses import fields, replace

import numpy as np
import pytest

from teleion import protocol
from teleion.errors import DimensionMismatch, InvariantViolation
from teleion.noise import RUN_STREAM_TAG, SHOT_BLOCK, NoiseConfig, _site_paulis
from teleion.protocol import (
    BRANCHES,
    TRUNCATION_BOUND,
    ConditionalPulse,
    FidelityCheck,
    Shots,
    Tomography,
    build_sequence,
    canonical_inputs,
    exact_run,
    run_shot,
)
from teleion.tomography import bright_counts
from teleion.trap import (
    S,
    BlueSideband,
    Carrier,
    Detect,
    Hide,
    Outcome,
    Wait,
    bright_projector_mask,
)

from oracles import carrier_local, hide_local, sideband_local

N_IONS = 3
PAPER = dict(detuning_sigma_SD=0.0015, depolarizing_per_pulse=0.025)


# ---------------------------------------------------------------------------
# Scalar reference

def _scalar_draws(noise, master_seed, shot_index, n_steps):
    """Shot `shot_index`'s row of its block's two streams, drawn in full here.

    Returns (detuning_SD, detuning_H, amplitude factors, depolarizing
    uniforms, readout pairs).
    """
    block, row = divmod(int(shot_index), SHOT_BLOCK)
    key = [int(master_seed), block]
    n_g = 1 if noise.correlated_dephasing else N_IONS
    normal = np.random.default_rng(key).standard_normal((SHOT_BLOCK, n_g + n_steps))[row]
    g = np.full(N_IONS, normal[0]) if noise.correlated_dephasing else normal[:N_IONS]
    det_sd = noise.detuning_bias_SD + noise.detuning_sigma_SD * g
    factors = 1.0 + noise.amplitude_error_sigma * normal[n_g:]
    rng = np.random.default_rng(key + [RUN_STREAM_TAG])
    depol_u = rng.random((SHOT_BLOCK, n_steps))[row]
    meas_u = rng.random((SHOT_BLOCK, n_steps, 2))[row]
    return det_sd, noise.dephasing_ratio_H * det_sd, factors, depol_u, meas_u


def _apply_site(t, op, site):
    return np.moveaxis(np.tensordot(op, t, axes=([1], [site])), 0, site)


def _apply_ion_motion(t, op, ion):
    nc = t.shape[-1]
    out = np.tensordot(op.reshape(3, nc, 3, nc), t, axes=([2, 3], [ion, t.ndim - 1]))
    return np.moveaxis(out, [0, 1], [ion, t.ndim - 1])


def scalar_run_shot(sequence, noise, master_seed, shot_index, *, fock_cutoff=4):
    """One trajectory, one row at a time: (pmt1, pmt2, final, truncation, elapsed_us).

    Before each blue sideband it reads the ion's |S, fock_cutoff-1> population;
    until a Pauli flip hits the shot, more than TRUNCATION_BOUND there raises.
    """
    n_steps = max(s.step_id for s in sequence)
    det_sd, det_h, factors, depol_u, meas_u = _scalar_draws(noise, master_seed, shot_index, n_steps)

    dims = (3,) * N_IONS + (fock_cutoff,)
    t = np.zeros(dims, dtype=np.complex128)
    t[(0,) * len(dims)] = 1.0
    flipped, truncation, elapsed = False, 0.0, 0.0
    outcomes = {}
    for step in sequence:
        action = step.action
        if isinstance(action, ConditionalPulse):
            if outcomes.get(action.detect_label) is not action.required:
                continue
            pulse = action.pulse
        else:
            pulse = action

        duration = noise.pulse_durations.of(pulse)
        if duration != 0.0 and (np.any(det_sd) or np.any(det_h)):
            for ion in range(N_IONS):
                t = _apply_site(t, np.diag(np.exp(-1j * duration * np.array([0.0, det_sd[ion], det_h[ion]]))), ion)
        elapsed += duration

        if isinstance(pulse, Detect):
            mask = bright_projector_mask(N_IONS, fock_cutoff, pulse.ion)
            p_bright = min(max(float(np.sum(np.abs(t[mask]) ** 2)), 0.0), 1.0)
            u_collapse, u_flip = meas_u[step.step_id - 1]
            true = Outcome.BRIGHT if u_collapse < p_bright else Outcome.DARK
            collapsed = np.where(mask if true is Outcome.BRIGHT else ~mask, t, 0.0)
            norm = np.linalg.norm(collapsed)
            if norm == 0.0:
                raise InvariantViolation("measurement collapsed onto a zero branch")
            t = collapsed / norm
            reported = true
            if noise.detection_error > 0.0 and u_flip < noise.detection_error:
                reported = true.flipped()
            outcomes[pulse.label] = reported
        elif not isinstance(pulse, Wait):
            theta = pulse.theta * factors[step.step_id - 1]
            if isinstance(pulse, BlueSideband):
                top = float(np.sum(np.abs(np.take(t, S, axis=pulse.ion)[..., -1]) ** 2))
                truncation = max(truncation, top)
                if not flipped and top > TRUNCATION_BOUND:
                    raise InvariantViolation(
                        f"row {step.step_id}: population {top:.3e} on ion {pulse.ion + 1}'s "
                        f"|S, n={fock_cutoff - 1}> exceeds TRUNCATION_BOUND; raise fock_cutoff"
                    )
            if isinstance(pulse, Carrier):
                t = _apply_site(t, carrier_local(theta, pulse.phi), pulse.ion)
            elif isinstance(pulse, Hide):
                t = _apply_site(t, hide_local(theta, pulse.phi), pulse.ion)
            else:
                t = _apply_ion_motion(t, sideband_local(theta, pulse.phi, fock_cutoff), pulse.ion)
            p = noise.depolarizing_per_pulse
            if isinstance(pulse, (Carrier, BlueSideband)) and noise.depolarizing_applies(
                step.step_id
            ):
                u = float(depol_u[step.step_id - 1])
                if u >= 1.0 - 0.75 * p:
                    k = min(int((u - (1.0 - 0.75 * p)) / (0.25 * p)), 2)
                    t = _apply_site(t, _site_paulis(3)[k], pulse.ion)
                    flipped = True
    return outcomes["pmt1"], outcomes["pmt2"], outcomes["final"], truncation, elapsed


# ---------------------------------------------------------------------------
# Batched run_shot == scalar reference, shot for shot

# (noise, input index, row-34 mode, build_sequence options, fock_cutoff)
MATRIX = {
    "paper noise + amplitude 0.01": (NoiseConfig(amplitude_error_sigma=0.01, **PAPER), 5, Tomography("x"), {}, 4),
    "detection error + uncorrelated dephasing": (
        NoiseConfig(detection_error=0.05, detuning_sigma_SD=0.0015, correlated_dephasing=False),
        2, FidelityCheck(), {}, 4,
    ),
    "bias + depolarizing_steps": (
        NoiseConfig(detuning_bias_SD=0.001, depolarizing_per_pulse=0.2, depolarizing_steps=(5, 11, 17, 30)),
        3, Tomography("y"), {}, 4,
    ),
    "echo off": (NoiseConfig(**PAPER), 4, FidelityCheck(), {"spin_echo": False}, 4),
    "fock cutoff 6": (NoiseConfig(amplitude_error_sigma=0.02, **PAPER), 0, Tomography("z"), {}, 6),
    "fock cutoff 3": (
        NoiseConfig(amplitude_error_sigma=0.01, detection_error=0.02, **PAPER), 2, FidelityCheck(), {}, 3,
    ),
    "noiseless": (NoiseConfig(), 5, FidelityCheck(), {}, 4),
}
SHOTS = 64


@pytest.mark.parametrize("case", MATRIX.values(), ids=list(MATRIX))
def test_batched_run_shot_matches_the_scalar_reference(case):
    noise, spec, mode, options, nc = case
    seq = build_sequence(canonical_inputs()[spec], 0.0, mode, **options)
    seed, first = 31, 1000
    shots = run_shot(seq, noise, seed, range(first, first + SHOTS), fock_cutoff=nc)
    assert shots.final.shape == (SHOTS,)
    for k, i in enumerate(range(first, first + SHOTS)):
        pmt1, pmt2, final, truncation, elapsed = scalar_run_shot(seq, noise, seed, i, fock_cutoff=nc)
        assert (shots.pmt1[k], shots.pmt2[k], shots.final[k]) == tuple(
            o is Outcome.BRIGHT for o in (pmt1, pmt2, final)
        ), i
        assert abs(shots.truncation[k] - truncation) <= 1e-12
        assert abs(shots.elapsed_us[k] - elapsed) <= 1e-12


SHOT_FIELDS = [f.name for f in fields(Shots)]


def test_a_shots_outcomes_do_not_depend_on_the_other_shots():
    noise, spec, mode, options, nc = MATRIX["paper noise + amplitude 0.01"]
    seq = build_sequence(canonical_inputs()[spec], 0.0, mode, **options)
    batch = run_shot(seq, noise, 8, np.array([4, 9, 2]))
    for k, i in enumerate((4, 9, 2)):
        one = run_shot(seq, noise, 8, np.array([i]))
        for name in SHOT_FIELDS:
            assert np.array_equal(getattr(one, name), getattr(batch, name)[k : k + 1]), (i, name)
    empty = run_shot(seq, noise, 8, range(0))
    assert all(getattr(empty, name).shape == (0,) for name in SHOT_FIELDS)
    with pytest.raises(DimensionMismatch, match="shot_index"):
        run_shot(seq, noise, 8, 4)


def test_a_shot_alone_reads_what_it_reads_in_a_batch():
    # At cutoff 3 a sideband's truncation read sums several nonzero
    # populations for some shots; summed in the register's memory order
    # (shot axis innermost), a shot alone would get other last bits than the
    # same shot in a batch. Seed 8 has such shots among its first 64.
    noise, spec, mode, options, nc = MATRIX["fock cutoff 3"]
    seq = build_sequence(canonical_inputs()[spec], 0.0, mode, **options)
    index = np.arange(64)
    batch = run_shot(seq, noise, 8, index, fock_cutoff=nc)
    for k in index:
        one = run_shot(seq, noise, 8, index[k : k + 1], fock_cutoff=nc)
        for name in SHOT_FIELDS:
            assert np.array_equal(getattr(one, name), getattr(batch, name)[k : k + 1]), (k, name)


@pytest.mark.parametrize("spec", canonical_inputs(), ids=lambda spec: spec.label)
def test_fock_cutoff_2_trips_the_truncation_bound_like_the_reference(spec):
    # At cutoff 2 the phase gate finds half the population on ion 1's |S, n=1>
    # (none for psi2, whose ion 1 sits in D), and the exact engine raises too.
    seq = build_sequence(spec)
    for noise in (NoiseConfig(), NoiseConfig(**PAPER)):
        if spec.label == "psi2":
            assert run_shot(seq, noise, 2, range(8), fock_cutoff=2).final.shape == (8,)
            assert scalar_run_shot(seq, noise, 2, 0, fock_cutoff=2)
            exact_run([(seq,)], noise, fock_cutoff=2)
            continue
        with pytest.raises(InvariantViolation, match=r"^row 1[1-4]: .* exceeds TRUNCATION_BOUND") as scalar:
            scalar_run_shot(seq, noise, 2, 0, fock_cutoff=2)
        with pytest.raises(InvariantViolation) as batched:
            run_shot(seq, noise, 2, range(8), fock_cutoff=2)
        assert str(batched.value) == str(scalar.value)
        with pytest.raises(InvariantViolation) as counted:
            bright_counts([(seq,)], noise, 8, 2, sampling="per-shot", fock_cutoff=2)
        assert str(counted.value) == str(batched.value)
        with pytest.raises(InvariantViolation, match=r"^row 1[1-4]: .* exceeds TRUNCATION_BOUND") as exact:
            exact_run([(seq,)], noise, fock_cutoff=2)
        if noise.is_noiseless:  # one node, one pure state: the very same population
            assert str(exact.value) == str(batched.value)


def test_rows_book_their_duration_without_a_phase_to_apply():
    # The clock advances by every row's duration, zero included, even when no
    # detuning phase is owed; the phases themselves wait for the next drive.
    for noise, wait in ((NoiseConfig(), 0.0), (NoiseConfig(), 5.0), (NoiseConfig(detuning_bias_SD=0.1), 5.0)):
        seq = build_sequence(canonical_inputs()[0], standby_wait_us=wait, reconstruction=False)
        expected = sum(noise.pulse_durations.of(s.action) for s in seq)
        assert run_shot(seq, noise, 1, range(1)).elapsed_us[0] == expected
        assert scalar_run_shot(seq, noise, 1, 0)[4] == expected


# ---------------------------------------------------------------------------
# Sampled law == exact law: multinomial chi-square over (branch, final outcome)

# Fixed before the first run: 7 degrees of freedom (8 cells), bound at the
# 1 - 1e-4 quantile of the chi-square law, so the ten fixed-seed cases
# together pass a correct engine with probability about 0.999. Every cell
# must expect at least 5 counts for the chi-square law to apply.
CHI2_BOUND_7DOF = 29.878
CHI2_SHOTS = 6000

# (noise, input index, row-34 mode, build_sequence options, fock_cutoff, quad_points)
LAW = {
    "correlated dephasing": (NoiseConfig(detuning_sigma_SD=0.003), 5, FidelityCheck(), {}, 4, None),
    "uncorrelated dephasing": (
        NoiseConfig(detuning_sigma_SD=0.003, correlated_dephasing=False), 3, FidelityCheck(), {}, 4, 5,
    ),
    "detuning bias": (NoiseConfig(detuning_bias_SD=0.002), 2, Tomography("x"), {}, 4, None),
    "depolarizing": (NoiseConfig(depolarizing_per_pulse=0.05), 4, FidelityCheck(), {}, 4, None),
    "depolarizing_steps": (
        NoiseConfig(depolarizing_per_pulse=0.3, depolarizing_steps=(6, 12, 21, 30, 34)),
        1, Tomography("y"), {}, 4, None,
    ),
    "detection error 0.05": (NoiseConfig(detection_error=0.05), 2, FidelityCheck(), {}, 4, None),
    "echo off": (NoiseConfig(**PAPER), 5, FidelityCheck(), {"spin_echo": False}, 4, None),
    "fock cutoff 4": (NoiseConfig(detection_error=0.02, **PAPER), 0, Tomography("x"), {}, 4, None),
    "fock cutoff 6": (NoiseConfig(detection_error=0.02, **PAPER), 3, Tomography("z"), {}, 6, None),
    "fock cutoff 3": (NoiseConfig(detection_error=0.02, **PAPER), 5, FidelityCheck(), {}, 3, None),
}


@pytest.mark.parametrize("case", LAW.values(), ids=list(LAW))
def test_sampled_branch_and_outcome_law_matches_the_exact_engine(case):
    noise, spec, mode, options, nc, quad_points = case
    spec = canonical_inputs()[spec]
    seq = build_sequence(spec, 0.0, mode, **options)
    res = exact_run([(seq,)], noise, fock_cutoff=nc, quad_points=quad_points)[0]
    expected = np.array(
        [
            res.branch_probs[b] * q
            for b in BRANCHES
            for q in (res.final_bright[b], 1.0 - res.final_bright[b])
        ]
    ) * CHI2_SHOTS
    assert expected.min() >= 5.0
    shots = run_shot(seq, noise, 2027, range(CHI2_SHOTS), fock_cutoff=nc)
    # cells in the order of `expected`: branch (pmt1 first, Bright = S), then Bright, Dark
    observed = np.bincount(4 * ~shots.pmt1 + 2 * ~shots.pmt2 + ~shots.final, minlength=8)
    assert observed.sum() == CHI2_SHOTS
    chi2 = float(np.sum((observed - expected) ** 2 / expected))
    assert chi2 <= CHI2_BOUND_7DOF, (chi2, observed, expected.round(1))


@pytest.mark.parametrize("shot_pass", [7, 50, 1024])
def test_counts_and_shots_of_mixed_sequences_match_the_scalar_reference(shot_pass, monkeypatch):
    # Two seed groups of all six inputs x three bases advance together; rows 9
    # and 34 differ between sequences (row 34 is a wait in the Z basis). With
    # 7-shot passes a pass crosses sequence and seed-group boundaries; the 108
    # shots make three 50-shot passes, the second crossing the seed-group
    # boundary at shot 54 and the last partial, or one 1024-shot pass.
    monkeypatch.setattr(protocol, "SHOT_PASS", shot_pass)
    noise = NoiseConfig(amplitude_error_sigma=0.01, **PAPER)
    group = [build_sequence(spec, 0.0, Tomography(b)) for spec in canonical_inputs() for b in "zxy"]
    shots, seeds = 3, [9, 2**63 + 5]
    _, counts = bright_counts([(seq,) for seq in group + group], noise, shots, seeds, sampling="per-shot")
    # the same 108 shots, in bright_counts' order, from one run_shot call
    table = np.repeat(np.arange(2 * len(group)), shots)
    index = table % len(group) * shots + np.tile(np.arange(shots), 2 * len(group))
    seed = np.array(seeds, dtype=object)[table // len(group)]
    batch = run_shot(group + group, noise, seed, index, sequence_index=table)
    assert batch.final.shape == (table.size,)
    for k, seq in enumerate(group + group):
        mine = np.flatnonzero(table == k)
        ref = [scalar_run_shot(seq, noise, seed[s], index[s]) for s in mine]
        assert counts[k] == sum(r[2] is Outcome.BRIGHT for r in ref), k
        for s, (pmt1, pmt2, final, truncation, elapsed) in zip(mine, ref):
            assert (batch.pmt1[s], batch.pmt2[s], batch.final[s]) == tuple(
                o is Outcome.BRIGHT for o in (pmt1, pmt2, final)
            ), s
            assert abs(batch.truncation[s] - truncation) <= 1e-12
            assert abs(batch.elapsed_us[s] - elapsed) <= 1e-12


def _with_row(seq, step_id, action):
    return tuple(replace(s, action=action) if s.step_id == step_id else s for s in seq)


def test_stacked_sequences_must_share_readouts_and_conditions():
    noise = NoiseConfig(amplitude_error_sigma=0.01, **PAPER)
    seq = build_sequence(canonical_inputs()[2])
    for other, row in (
        (_with_row(seq, 26, Detect(0, "pmt2")), 26),           # another ion read out
        (_with_row(seq, 23, Wait(0.0)), 23),                   # a readout missing
        (build_sequence(canonical_inputs()[2], spin_echo=False), 31),  # conditions inverted
        (seq[:-1], 35),                                        # a shorter table
    ):
        with pytest.raises(InvariantViolation, match=f"row {row}: "):
            run_shot([seq, other], noise, 1, range(4), sequence_index=[0, 1, 0, 1])
        with pytest.raises(InvariantViolation, match=f"row {row}: "):
            bright_counts([(seq, other)], noise, 2, 1, sampling="per-shot")
