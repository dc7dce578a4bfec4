"""The exact engine's live register against a full-register replay of all 35 rows.

exact_run, calibrate_phase and bell_preparation_fidelity advance every
(input, quadrature node, branch) entry on one stacked live register,
NODE_PASS (input, node) pairs at a time: each subsystem holds only the
levels its drives have reached and is traced out after the last row that
needs it, ion 3 (or ions 2 and 3) is kept to the end, and each ion's
detuning phase waits until its next drive. The reference here is a plain row loop: every row on the whole (3, 3,
3, fock_cutoff) register with a full dephasing pass per row, through row 34,
with row 35 read by hand. Any error in the lifetimes, the kept levels, the
deferred phases, the stacked (input, node, branch) entries, the node passes or
the shared-prefix bookkeeping shows up as a gap. A batch of inputs must give
each input the numbers of its own one-input run.
"""
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import teleion
from teleion import cli, protocol
from teleion import tomography as tomo
from teleion.errors import InvariantViolation
from teleion.noise import NoiseConfig, depolarize_density_tensor
from teleion.protocol import (
    BRANCHES,
    TRUNCATION_BOUND,
    ConditionalPulse,
    FidelityCheck,
    InputStateSpec,
    SequenceStep,
    Tomography,
    _gh_nodes,
    _lifetimes,
    _row_plan,
    bell_preparation_fidelity,
    branch_label,
    build_sequence,
    calibrate_phase,
    canonical_inputs,
    exact_run,
    run_shot,
)
from teleion.qcore import _ptrace, state_fidelity
from teleion.trap import (
    BlueSideband,
    Carrier,
    D,
    Detect,
    H,
    Hide,
    Outcome,
    S,
    Wait,
    bright_projector_mask,
)

from oracles import carrier_local, dense_drive_plan, hide_local, sideband_local

TOL = 1e-12
MODES = (FidelityCheck(), Tomography("z"), Tomography("x"), Tomography("y"))
PAPER = dict(detuning_sigma_SD=0.0015, depolarizing_per_pulse=0.025)


def phase_exponent(
    n_ions: int,
    fock_cutoff: int,
    detuning_SD: np.ndarray,
    detuning_H: np.ndarray,
    duration_us: float | np.ndarray,
) -> np.ndarray:
    """Accumulated phase per basis state, shape (3,)*n_ions + (fock_cutoff,).

    phi = duration * sum_i [detuning_SD[i] * 1(level_i = D)
                            + detuning_H[i] * 1(level_i = H)]

    Detunings with leading shot axes (..., n_ions), with `duration_us` a
    scalar or one duration per shot, give the phases with those axes first.
    """
    detuning_SD, detuning_H = np.asarray(detuning_SD), np.asarray(detuning_H)
    lead = detuning_SD.shape[:-1]
    levels = np.stack([np.zeros_like(detuning_SD), detuning_SD, detuning_H], axis=-1)
    per_level = np.asarray(duration_us)[..., None, None] * levels  # (..., n_ions, 3)
    phi = np.zeros(lead + (3,) * n_ions + (fock_cutoff,))
    for i in range(n_ions):
        shape = [1] * (n_ions + 1)
        shape[i] = 3
        phi = phi + per_level[..., i, :].reshape(lead + tuple(shape))
    return phi


def test_phase_exponent_level_structure():
    phi = phase_exponent(2, 2, np.array([0.1, 0.0]), np.array([0.2, 0.0]), 10.0)
    assert phi.shape == (3, 3, 2)
    assert phi[0, 0, 0] == 0.0          # S accrues nothing
    assert np.isclose(phi[1, 0, 0], 1.0)  # D on ion 1: 0.1 rad/us * 10 us
    assert np.isclose(phi[2, 0, 0], 2.0)  # H on ion 1
    assert np.isclose(phi[1, 1, 0], 1.0)  # ion 2 detunings are zero here


def _apply_unitary_density(rho_t, op, sites):
    n = rho_t.ndim // 2
    if len(sites) == 1:
        (s,) = sites
        out = np.moveaxis(np.tensordot(op, rho_t, axes=([1], [s])), 0, s)
        return np.moveaxis(np.tensordot(op.conj(), out, axes=([1], [s + n])), 0, s + n)
    s1, s2 = sites
    out = np.moveaxis(np.tensordot(op, rho_t, axes=([2, 3], [s1, s2])), [0, 1], [s1, s2])
    out = np.tensordot(op.conj(), out, axes=([2, 3], [s1 + n, s2 + n]))
    return np.moveaxis(out, [0, 1], [s1 + n, s2 + n])


def _pulse_op_and_sites(pulse, fock_cutoff):
    if isinstance(pulse, Carrier):
        return carrier_local(pulse.theta, pulse.phi), (pulse.ion,)
    if isinstance(pulse, Hide):
        return hide_local(pulse.theta, pulse.phi), (pulse.ion,)
    op = sideband_local(pulse.theta, pulse.phi, fock_cutoff)
    return op.reshape(3, fock_cutoff, 3, fock_cutoff), (pulse.ion, 3)


def full_register_rows(branches, steps, noise, det_sd, det_h, fock_cutoff):
    """The reference row loop on unnormalized, branch-resolved full-register tensors.

    Every row dephases every branch it acts on for its duration, then acts.
    pmt1 and pmt2 split each branch on the reported outcome (the collapse
    follows the true outcome); other readouts decohere in place. Returns the
    branches and the largest population a blue sideband found on its ion's
    |S, fock_cutoff-1>.
    """
    eps = noise.detection_error
    truncation = 0.0

    def dephase(rho_t, duration):
        if duration == 0.0 or (not np.any(det_sd) and not np.any(det_h)):
            return rho_t
        nf = np.exp(-1j * phase_exponent(3, fock_cutoff, det_sd, det_h, duration)).reshape(-1)
        flat = rho_t.reshape(nf.size, nf.size)
        return (flat * nf[:, None] * nf.conj()[None, :]).reshape(rho_t.shape)

    branches = dict(branches)
    for step in steps:
        action = step.action
        if isinstance(action, Detect):
            duration = noise.pulse_durations.of(action)
            bright_d = np.where(bright_projector_mask(3, fock_cutoff, action.ion).reshape(-1), 1.0, 0.0)
            dark_d = 1.0 - bright_d
            new_branches = {}
            for key, rho in branches.items():
                rho = dephase(rho, duration)
                flat = rho.reshape(bright_d.size, bright_d.size)
                rho_s = (flat * bright_d[:, None] * bright_d[None, :]).reshape(rho.shape)
                rho_d = (flat * dark_d[:, None] * dark_d[None, :]).reshape(rho.shape)
                if action.label in ("pmt1", "pmt2"):
                    new_branches[key + ((action.label, Outcome.BRIGHT),)] = (1 - eps) * rho_s + eps * rho_d
                    new_branches[key + ((action.label, Outcome.DARK),)] = eps * rho_s + (1 - eps) * rho_d
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
                raise InvariantViolation(f"row {step.step_id}: truncation population {top:.3e}")
            truncation = max(truncation, top)
    return branches, truncation


def _qubit_block(rho3):
    block = rho3[:2, :2] / np.real(np.trace(rho3[:2, :2]))
    return 0.5 * (block + block.conj().T)


def _cooled(fock_cutoff):
    dims = (3, 3, 3, fock_cutoff)
    rho0 = np.zeros((math.prod(dims),) * 2, dtype=np.complex128)
    rho0[0, 0] = 1.0
    return {(): rho0.reshape(dims + dims)}


def full_register_replay(seqs, noise, *, quad_points, fock_cutoff=4):
    """Every row on the full register, per node: rows 1-33 shared, row 34 per sequence."""
    shared = tuple(s for s in seqs[0] if s.step_id < 34)
    dims = (3, 3, 3, fock_cutoff)
    d = math.prod(dims)
    bright_mask = bright_projector_mask(3, fock_cutoff, 2).reshape(-1)
    eps = noise.detection_error
    acc: dict = {}
    bright = [{} for _ in seqs]
    weight_end = [{} for _ in seqs]
    truncation = 0.0
    for det_sd, det_h, weight in _gh_nodes(noise, quad_points):
        branches, top = full_register_rows(_cooled(fock_cutoff), shared, noise, det_sd, det_h, fock_cutoff)
        truncation = max(truncation, top)
        for key, rho in branches.items():
            acc[key] = acc.get(key, 0.0) + weight * rho.reshape(d, d)
        for j, seq in enumerate(seqs):
            row34 = tuple(s for s in seq if s.step_id == 34)
            after, _ = full_register_rows(branches, row34, noise, det_sd, det_h, fock_cutoff)
            for key, rho in after.items():
                diag = np.real(np.diag(rho.reshape(d, d)))
                w, s = diag.sum(), diag[bright_mask].sum()
                bright[j][key] = bright[j].get(key, 0.0) + weight * ((1 - eps) * s + eps * (w - s))
                weight_end[j][key] = weight_end[j].get(key, 0.0) + weight * w

    def label(key):
        kd = dict(key)
        return branch_label(kd["pmt1"], kd["pmt2"])

    total = sum(acc.values())
    rho3 = _ptrace(total, dims, keep=[2])
    motion = _ptrace(total, dims, keep=[3])
    probs = {label(k): float(np.real(np.trace(r))) for k, r in acc.items()}
    final = [{label(k): b[k] / w[k] for k in b} for b, w in zip(bright, weight_end)]
    return dict(
        rho_exp=_qubit_block(rho3),
        branch_probs=probs,
        branch_states={label(k): _qubit_block(_ptrace(r, dims, keep=[2])) for k, r in acc.items()},
        final_bright=final,
        p_bright=[sum(probs[b] * f[b] for b in probs) for f in final],
        h_residual=float(np.real(rho3[2, 2])),
        motional_residual=float(np.real(np.trace(motion) - motion[0, 0])),
        truncation_population=truncation,
    )


def _assert_matches(res, ref, branches=BRANCHES):
    assert np.abs(res.rho_exp.matrix - ref["rho_exp"]).max() <= TOL
    assert list(res.branch_probs) == list(branches)
    for b in branches:
        assert abs(res.branch_probs[b] - ref["branch_probs"][b]) <= TOL
        assert np.abs(res.branch_states[b].matrix - ref["branch_states"][b]).max() <= TOL
        assert abs(res.final_bright[b] - ref["final_bright"][0][b]) <= TOL
    for name in ("h_residual", "motional_residual", "truncation_population"):
        assert abs(getattr(res, name) - ref[name]) <= TOL, name


CASES = {
    "correlated dephasing": (NoiseConfig(detuning_sigma_SD=0.0015), {}),
    "uncorrelated dephasing": (
        NoiseConfig(detuning_sigma_SD=0.0015, correlated_dephasing=False),
        {"quad_points": 2},
    ),
    "detuning bias": (NoiseConfig(detuning_bias_SD=0.001), {}),
    "depolarizing": (NoiseConfig(**PAPER), {}),
    "depolarizing steps": (
        NoiseConfig(depolarizing_per_pulse=0.05, depolarizing_steps=(4, 9, 12, 30, 31, 33, 34)),
        {},
    ),
    "detection error": (NoiseConfig(detection_error=0.05, **PAPER), {}),
    "no spin echo": (NoiseConfig(**PAPER), {"spin_echo": False}),
    "no reconstruction": (NoiseConfig(**PAPER), {"reconstruction": False}),
    "fock cutoff 3": (NoiseConfig(**PAPER), {"fock_cutoff": 3}),
    "fock cutoff 6": (NoiseConfig(**PAPER), {"fock_cutoff": 6}),
    # H dephases at half the S-D rate: the per-level phases of a drive are
    # indexed by the levels the register holds, H last.
    "weak H dephasing": (NoiseConfig(dephasing_ratio_H=0.5, **PAPER), {}),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_exact_run_matches_the_full_register_replay(case):
    noise, kwargs = CASES[case]
    kwargs = {"quad_points": 3, **kwargs}
    spec = canonical_inputs()[sorted(CASES).index(case) % 6]
    phase = 0.3
    seq_kw = {k: kwargs[k] for k in ("spin_echo", "reconstruction") if k in kwargs}
    seqs = [build_sequence(spec, phase, m, **seq_kw) for m in MODES]
    ref = full_register_replay(
        seqs, noise, quad_points=kwargs["quad_points"], fock_cutoff=kwargs.get("fock_cutoff", 4)
    )
    engine_kw = {k: v for k, v in kwargs.items() if k not in seq_kw}
    res = exact_run([tuple(seqs)], noise, **engine_kw)[0]

    _assert_matches(res, ref)
    for j, p in enumerate(ref["p_bright"]):
        assert abs(res.p_bright[j] - p) <= TOL

    # One table at a time gives the same numbers as the shared-prefix call.
    for j in range(1, len(MODES)):
        single = exact_run([(seqs[j],)], noise, **engine_kw)[0]
        for b in BRANCHES:
            assert abs(single.final_bright[b] - ref["final_bright"][j][b]) <= TOL
        assert abs(single.p_bright[0] - res.p_bright[j]) <= TOL

    # Second in a batch behind another input, whose row 9 and FidelityCheck
    # row 34 differ, the input still matches the replay.
    other = canonical_inputs()[(sorted(CASES).index(case) + 1) % 6]
    pair = exact_run([tuple(build_sequence(other, phase, m, **seq_kw) for m in MODES), tuple(seqs)], noise, **engine_kw)
    _assert_matches(pair[1], ref)
    assert np.abs(np.array(pair[1].p_bright) - ref["p_bright"]).max() <= TOL


def test_tables_of_one_exact_run_must_share_every_row_before_34():
    # The rows before 34 advance once for all of an input's tables: psi1's
    # and psi2's tables differ at row 9, where the input is written.
    psi1, psi2 = (build_sequence(spec) for spec in canonical_inputs()[:2])
    with pytest.raises(InvariantViolation, match=r"^row 9: "):
        exact_run([(psi1, psi2)])


def test_a_subsystem_stays_while_any_modes_row_34_needs_it():
    # Lifetimes once came from the first mode's table alone: behind a Z-basis
    # table, a row-34 sideband on ion 3 found the motion traced out after
    # row 19 and was skipped, reading P(bright) 0.5 instead of 0.01.
    noise = NoiseConfig(detection_error=0.01)
    z_basis = build_sequence(canonical_inputs()[2], 0.0, Tomography("z"))
    probe = _swap_row(z_basis, 34, BlueSideband(2, math.pi, 0.0))
    alone = exact_run([(probe,)], noise)[0]
    joint = exact_run([(z_basis, probe)], noise)[0]
    assert abs(joint.p_bright[1] - alone.p_bright[0]) <= TOL


def test_an_exact_run_of_no_inputs_has_no_runs():
    assert exact_run([]) == []
    assert exact_run([], NoiseConfig(**PAPER), quad_points=3) == []


def _assert_same_run(a, b, tol=TOL):
    """Every ExactRun field of `a` within `tol` of `b`'s, with the same branches."""
    for name in ("branch_probs", "branch_states", "final_bright"):
        assert list(getattr(a, name)) == list(getattr(b, name)), name
    for x, y in [(a.rho_exp, b.rho_exp), *((a.branch_states[k], b.branch_states[k]) for k in a.branch_states)]:
        assert np.abs(x.matrix - y.matrix).max() <= tol
    for name in ("branch_probs", "final_bright"):
        for k, v in getattr(a, name).items():
            assert abs(v - getattr(b, name)[k]) <= tol, (name, k)
    assert len(a.p_bright) == len(b.p_bright)
    assert np.abs(np.array(a.p_bright) - b.p_bright).max() <= tol
    for name in ("h_residual", "motional_residual", "truncation_population"):
        assert abs(getattr(a, name) - getattr(b, name)) <= tol, name


BATCH_CASES = {
    # Noiseless, psi1's row 9 leaves ion 1 on |S> while the others reach D:
    # the batch runs row 9 on the union of the inputs' levels.
    "noiseless": (NoiseConfig(), {}),
    "correlated dephasing": (NoiseConfig(detuning_bias_SD=0.001, **PAPER), {}),
    "uncorrelated dephasing": (
        NoiseConfig(detuning_sigma_SD=0.0015, correlated_dephasing=False, depolarizing_per_pulse=0.025),
        {"quad_points": 2},
    ),
    "detection error": (NoiseConfig(detection_error=0.05, **PAPER), {}),
    # depolarizing on the rows where the inputs differ, 9 and 34, too
    "depolarizing steps": (
        NoiseConfig(detuning_sigma_SD=0.0015, depolarizing_per_pulse=0.05, depolarizing_steps=(4, 9, 12, 31, 34)),
        {},
    ),
    "no spin echo": (NoiseConfig(**PAPER), {"spin_echo": False}),
    "no reconstruction": (NoiseConfig(**PAPER), {"reconstruction": False}),
    "fock cutoff 3": (NoiseConfig(**PAPER), {"fock_cutoff": 3}),
    "fock cutoff 6": (NoiseConfig(**PAPER), {"fock_cutoff": 6}),
}
BATCH_MODES = {"fidelity": (FidelityCheck(),), "tomography": MODES[1:]}


def _batch_tables(case, modes):
    noise, kwargs = BATCH_CASES[case]
    seq_kw = {k: kwargs[k] for k in ("spin_echo", "reconstruction") if k in kwargs}
    engine_kw = {"quad_points": 3, **{k: v for k, v in kwargs.items() if k not in seq_kw}}
    tables = [tuple(build_sequence(spec, 0.3, m, **seq_kw) for m in BATCH_MODES[modes]) for spec in canonical_inputs()]
    return tables, noise, engine_kw


@pytest.mark.parametrize("modes", BATCH_MODES)
@pytest.mark.parametrize("case", BATCH_CASES)
def test_one_batched_exact_run_gives_each_input_its_own_run(case, modes):
    tables, noise, engine_kw = _batch_tables(case, modes)
    runs = exact_run(tables, noise, **engine_kw)
    assert len(runs) == len(tables)
    for t, res in zip(tables, runs):
        _assert_same_run(res, exact_run([t], noise, **engine_kw)[0])


@pytest.mark.parametrize("node_pass", [1, 2, 4, 5])
def test_passes_that_split_and_mix_inputs_give_each_input_its_own_run(monkeypatch, node_pass):
    # 3 or 8 nodes per input: passes of 2, 4 or 5 (input, node) pairs end
    # mid-input and start the next input in the same pass.
    cases = [("correlated dephasing", "fidelity"), ("uncorrelated dephasing", "tomography"), ("fock cutoff 3", "fidelity")]
    for case, modes in cases:
        tables, noise, engine_kw = _batch_tables(case, modes)
        singles = [exact_run([t], noise, **engine_kw)[0] for t in tables]
        monkeypatch.setattr(protocol, "NODE_PASS", node_pass)
        for res, single in zip(exact_run(tables, noise, **engine_kw), singles):
            _assert_same_run(res, single)
        monkeypatch.undo()


def test_the_truncation_read_keeps_the_inputs_of_one_node_apart():
    # A blue sideband reads each (input, node)'s population on |S, n=2> at
    # cutoff 3. Summed over the inputs that share a node index, these twelve
    # inputs at paper noise read 0.070 (six read 0.038, against 0.012 for
    # psi1 alone) and trip TRUNCATION_BOUND.
    noise = NoiseConfig(**PAPER)
    specs = [*canonical_inputs(), *(InputStateSpec(0.3 + 0.4 * j, 0.9 * j) for j in range(6))]
    tables = [(build_sequence(spec),) for spec in specs]
    runs = exact_run(tables, noise, quad_points=3, fock_cutoff=3)
    for t, res in zip(tables, runs):
        assert res.truncation_population == exact_run([t], noise, quad_points=3, fock_cutoff=3)[0].truncation_population
    assert 0.01 < max(res.truncation_population for res in runs) <= TRUNCATION_BOUND


def _swap_row(seq, step_id, action):
    return tuple(SequenceStep(s.step_id, action, s.comment) if s.step_id == step_id else s for s in seq)


@pytest.mark.parametrize(
    "step_id, action",
    [
        (11, BlueSideband(0, 0.6 * math.pi, 0.5 * math.pi)),
        (7, Wait(2.0)),
        (31, ConditionalPulse("pmt1", Outcome.DARK, Carrier(2, math.pi, 0.1))),
        (19, Wait(0.0)),
    ],
    ids=["sideband angle", "wait length", "conditional carrier", "sideband against a wait"],
)
def test_the_exact_engine_runs_the_tables_run_shot_runs(step_id, action):
    # Both engines read a batch's tables through one row plan: inputs may
    # differ in a row's angles or duration, and one may wait where another
    # drives. Each input of a pair must get its own run in either order; at
    # row 19 the waiting input must not trace out the motion the other still
    # drives, nor be depolarized, nor read the other's truncation.
    noise = NoiseConfig(detection_error=0.01, **PAPER)
    base = build_sequence(canonical_inputs()[2])
    other = _swap_row(build_sequence(canonical_inputs()[3]), step_id, action)
    singles = {seq: exact_run([(seq,)], noise, quad_points=3)[0] for seq in (base, other)}
    for pair in ((base, other), (other, base)):
        tables = [(seq,) for seq in pair]
        runs = exact_run(tables, noise, quad_points=3)
        for seq, res in zip(pair, runs):
            _assert_same_run(res, singles[seq])
        assert tomo.bright_counts(tables, noise, 0, 5, quad_points=3)[1] == [res.p_bright[0] for res in runs]
        for sampling in ("fast", "per-shot"):
            assert len(tomo.bright_counts(tables, noise, 20, 5, sampling=sampling, quad_points=3)[1]) == 2


@pytest.mark.parametrize("action", [Hide(0, 0.5 * math.pi, 0.0), Carrier(1, 0.5 * math.pi, 0.0)], ids=["kind", "ion"])
def test_both_engines_refuse_inputs_that_differ_in_a_rows_kind_of_drive(action):
    base = build_sequence(canonical_inputs()[2])
    other = _swap_row(build_sequence(canonical_inputs()[3]), 9, action)
    for pair in ([base, other], [other, base]):
        with pytest.raises(InvariantViolation, match=r"^row 9: sequences in one run must share"):
            exact_run([(seq,) for seq in pair])
        with pytest.raises(InvariantViolation, match=r"^row 9: sequences in one run must share"):
            run_shot(pair, NoiseConfig(), 5, range(2), sequence_index=np.array([0, 1]))


def test_inputs_need_equally_many_tables_of_equal_length():
    psi3, psi4 = (build_sequence(spec) for spec in canonical_inputs()[2:4])
    with pytest.raises(InvariantViolation, match="as many tables"):
        exact_run([(psi3,), (psi4, psi4)])
    for tables in ([(psi3,), (psi4[:-1],)], [(psi3[:-1],), (psi4,)]):
        with pytest.raises(InvariantViolation, match=r"^row 35: "):
            exact_run(tables)


def test_a_negative_pulse_area_lasts_as_long_as_its_positive_form():
    # R(-theta, phi) is R(theta, phi + pi). A negative area once lasted a
    # negative time, running ion 1's detuning clock backwards: at
    # detuning_bias_SD 0.01 the first form read P(bright) 0.208 and the
    # second 0.131.
    noise = NoiseConfig(detuning_bias_SD=0.01)
    specs = (InputStateSpec(-0.5 * math.pi, 0.0), InputStateSpec(0.5 * math.pi, math.pi))
    tables = [tuple(build_sequence(spec, 0.0, m) for m in MODES) for spec in specs]
    negative, positive = exact_run(tables, noise)
    _assert_same_run(negative, positive)
    for t in tables:  # and each alone
        _assert_same_run(exact_run([t], noise)[0], positive)
    sampled = NoiseConfig(detuning_sigma_SD=0.01, depolarizing_per_pulse=0.025)
    elapsed = [run_shot(t[0], sampled, 5, range(64)).elapsed_us for t in tables]
    assert np.array_equal(elapsed[0], elapsed[1]) and elapsed[0].min() > 0.0


@pytest.mark.parametrize("fock_cutoff", [3, 4, 6])
@pytest.mark.parametrize(
    "noise", [NoiseConfig(), NoiseConfig(**PAPER)], ids=["noiseless", "paper noise"]
)
def test_zero_probability_branches_stay_out_of_the_probabilities(noise, fock_cutoff):
    # Noiseless, some branches are empty. Their P(bright | branch) was once a
    # ratio of two roundoff numbers (-5.3e282 for psi6, SS, at cutoff 2) that
    # also reached p_bright (3.4e266).
    for spec in canonical_inputs():
        tables = tuple(build_sequence(spec, 0.0, m) for m in MODES)
        res = exact_run([tables], noise, quad_points=3, fock_cutoff=fock_cutoff)[0]
        assert all(0.0 <= p <= 1.0 for p in res.p_bright)
        assert all(math.isfinite(f) for f in res.final_bright.values())
        assert {b for b, p in res.branch_probs.items() if p > 1e-12} == set(res.final_bright)
        assert set(res.branch_states) == set(res.final_bright)
        pooled = sum(res.branch_probs[b] * f for b, f in res.final_bright.items())
        assert abs(res.p_bright[0] - pooled) <= 1e-9


@pytest.mark.parametrize(
    "noise", [NoiseConfig(), NoiseConfig(**PAPER)], ids=["noiseless", "paper noise"]
)
def test_fock_cutoff_2_trips_the_truncation_monitor(noise):
    # Cutoff 2 drops the |S,1> <-> |D,2> coupling of the phase gate (rows
    # 11-14); every input with population there used to come out wrong
    # (noiseless P(bright) 0 for psi1, 0.5 for psi3-psi6) with no error.
    for spec in canonical_inputs():
        if spec.label == "psi2":  # ion 1 in D: the gate never reaches |S,1>
            res = exact_run([(build_sequence(spec),)], noise, quad_points=3, fock_cutoff=2)[0]
            assert res.truncation_population <= TRUNCATION_BOUND
            continue
        with pytest.raises(InvariantViolation, match=r"^row 1[1-4]: ") as err:
            exact_run([(build_sequence(spec),)], noise, quad_points=3, fock_cutoff=2)
        assert "fock_cutoff" in str(err.value)
        if noise == NoiseConfig():  # one more level makes the teleportation exact
            res = exact_run([(build_sequence(spec),)], noise, fock_cutoff=3)[0]
            assert abs(res.p_bright[0] - 1.0) <= 1e-9


@pytest.mark.parametrize(
    "noise, table",
    [
        (NoiseConfig(detection_error=0.05, **PAPER), {}),
        (NoiseConfig(detuning_bias_SD=0.001), {}),
        # The table settings must reach all six fit tables: this grid is up to
        # 0.017 away from the default table's.
        (NoiseConfig(**PAPER), dict(spin_echo=False, standby_wait_us=5.0, rephase_wait_us=150.0)),
    ],
    ids=["paper noise + detection error", "detuning bias", "paper noise, no echo, other waits"],
)
def test_calibration_grid_matches_the_full_register_replay(noise, table):
    grid, quad_points = 8, 2
    res = calibrate_phase(noise, grid=grid, quad_points=quad_points, **table)
    spec = canonical_inputs()[5]
    psi = spec.ket()
    for phi, f in zip(res.grid_phis, res.grid_fidelities):
        rho = full_register_replay([build_sequence(spec, phi, **table)], noise, quad_points=quad_points)
        assert abs(f - float(np.real(psi.conj() @ rho["rho_exp"] @ psi))) <= TOL


CALIBRATION_NOISE = {
    "paper noise": NoiseConfig(**PAPER),
    "detuning bias + depolarizing": NoiseConfig(detuning_bias_SD=0.003, depolarizing_per_pulse=0.05),
    "uncorrelated dephasing + detection error": NoiseConfig(
        detuning_sigma_SD=0.003, correlated_dephasing=False, detection_error=0.05
    ),
}


@pytest.mark.parametrize("case", CALIBRATION_NOISE)
def test_calibration_polynomial_matches_the_full_register_replay(monkeypatch, case):
    # calibrate_phase advances one phase-0 tail on psi6's coherence parts and
    # replays one tripwire; its curve must still be the replayed fidelity on
    # and off its grid, and its phi* the curve's maximum.
    noise, quad_points = CALIBRATION_NOISE[case], 2
    advanced = []
    advance = protocol._advance
    monkeypatch.setattr(protocol, "_advance", lambda *args: advanced.append(1) or advance(*args))
    res = calibrate_phase(noise, grid=8, quad_points=quad_points)
    passes = math.ceil(len(_gh_nodes(noise, quad_points)) / protocol.NODE_PASS)
    assert len(advanced) == passes + 2
    assert 0.0 <= res.residual <= TOL

    # The grid holds a degree-2 polynomial: its least-squares fit interpolates.
    basis = protocol._trig_basis
    coef = np.linalg.lstsq(basis(res.grid_phis), res.grid_fidelities, rcond=None)[0]
    assert np.abs(basis(res.grid_phis) @ coef - res.grid_fidelities).max() <= 1e-15
    off_grid = np.array([0.3, 2.0, 5.5])
    spec = canonical_inputs()[5]
    psi = spec.ket()
    for phi, f in zip([*res.grid_phis, *off_grid], [*res.grid_fidelities, *basis(off_grid) @ coef]):
        rho = full_register_replay([build_sequence(spec, phi)], noise, quad_points=quad_points)
        assert abs(f - float(np.real(psi.conj() @ rho["rho_exp"] @ psi))) <= TOL
    scan = np.linspace(0.0, 2.0 * math.pi, 2048, endpoint=False)
    assert (basis(res.phi_star) @ coef)[0] >= (basis(scan) @ coef).max() - 1e-12
    # The reported fidelity is the polynomial's: the exact run at phi* agrees.
    at_star = exact_run([(build_sequence(spec, res.phi_star),)], noise, quad_points=quad_points)[0]
    assert abs(res.fidelity - state_fidelity(at_star.rho_exp, spec.pure())) <= TOL


FIT_CASES = {  # (noise, engine settings, table settings)
    **{case: (noise, dict(quad_points=2), {}) for case, noise in CALIBRATION_NOISE.items()},
    "noiseless": (NoiseConfig(), {}, {}),
    "no echo, cutoff 6": (NoiseConfig(**PAPER), dict(quad_points=2, fock_cutoff=6), dict(spin_echo=False)),
}


@pytest.mark.parametrize("case", FIT_CASES)
def test_the_closed_form_fit_samples_are_the_replayed_tails(monkeypatch, case):
    # The five DFT samples come from one phase-0 tail on psi6's coherence
    # parts; a real replay of rows 30-33 at each of the six fit phases, from
    # the same pass of rows 1-29, must give the same fidelities.
    noise, engine, table = FIT_CASES[case]
    fit, seen = protocol._phase_fit, []
    monkeypatch.setattr(protocol, "_phase_fit", lambda samples: seen.append(samples) or fit(samples))
    calibrate_phase(noise, grid=8, **engine, **table)

    psi6 = canonical_inputs()[5]
    tables = [build_sequence(psi6, phi, **table)[:33] for phi in protocol._FIT_PHASES]
    head, tail = _row_plan([tables[0][:29]], noise), _row_plan([tables[0][29:]], noise)
    life = _lifetimes(head + tail, (2,))
    stack = protocol._evolve(head, 1, life, noise, engine.get("quad_points"), engine.get("fock_cutoff", 4))
    replayed = []
    for seq in tables:
        end = protocol._advance(stack, _row_plan([seq[29:]], noise), life, 29, noise, engine.get("fock_cutoff", 4))
        rho3 = np.einsum("e,eab->ab", end.weight, protocol._reduced(end, (2,)))[:2, :2]
        replayed.append(float(np.real(psi6.ket().conj() @ rho3 @ psi6.ket())) / float(np.real(np.trace(rho3))))
    assert np.abs(np.array(seen[0]) - replayed).max() <= 1e-15


SHARED_PASS = {  # (noise, inputs, table settings, engine settings, row-34 modes)
    "six inputs, paper noise": (NoiseConfig(**PAPER), canonical_inputs(), {}, dict(quad_points=3), (FidelityCheck(),)),
    "two inputs without psi6": (
        NoiseConfig(detuning_sigma_SD=0.0015, correlated_dephasing=False, detection_error=0.02),
        (InputStateSpec(1.1, 0.3, "a"), InputStateSpec(2.0, 4.0, "b")), {}, dict(quad_points=3), (FidelityCheck(),),
    ),
    "no echo, other wait, cutoff 6, detuning bias": (
        NoiseConfig(detuning_bias_SD=0.001, **PAPER), canonical_inputs(), dict(spin_echo=False, rephase_wait_us=150.0),
        dict(quad_points=5, fock_cutoff=6), (FidelityCheck(),),
    ),
    "noiseless": (NoiseConfig(), canonical_inputs(), {}, {}, (FidelityCheck(),)),
    "three bases, as state-tomo at shots 0": (
        NoiseConfig(**PAPER), canonical_inputs(), {}, dict(quad_points=3), tuple(Tomography(b) for b in "zxy"),
    ),
}


def test_a_calibration_shares_one_exact_pass_with_the_commands_inputs(tmp_path, monkeypatch):
    # The fit reads psi6's entries of the inputs' row-29 stack (psi6 joins
    # when it is not an input), and exact_run goes on from that stack: every
    # number is the psi6-only calibration's and the plain exact run's, bit for bit.
    for case, (noise, inputs, table, engine_kw, modes) in SHARED_PASS.items():
        alone = calibrate_phase(noise, grid=8, **engine_kw, **table)
        shared = calibrate_phase(noise, inputs=inputs, grid=8, **engine_kw, **table)
        assert (shared.phi_star, shared.fidelity, shared.residual) == (alone.phi_star, alone.fidelity, alone.residual)
        assert np.array_equal(shared.grid_fidelities, alone.grid_fidelities), case
        tables = [tuple(build_sequence(spec, alone.phi_star, m, **table) for m in modes) for spec in inputs]
        runs = exact_run(tables, noise, prefix=shared.prefix, **engine_kw)
        for a, b in zip(runs, exact_run(tables, noise, **engine_kw), strict=True):
            _assert_same_run(a, b, tol=0.0)
    # exact_run plans only the rows after the pass: the pass carries its own plan.
    planned, row_plan = [], protocol._row_plan
    monkeypatch.setattr(protocol, "_row_plan",
                        lambda seqs, noise: planned.append(seqs[0][0].step_id) or row_plan(seqs, noise))
    exact_run(tables, noise, prefix=shared.prefix, **engine_kw)
    monkeypatch.undo()
    assert min(planned) == 30
    # A pass of other rows or other settings is refused.
    with pytest.raises(InvariantViolation, match="rows 1-29"):
        exact_run(tables[1:], noise, prefix=shared.prefix, **engine_kw)
    with pytest.raises(InvariantViolation, match="rows 1-29"):
        exact_run(tables, noise, prefix=shared.prefix, quad_points=2)

    # A calibrated teleport evolves rows 1-29 once, for all six inputs, also
    # when its counts come from trajectories and its exact fidelities from a run of their own.
    evolved = []
    evolve = protocol._evolve
    monkeypatch.setattr(protocol, "_evolve", lambda plan, inputs, *rest: evolved.append((len(plan), inputs))
                        or evolve(plan, inputs, *rest))
    for sampling in ("fast", "per-shot"):
        config = tmp_path / f"{sampling}.json"
        config.write_text(json.dumps({"shots": 20, "quad_points": 3, "phase_offset": "calibrate", "grid": 8,
                                      "sampling": sampling, "noise": PAPER}), encoding="utf-8")
        assert cli.main(["teleport", "--config", str(config), "--out", str(tmp_path / sampling)]) == 0
        assert evolved == [(29, 6)], sampling
        evolved.clear()


def test_gauss_hermite_nodes_are_numpys_without_importing_numpy_polynomial(tmp_path):
    from numpy.polynomial.hermite import hermgauss

    for points in range(1, 41):
        x, w = protocol._hermgauss(points)
        ref_x, ref_w = hermgauss(points)
        assert (x.tobytes(), w.tobytes()) == (ref_x.tobytes(), ref_w.tobytes()), points
    # No command pays for importing numpy.polynomial: a fresh process runs two.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"shots": 20, "quad_points": 2, "bootstrap_resamples": 2, "noise": PAPER}))
    script = (
        "import sys\nfrom teleion.cli import main\n"
        "for command in ('teleport', 'proc-tomo'):\n"
        "    assert main([command, '--config', 'config.json', '--out', command]) == 0\n"
        "assert 'numpy.polynomial' not in sys.modules, 'numpy.polynomial was imported'\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(teleion.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize(
    "noise, quad_points",
    [
        (NoiseConfig(**PAPER), None),
        (NoiseConfig(detuning_sigma_SD=0.0015, detuning_bias_SD=0.001, correlated_dephasing=False), 3),
    ],
    ids=["paper noise", "uncorrelated dephasing"],
)
def test_bell_preparation_fidelity_matches_the_full_register_replay(noise, quad_points):
    rows = build_sequence(canonical_inputs()[0])[:6]
    target = np.zeros(9)
    target[[1 * 3 + 0, 0 * 3 + 1]] = 1.0 / math.sqrt(2.0)  # |D S> + |S D>, ions 2 and 3
    ref = 0.0
    for det_sd, det_h, weight in _gh_nodes(noise, quad_points):
        branches, _ = full_register_rows(_cooled(4), rows, noise, det_sd, det_h, 4)
        (rho,) = branches.values()
        rho23 = _ptrace(rho.reshape(108, 108), (3, 3, 3, 4), keep=[1, 2])
        ref += weight * float(np.real(target @ rho23 @ target))
    assert abs(bell_preparation_fidelity(noise, quad_points=quad_points) - ref) <= TOL
    assert ref < 0.999  # the noise shows


@pytest.mark.parametrize("node_pass", [1, 3])
def test_node_passes_split_mid_stack_and_still_match_the_full_register_replay(monkeypatch, node_pass):
    # Fewer nodes per pass than the cases have (8 uncorrelated, 3 or 2
    # correlated) end some passes mid-stack and leave a partial last pass.
    monkeypatch.setattr(protocol, "NODE_PASS", node_pass)
    for case in ("uncorrelated dephasing", "detection error"):
        test_exact_run_matches_the_full_register_replay(case)
    for noise in (NoiseConfig(detection_error=0.05, **PAPER), NoiseConfig(detuning_bias_SD=0.001)):
        test_calibration_grid_matches_the_full_register_replay(noise, {})
    test_fock_cutoff_2_trips_the_truncation_monitor(NoiseConfig(**PAPER))


def test_lifetimes_come_from_the_sequence():
    # The standard table: the motion leaves after row 19 (its last sideband),
    # ion 1 after row 23 (pmt1) and ion 2 after row 26 (pmt2); ion 3 stays to
    # the cut.
    standard = build_sequence(canonical_inputs()[0])[:27]
    assert _lifetimes(_row_plan([standard], NoiseConfig()), (2,)) == {0: 22, 1: 25, 2: 27, 3: 18}

    # Without the echo block, a readout of the parked ion 3 (which keeps its
    # D-H coherence, and so its phase) comes before two hide pulses that drive
    # it again; a sideband on ion 1 after pmt1 keeps ion 1 and the motion.
    spec, noise = canonical_inputs()[5], NoiseConfig(detuning_bias_SD=0.001, detection_error=0.05, **PAPER)
    rows = list(build_sequence(spec, 0.3, spin_echo=False))
    swaps = {
        16: Detect(2, "aux"),
        17: Hide(2, math.pi, math.pi),
        18: Hide(2, math.pi, 0.0),
        24: BlueSideband(0, 0.5 * math.pi, 0.0),
    }
    for step_id, pulse in swaps.items():
        rows[step_id - 1] = SequenceStep(step_id, pulse, "lifetime probe")
    seq = tuple(rows)
    assert _lifetimes(_row_plan([seq[:27]], noise), (2,)) == {0: 23, 1: 25, 2: 27, 3: 23}

    ref = full_register_replay([seq], noise, quad_points=3)
    res = exact_run([(seq,)], noise, quad_points=3)[0]
    _assert_matches(res, ref)
    assert abs(res.p_bright[0] - ref["p_bright"][0]) <= TOL
    assert res.motional_residual > 0.1  # the late sideband moved motion the oracle sees too


def test_the_register_holds_only_the_levels_its_drives_reached():
    # The oracle passes whether or not exactly-empty levels are dropped; this
    # pins the pruning. On the standard table ion 3's hide at row 8 empties
    # its S, so the register holds 2 * 2 * 2 * 4 = 32 of the 108 levels after
    # rows 10-15; the echo's hides at rows 16 and 18 empty H, then S again.
    noise = NoiseConfig(**PAPER)
    seq = build_sequence(canonical_inputs()[5])
    life = _lifetimes(_row_plan([seq], noise), (2,))

    def after(row):
        stack = protocol._evolve(_row_plan([seq[:row]], noise), 1, life, noise, 3, 4)
        assert stack.rho.shape[1:] == tuple(len(lv) for lv in stack.levels) * 2
        return stack.levels

    assert after(15) == ((S, D), (S, D), (D, H), (0, 1, 2, 3))
    assert after(16)[2] == (S, D) and after(18) == ((S, D), (S, D), (D, H), (0, 1, 2, 3))
    # A subsystem holds S until its first drive; a drive that reaches a
    # dropped level grows it: a depolarized carrier on {S} gives {S, D}
    # (row 5), and ion 2's undepolarized pi hide on {S, D} gives {D, H} (row 22).
    assert after(4)[1] == (S,) and after(5)[1] == (S, D)
    assert after(21)[1] == (S, D) and after(22)[1] == (D, H)
    # The depolarizing channel's pattern counts too: an idle carrier moves no
    # population, but the channel after it reaches D.
    plan = protocol._drive_plan
    assert plan(Carrier(0, 0.0, 0.0), 4, ((S,),), 0.0)[0] == ((S,),)
    assert plan(Carrier(0, 0.0, 0.0), 4, ((S,),), 0.025)[0] == ((S, D),)
    levels, op, dep = plan(BlueSideband(0, math.pi, 0.0), 4, ((S,), (0,)), 0.0)
    assert levels == ((S, D), (0, 1)) and op.shape == (2, 2, 2, 2) and dep is None


def test_an_exact_pi_pulse_on_every_entry_drops_the_end_it_emptied():
    # A pi hide on ion 3's {S, D} moves S's part to H and leaves on S only
    # cos(pi/2) x, a rounding residue: S leaves the register. So does S after
    # an undepolarized pi carrier on ion 2's {S}. Nothing leaves when the area
    # misses pi, or the drive is depolarized, conditional or waited by an input.
    def levels(*rows, noise=NoiseConfig(), waits=False):
        tables = [tuple(SequenceStep(i + 1, a) for i, a in enumerate(rows))]
        if waits:  # a second input that waits at the last row
            tables.append(tables[0][:-1] + (SequenceStep(len(rows), Wait(0.0)),))
        plan = _row_plan(tables, noise)
        stack = protocol._evolve(plan, len(tables), _lifetimes(plan, (0, 1, 2)), noise, None, 4)
        return stack.levels[1:3], np.einsum("e,eab->ab", stack.weight, protocol._reduced(stack, (2,)))

    split = Carrier(2, 0.5 * math.pi, 0.0)
    (_, ion3), rho = levels(split, Hide(2, math.pi, 0.0))
    ket = np.array([0.0, -1j, -1j]) / math.sqrt(2.0)  # (S, D, H)
    assert ion3 == (D, H) and np.abs(rho - np.outer(ket, ket.conj())).max() <= 1e-15
    assert levels(Carrier(1, math.pi, 0.3))[0] == ((D,), (S,))
    assert levels(split, Hide(2, math.pi - 1e-6, 0.0))[0][1] == (S, D, H)
    assert levels(Carrier(1, math.pi, 0.3), noise=NoiseConfig(depolarizing_per_pulse=0.025))[0][0] == (S, D)
    pmt1 = Detect(0, "pmt1")
    assert levels(split, pmt1, ConditionalPulse("pmt1", Outcome.BRIGHT, Hide(2, math.pi, 0.0)))[0][1] == (S, D, H)
    assert levels(split, Hide(2, math.pi, 0.0), waits=True)[0][1] == (S, D, H)


def _subsets(n):
    """Every nonempty subset of range(n), as a sorted tuple."""
    return [tuple(i for i in range(n) if mask >> i & 1) for mask in range(1, 2 ** n)]


@pytest.mark.parametrize("fock_cutoff", [3, 4, 5])
def test_drive_plans_match_the_dense_matrices_nonzero_pattern(fock_cutoff):
    # _drive_plan reads trap.drive_pairs in closed form; the reference reads
    # the drive's dense local matrix and the depolarizing superoperator
    # numerically. Zero and full-turn areas leave a pair's ends unmixed or
    # mixed with a zero diagonal, and a kept set that holds one end of a
    # pair but not the other writes that end's cos(area/2) alone.
    plan = protocol._drive_plan.__wrapped__
    cases = 0
    for area in (0.0, 0.7, math.pi, 2 * math.pi, -1.3):
        for depol in (0.0, 0.025, 1.0):
            for pulse in (Carrier(0, area, 0.3), Hide(1, area, 0.3), BlueSideband(2, area, 0.3)):
                ions = _subsets(3)
                grid = ([(i,) for i in ions] if not isinstance(pulse, BlueSideband)
                        else [(i, n) for i in ions for n in _subsets(fock_cutoff)])
                for kept in grid:
                    levels, op, dep = plan(pulse, fock_cutoff, kept, depol)
                    ref_levels, ref_op, ref_dep = dense_drive_plan(pulse, fock_cutoff, kept, depol)
                    assert levels == ref_levels, (pulse, kept, depol)
                    assert np.array_equal(op, ref_op), (pulse, kept, depol)
                    assert (dep is None and ref_dep is None) or np.array_equal(dep, ref_dep)
                    cases += 1
    assert cases == 15 * (2 * 7 + 7 * (2 ** fock_cutoff - 1))


def test_detection_error_collapses_on_the_true_outcome():
    # The exact instrument and the trajectories both collapse on the true
    # PMT outcome and flip only the report. A y-axis input loses fidelity to
    # either wrong correction, so a misreported readout shows in row 35.
    eps = 0.05
    noise = NoiseConfig(detection_error=eps)
    spec = canonical_inputs()[2]
    seq = build_sequence(spec)
    res = exact_run([(seq,)], noise=noise)[0]
    n, z_max = 600, 4.0
    shots = run_shot(seq, noise, 2024, range(n))
    branch = 2 * ~shots.pmt1 + ~shots.pmt2  # index into BRANCHES
    for j, b in enumerate(BRANCHES):
        in_branch = branch == j
        m = np.count_nonzero(in_branch)
        p = res.branch_probs[b]
        assert abs(m / n - p) <= z_max * math.sqrt(p * (1 - p) / n)
        q = res.final_bright[b]
        k = np.count_nonzero(shots.final[in_branch])
        assert abs(k / m - q) <= z_max * math.sqrt(q * (1 - q) / m)
    # Had the collapse followed the report, every correction would be right
    # and each branch would read bright with probability 1 - eps.
    pooled = np.count_nonzero(shots.final) / n
    assert abs(pooled - (1 - eps)) > z_max * math.sqrt(eps * (1 - eps) / n)
