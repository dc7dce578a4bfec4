"""The exact engine's live register against a full-register replay of all 35 rows.

exact_run, calibrate_phase and bell_preparation_fidelity advance every
(quadrature node, branch) entry on one stacked live register, NODE_PASS
nodes at a time: each subsystem holds only the levels its drives have
reached and is traced out after the last row that needs it, ion 3 (or ions 2
and 3) is kept to the end, and each ion's detuning phase waits until its next
drive. The reference here is a plain row loop: every row on the whole (3, 3,
3, fock_cutoff) register with a full dephasing pass per row, through row 34,
with row 35 read by hand. Any error in the lifetimes, the kept levels, the
deferred phases, the stacked (node, branch) entries, the node passes or the
shared-prefix bookkeeping shows up as a gap.
"""
import math

import numpy as np
import pytest

from teleion import protocol, trap
from teleion.errors import InvariantViolation
from teleion.noise import NoiseConfig, depolarize_density_tensor
from teleion.protocol import (
    BRANCHES,
    TRUNCATION_BOUND,
    ConditionalPulse,
    FidelityCheck,
    SequenceStep,
    Tomography,
    _gh_nodes,
    _lifetimes,
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
        return trap.carrier_local(pulse.theta, pulse.phi), (pulse.ion,)
    if isinstance(pulse, Hide):
        return trap.hide_local(pulse.theta, pulse.phi), (pulse.ion,)
    op = trap.sideband_local(pulse.theta, pulse.phi, fock_cutoff)
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
    res = exact_run(spec, phase, noise, MODES, **kwargs)

    _assert_matches(res, ref)
    for m, p in zip(MODES, ref["p_bright"]):
        assert abs(res.p_bright[m] - p) <= TOL

    # One mode at a time gives the same numbers as the shared-prefix call.
    for j, m in enumerate(MODES[1:], start=1):
        single = exact_run(spec, phase, noise, m, **kwargs)
        for b in BRANCHES:
            assert abs(single.final_bright[b] - ref["final_bright"][j][b]) <= TOL
        assert abs(single.p_bright[m] - res.p_bright[m]) <= TOL


@pytest.mark.parametrize("fock_cutoff", [3, 4, 6])
@pytest.mark.parametrize(
    "noise", [NoiseConfig(), NoiseConfig(**PAPER)], ids=["noiseless", "paper noise"]
)
def test_zero_probability_branches_stay_out_of_the_probabilities(noise, fock_cutoff):
    # Noiseless, some branches are empty. Their P(bright | branch) was once a
    # ratio of two roundoff numbers (-5.3e282 for psi6, SS, at cutoff 2) that
    # also reached p_bright (3.4e266).
    for spec in canonical_inputs():
        res = exact_run(spec, 0.0, noise, MODES, quad_points=3, fock_cutoff=fock_cutoff)
        assert all(0.0 <= p <= 1.0 for p in res.p_bright.values())
        assert all(math.isfinite(f) for f in res.final_bright.values())
        assert {b for b, p in res.branch_probs.items() if p > 1e-12} == set(res.final_bright)
        assert set(res.branch_states) == set(res.final_bright)
        pooled = sum(res.branch_probs[b] * f for b, f in res.final_bright.items())
        assert abs(res.p_bright[MODES[0]] - pooled) <= 1e-9


@pytest.mark.parametrize(
    "noise", [NoiseConfig(), NoiseConfig(**PAPER)], ids=["noiseless", "paper noise"]
)
def test_fock_cutoff_2_trips_the_truncation_monitor(noise):
    # Cutoff 2 drops the |S,1> <-> |D,2> coupling of the phase gate (rows
    # 11-14); every input with population there used to come out wrong
    # (noiseless P(bright) 0 for psi1, 0.5 for psi3-psi6) with no error.
    for spec in canonical_inputs():
        if spec.label == "psi2":  # ion 1 in D: the gate never reaches |S,1>
            res = exact_run(spec, 0.0, noise, quad_points=3, fock_cutoff=2)
            assert res.truncation_population <= TRUNCATION_BOUND
            continue
        with pytest.raises(InvariantViolation, match=r"^row 1[1-4]: ") as err:
            exact_run(spec, 0.0, noise, quad_points=3, fock_cutoff=2)
        assert "fock_cutoff" in str(err.value)
        if noise == NoiseConfig():  # one more level makes the teleportation exact
            res = exact_run(spec, 0.0, noise, fock_cutoff=3)
            assert abs(res.p_bright[FidelityCheck()] - 1.0) <= 1e-9


@pytest.mark.parametrize(
    "noise",
    [NoiseConfig(detection_error=0.05, **PAPER), NoiseConfig(detuning_bias_SD=0.001)],
    ids=["paper noise + detection error", "detuning bias"],
)
def test_calibration_grid_matches_the_full_register_replay(noise):
    grid, quad_points = 8, 2
    res = calibrate_phase(noise, grid=grid, quad_points=quad_points)
    spec = canonical_inputs()[5]
    psi = spec.ket()
    for phi, f in zip(res.grid_phis, res.grid_fidelities):
        rho = full_register_replay([build_sequence(spec, phi)], noise, quad_points=quad_points)
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
    # calibrate_phase replays only five fit phases and a tripwire; its curve
    # must still be the replayed fidelity on and off its grid, and its phi*
    # the curve's maximum.
    noise, quad_points = CALIBRATION_NOISE[case], 2
    advanced = []
    advance = protocol._advance
    monkeypatch.setattr(protocol, "_advance", lambda *args: advanced.append(1) or advance(*args))
    res = calibrate_phase(noise, grid=8, quad_points=quad_points)
    passes = math.ceil(len(_gh_nodes(noise, quad_points)) / protocol.NODE_PASS)
    assert len(advanced) == passes + 6
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
    at_star = exact_run(spec, res.phi_star, noise, quad_points=quad_points)
    assert abs(res.fidelity - state_fidelity(at_star.rho_exp, spec.pure())) <= TOL


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
        test_calibration_grid_matches_the_full_register_replay(noise)
    test_fock_cutoff_2_trips_the_truncation_monitor(NoiseConfig(**PAPER))


def test_lifetimes_come_from_the_sequence():
    # The standard table: the motion leaves after row 19 (its last sideband),
    # ion 1 after row 23 (pmt1) and ion 2 after row 26 (pmt2); ion 3 stays to
    # the cut.
    standard = build_sequence(canonical_inputs()[0])[:27]
    assert _lifetimes(standard, (2,)) == {0: 22, 1: 25, 2: 27, 3: 18}

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
    assert _lifetimes(seq[:27], (2,)) == {0: 23, 1: 25, 2: 27, 3: 23}

    ref = full_register_replay([seq], noise, quad_points=3)
    res = exact_run(spec, 0.3, noise, sequence=seq, quad_points=3)
    _assert_matches(res, ref)
    assert abs(res.p_bright[FidelityCheck()] - ref["p_bright"][0]) <= TOL
    assert res.motional_residual > 0.1  # the late sideband moved motion the oracle sees too


def test_the_register_holds_only_the_levels_its_drives_reached():
    # The oracle passes whether or not exactly-empty levels are dropped; this
    # pins the pruning. On the standard table ion 2 first reaches H at row 22
    # and ion 1 leaves at row 23, before its hide, so the register holds
    # 2 * 2 * 3 * 4 = 48 of the 108 levels after rows 10-18.
    noise = NoiseConfig(**PAPER)
    seq = build_sequence(canonical_inputs()[5])
    life = _lifetimes(seq, (2,))

    def after(row):
        stack = protocol._evolve(tuple(s for s in seq if s.step_id <= row), life, noise, 3, 4)
        assert stack.rho.shape[1:] == tuple(len(lv) for lv in stack.levels) * 2
        return stack.levels

    assert after(18) == ((S, D), (S, D), (S, D, H), (0, 1, 2, 3))
    # A subsystem holds S until its first drive; a drive that reaches a
    # dropped level grows it: a carrier on {S} gives {S, D} (row 5), and a
    # hide on {S, D} gives {S, D, H} (row 22).
    assert after(4)[1] == (S,) and after(5)[1] == (S, D)
    assert after(21)[1] == (S, D) and after(22)[1] == (S, D, H)
    # The depolarizing channel's pattern counts too: an idle carrier moves no
    # population, but the channel after it reaches D.
    plan = protocol._drive_plan
    assert plan(Carrier(0, 0.0, 0.0), 4, ((S,),), 0.0)[0] == ((S,),)
    assert plan(Carrier(0, 0.0, 0.0), 4, ((S,),), 0.025)[0] == ((S, D),)
    levels, op, dep = plan(BlueSideband(0, math.pi, 0.0), 4, ((S,), (0,)), 0.0)
    assert levels == ((S, D), (0, 1)) and op.shape == (2, 2, 2, 2) and dep is None


def test_detection_error_collapses_on_the_true_outcome():
    # The exact instrument and the trajectories both collapse on the true
    # PMT outcome and flip only the report. A y-axis input loses fidelity to
    # either wrong correction, so a misreported readout shows in row 35.
    eps = 0.05
    noise = NoiseConfig(detection_error=eps)
    spec = canonical_inputs()[2]
    res = exact_run(spec, noise=noise)
    seq = build_sequence(spec)
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
