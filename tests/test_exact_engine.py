"""The exact engine's ion-3 cut against a full-register replay of all 35 rows.

exact_run and calibrate_phase evolve the whole (3, 3, 3, fock_cutoff)
register only up to the last row that touches ion 1, ion 2 or the motion,
and finish every branch on ion 3's 3x3 state. The reference here keeps the
full register through row 34 and reads row 35 by hand, so any error in the
cut, the stacked tail or the shared-prefix bookkeeping shows up as a gap.
"""
import math

import numpy as np
import pytest

from teleion.errors import InvariantViolation
from teleion.noise import NoiseConfig
from teleion.protocol import (
    BRANCHES,
    TRUNCATION_BOUND,
    FidelityCheck,
    Tomography,
    _evolve_exact,
    _gh_nodes,
    branch_label,
    build_sequence,
    calibrate_phase,
    canonical_inputs,
    exact_run,
    run_shot,
)
from teleion.qcore import _ptrace
from teleion.trap import Outcome, bright_projector_mask

TOL = 1e-12
MODES = (FidelityCheck(), Tomography("z"), Tomography("x"), Tomography("y"))
PAPER = dict(detuning_sigma_SD=0.0015, depolarizing_per_pulse=0.025)


def _qubit_block(rho3):
    block = rho3[:2, :2] / np.real(np.trace(rho3[:2, :2]))
    return 0.5 * (block + block.conj().T)


def full_register_replay(spec, phase, noise, modes, *, quad_points, fock_cutoff=4, **seq_kw):
    """Every row on the full register, per node: rows 1-33 shared, row 34 per mode."""
    seqs = [build_sequence(spec, phase, m, **seq_kw) for m in modes]
    shared = tuple(s for s in seqs[0] if s.step_id < 34)
    dims = (3, 3, 3, fock_cutoff)
    d = int(np.prod(dims))
    bright_mask = bright_projector_mask(3, fock_cutoff, 2).reshape(-1)
    eps = noise.detection_error
    acc: dict = {}
    bright = [{} for _ in modes]
    weight_end = [{} for _ in modes]
    for det_sd, det_h, weight in _gh_nodes(noise, quad_points):
        rho0 = np.zeros((d, d), dtype=np.complex128)
        rho0[0, 0] = 1.0
        branches, _ = _evolve_exact(
            {(): rho0.reshape(dims + dims)}, shared, noise, det_sd, det_h, fock_cutoff
        )
        for key, rho in branches.items():
            acc[key] = acc.get(key, 0.0) + weight * rho.reshape(d, d)
        for j, seq in enumerate(seqs):
            row34 = tuple(s for s in seq if s.step_id == 34)
            after, _ = _evolve_exact(branches, row34, noise, det_sd, det_h, fock_cutoff)
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
    )


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
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_exact_run_matches_the_full_register_replay(case):
    noise, kwargs = CASES[case]
    kwargs = {"quad_points": 3, **kwargs}
    spec = canonical_inputs()[sorted(CASES).index(case) % 6]
    phase = 0.3
    ref = full_register_replay(spec, phase, noise, MODES, **kwargs)
    res = exact_run(spec, phase, noise, MODES, **kwargs)

    assert np.abs(res.rho_exp.matrix - ref["rho_exp"]).max() <= TOL
    assert list(res.branch_probs) == list(BRANCHES)
    for b in BRANCHES:
        assert abs(res.branch_probs[b] - ref["branch_probs"][b]) <= TOL
        assert np.abs(res.branch_states[b].matrix - ref["branch_states"][b]).max() <= TOL
        assert abs(res.final_bright[b] - ref["final_bright"][0][b]) <= TOL
    for m, p in zip(MODES, ref["p_bright"]):
        assert abs(res.p_bright[m] - p) <= TOL
    assert abs(res.h_residual - ref["h_residual"]) <= TOL
    assert abs(res.motional_residual - ref["motional_residual"]) <= TOL

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
    res = calibrate_phase(noise, grid=grid, quad_points=quad_points, tol=0.5)
    spec = canonical_inputs()[5]
    psi = spec.ket()
    for phi, f in zip(res.grid_phis, res.grid_fidelities):
        rho = full_register_replay(spec, phi, noise, (FidelityCheck(),), quad_points=quad_points)
        assert abs(f - float(np.real(psi.conj() @ rho["rho_exp"] @ psi))) <= TOL


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
    for b in BRANCHES:
        in_branch = [r for r in shots if r.branch == b]
        p = res.branch_probs[b]
        assert abs(len(in_branch) / n - p) <= z_max * math.sqrt(p * (1 - p) / n)
        q = res.final_bright[b]
        k = sum(r.final_outcome is Outcome.BRIGHT for r in in_branch)
        assert abs(k / len(in_branch) - q) <= z_max * math.sqrt(q * (1 - q) / len(in_branch))
    # Had the collapse followed the report, every correction would be right
    # and each branch would read bright with probability 1 - eps.
    pooled = sum(r.final_outcome is Outcome.BRIGHT for r in shots) / n
    assert abs(pooled - (1 - eps)) > z_max * math.sqrt(eps * (1 - eps) / n)
