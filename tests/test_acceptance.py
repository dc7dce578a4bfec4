"""Acceptance gate: every shipped guarantee, checked at its stated tolerance.

Each criterion prints one PASS/FAIL line straight to the terminal (bypassing
pytest capture) so a full-suite run shows the gate verdict at a glance. The
assert follows the print, so a red criterion still reports its numbers.
"""
import json
import math
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from teleion.cli import main
from teleion.noise import NoiseConfig
from teleion.protocol import (
    BRANCHES,
    build_sequence,
    canonical_inputs,
    classical_baseline,
    exact_run,
    run_shot,
)
from teleion.qcore import (
    DensityMatrix,
    state_fidelity,
    trace_distance,
)
from teleion.tomography import (
    affine_decompose,
    apply_chi,
    average_fidelity,
    avg_from_process_fidelity,
    chi_ideal_identity,
    mle_process,
    mle_state,
    process_fidelity,
    simulate_state_tomography,
)

from oracles import haar_average_fidelity, random_cptp_qubit_channel, random_pure_state

EXAMPLE_CONFIG = Path(__file__).resolve().parents[1] / "examples" / "paper.json"


def announce(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_noiseless_exactness(capsys):
    t0 = time.time()
    worst_total = 1.0
    worst_branch = 1.0
    specs = canonical_inputs()
    for spec, res in zip(specs, exact_run([(build_sequence(spec),) for spec in specs])):
        worst_total = min(worst_total, state_fidelity(res.rho_exp, spec.pure()))
        for b in BRANCHES:
            worst_branch = min(
                worst_branch, state_fidelity(res.branch_states[b], spec.pure())
            )
    elapsed = time.time() - t0
    ok = worst_total >= 1 - 1e-9 and worst_branch >= 1 - 1e-9 and elapsed < 5.0
    announce(
        capsys,
        1,
        ok,
        f"noiseless exact fidelity: worst total {worst_total:.12f}, "
        f"worst branch {worst_branch:.12f}, {elapsed:.1f}s (< 5 s)",
    )
    assert ok


def test_criterion_2_branch_statistics(capsys):
    n = 10_000
    seq = build_sequence(canonical_inputs()[0])
    shots = run_shot(seq, NoiseConfig(), 2026, range(n))
    counts = {b: int(c) for b, c in zip(BRANCHES, np.bincount(2 * ~shots.pmt1 + ~shots.pmt2, minlength=4))}
    sigma = math.sqrt(n * 0.25 * 0.75)
    worst = max(abs(c - n / 4) for c in counts.values())
    ok = worst <= 5 * sigma
    announce(
        capsys,
        2,
        ok,
        f"branch frequencies over {n} shots: {counts}, "
        f"worst deviation {worst:.0f} <= 5 sigma = {5 * sigma:.0f}",
    )
    assert ok


def test_criterion_3_fidelity_relation(capsys):
    worst = 0.0
    for seed in range(200):
        chi = random_cptp_qubit_channel(seed)
        f_avg = average_fidelity(chi)
        f_rel = avg_from_process_fidelity(process_fidelity(chi, chi_ideal_identity()))
        worst = max(worst, abs(f_avg - f_rel))
    ok = worst <= 1e-9
    announce(
        capsys,
        3,
        ok,
        f"F_avg vs (2 F_proc + 1)/3 over 200 random CPTP channels: "
        f"worst gap {worst:.2e} <= 1e-9",
    )
    assert ok


def test_criterion_4_depolarizing_oracles(capsys):
    inputs = [DensityMatrix.from_pure(s.ket()) for s in canonical_inputs()]
    worst_chi = worst_f = worst_aff = 0.0
    for p in (0.1, 0.3, 0.7):
        chi_true = np.diag([1 - 0.75 * p, 0.25 * p, 0.25 * p, 0.25 * p]).astype(complex)
        tables = [
            simulate_state_tomography(DensityMatrix(apply_chi(chi_true, r.matrix)))
            for r in inputs
        ]
        chi_mle = mle_process(inputs, tables).chi
        worst_chi = max(worst_chi, float(np.max(np.abs(chi_mle - chi_true))))
        for chi in (chi_true, chi_mle):
            f_proc = process_fidelity(chi, chi_ideal_identity())
            worst_f = max(worst_f, abs(f_proc - (1 - 0.75 * p)))
            worst_f = max(worst_f, abs(average_fidelity(chi) - (1 - 0.5 * p)))
        amap = affine_decompose(chi_true)
        worst_aff = max(
            worst_aff,
            float(np.max(np.abs(amap.S - (1 - p) * np.eye(3)))),
            float(np.max(np.abs(amap.O - np.eye(3)))),
            float(np.max(np.abs(amap.b))),
        )
    ok = worst_chi <= 1e-4 and worst_f <= 1e-6 and worst_aff <= 1e-8
    announce(
        capsys,
        4,
        ok,
        f"depolarizing p in (0.1, 0.3, 0.7): MLE chi error {worst_chi:.2e} <= 1e-4, "
        f"fidelity error {worst_f:.2e} <= 1e-6, affine error {worst_aff:.2e} <= 1e-8",
    )
    assert ok


def test_criterion_5_mle_statistical_recovery(capsys):
    hits = 0
    invariants_ok = True
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a non-convergence warning fails the run
        for trial in range(100):
            rng = np.random.default_rng([2026, trial])
            if trial % 2 == 0:
                rho = DensityMatrix.from_pure(random_pure_state(rng).amplitudes)
            else:
                g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                m = g @ g.conj().T
                rho = DensityMatrix(m / np.trace(m).real)
            est = mle_state(simulate_state_tomography(rho, 100_000, rng))
            eigs = np.linalg.eigvalsh(est.matrix)
            invariants_ok &= bool(
                eigs.min() >= -1e-10 and abs(np.trace(est.matrix).real - 1) <= 1e-10
            )
            hits += trace_distance(est, rho) <= 0.02
    ok = hits >= 95 and invariants_ok
    announce(
        capsys,
        5,
        ok,
        f"state MLE at 1e5 shots/basis: {hits}/100 trials within TD 0.02 "
        f"(need >= 95), invariants {'held' if invariants_ok else 'VIOLATED'}",
    )
    assert ok


def test_criterion_6_classical_baseline(capsys):
    base = classical_baseline()
    exact_ok = abs(base - 2.0 / 3.0) <= 1e-12

    def measure_resend(rho):
        return np.diag(np.diag(rho))

    n = 20_000
    mc = haar_average_fidelity(measure_resend, np.random.default_rng(2026), n)
    four_sigma = 4.0 * math.sqrt((1.0 / 45.0) / n)  # Var_Haar[F] = 1/45
    mc_ok = abs(mc - 2.0 / 3.0) <= four_sigma
    ok = exact_ok and mc_ok
    announce(
        capsys,
        6,
        ok,
        f"classical baseline {base:.15f} (= 2/3 within 1e-12); "
        f"Haar MC {mc:.5f} within 4 sigma = {four_sigma:.5f} of 2/3",
    )
    assert ok


def test_criterion_7_paper_bracketing(capsys, tmp_path):
    assert EXAMPLE_CONFIG.is_file(), (
        f"{EXAMPLE_CONFIG} is missing; it must be a byte copy of src/teleion/presets/paper.json"
    )
    t0 = time.time()
    assert main(["teleport", "--config", str(EXAMPLE_CONFIG), "--out", str(tmp_path / "t")]) == 0
    assert main(["proc-tomo", "--config", str(EXAMPLE_CONFIG), "--out", str(tmp_path / "p")]) == 0
    elapsed = time.time() - t0

    tele = json.loads((tmp_path / "t" / "report.json").read_text())
    proc = json.loads((tmp_path / "p" / "report.json").read_text())
    f_avg = tele["f_avg_sampled"]
    per_state = [s["f_sampled"] for s in tele["states"]]
    span = max(per_state) - min(per_state)
    chi_ii = proc["chi_II"]
    s_eigs = proc["s_eigenvalues"]
    angle = proc["rotation_angle_deg"]

    ok = (
        0.75 <= f_avg <= 0.90
        and span >= 0.05
        and 0.6 <= chi_ii <= 0.85
        and max(s_eigs) < 1.0
        and (max(s_eigs) - min(s_eigs)) >= 0.02
        and angle is not None
        and angle <= 10.0
        and elapsed < 120.0
    )
    announce(
        capsys,
        7,
        ok,
        f"examples/paper.json at 1e4 shots: F_avg={f_avg:.4f} in [0.75, 0.90], "
        f"span={span:.4f} >= 0.05, chi_II={chi_ii:.4f} in [0.6, 0.85], "
        f"S={[round(x, 4) for x in s_eigs]} (<1, spread >= 0.02), "
        f"rotation={angle:.2f} deg <= 10, {elapsed:.0f}s (< 120 s)",
    )
    assert ok


def test_criterion_8_spin_echo(capsys):
    noise = NoiseConfig(detuning_sigma_SD=0.0015)
    specs = canonical_inputs()
    f_echo, f_bare = (
        float(np.mean([
            state_fidelity(res.rho_exp, s.pure())
            for s, res in zip(specs, exact_run([(build_sequence(s, spin_echo=echo),) for s in specs], noise))
        ]))
        for echo in (True, False)
    )
    ok = f_bare <= 0.9 and f_echo > f_bare
    announce(
        capsys,
        8,
        ok,
        f"correlated dephasing sigma=0.0015: unechoed F_avg={f_bare:.4f} <= 0.9, "
        f"echoed F_avg={f_echo:.4f} strictly higher",
    )
    assert ok


def test_criterion_9_determinism(capsys, tmp_path):
    cfg = {
        "seed": 99,
        "shots": 500,
        "noise": {"depolarizing_per_pulse": 0.02},
        "bootstrap_resamples": 20,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")

    mismatches = []
    for command in ("teleport", "state-tomo", "proc-tomo", "baseline"):
        dirs = [tmp_path / f"{command}-{k}" for k in "ab"]
        for d in dirs:
            assert main([command, "--config", str(cfg_path), "--out", str(d)]) == 0
        names = sorted(p.name for p in dirs[0].iterdir())
        if names != sorted(p.name for p in dirs[1].iterdir()):
            mismatches.append(f"{command}: different file sets")
            continue
        for name in names:
            if (dirs[0] / name).read_bytes() != (dirs[1] / name).read_bytes():
                mismatches.append(f"{command}/{name}")
    ok = not mismatches
    announce(
        capsys,
        9,
        ok,
        "identical config + seed reruns byte-identical for teleport, state-tomo, "
        "proc-tomo, baseline"
        + ("" if ok else f"; differing: {mismatches}"),
    )
    assert ok
