"""The 35-row teleport sequence: structure, exact evolution, feed-forward.

Milestone states (Bell pair after row 6, uncorrected branch states) were
worked out by hand from the pulse table and are frozen here as oracles.
"""
import math
from dataclasses import fields

import numpy as np
import pytest

from teleion.errors import ConfigError, InvariantViolation
from teleion.noise import NoiseConfig
from teleion.protocol import (
    BRANCHES,
    ConditionalPulse,
    FidelityCheck,
    InputStateSpec,
    SequenceStep,
    Shots,
    Tomography,
    _FIT_PHASES,
    _phase_fit,
    _trig_basis,
    bell_preparation_fidelity,
    branch_label,
    build_sequence,
    calibrate_phase,
    canonical_inputs,
    classical_baseline,
    classical_baseline_per_state,
    exact_run,
    run_shot,
    sequence_text,
)
from teleion.qcore import state_fidelity
from teleion.tomography import bright_counts
from teleion.trap import Carrier, Detect, Hide, Outcome, Wait, apply_pulse

PI = math.pi


# ---------------------------------------------------------------------------
# Inputs

def test_canonical_inputs_are_the_six_bloch_axes():
    kets = [s.ket() for s in canonical_inputs()]
    s2 = 1.0 / math.sqrt(2.0)
    expected = [
        [1, 0],
        [0, -1j * np.exp(1j * 0.5 * PI)],  # = |D> up to phase
        [s2, -1j * np.exp(1j * PI) * s2],
        [s2, -s2],
        [s2, -1j * s2],
        [s2, s2],
    ]
    for ket, ref in zip(kets, expected):
        ref = np.asarray(ref, dtype=complex)
        overlap = abs(np.vdot(ref / np.linalg.norm(ref), ket))
        assert np.isclose(overlap, 1.0, atol=1e-12)
    assert [s.label for s in canonical_inputs()] == [f"psi{i}" for i in range(1, 7)]


# ---------------------------------------------------------------------------
# Sequence structure

@pytest.mark.parametrize("mode", [FidelityCheck(), *map(Tomography, "zxy")], ids=["fidelity", "z", "x", "y"])
@pytest.mark.parametrize("spin_echo", [True, False], ids=["echo", "no-echo"])
@pytest.mark.parametrize("reconstruction", [True, False], ids=["corrected", "uncorrected"])
def test_sequence_has_35_rows_and_the_three_readouts(mode, spin_echo, reconstruction):
    seq = build_sequence(canonical_inputs()[0], 0.3, mode, spin_echo=spin_echo, reconstruction=reconstruction)
    assert [s.step_id for s in seq] == list(range(1, 36))
    detects = [(s.step_id, s.action.label) for s in seq if isinstance(s.action, Detect)]
    assert detects == [(23, "pmt1"), (26, "pmt2"), (35, "final")]
    conds = [s for s in seq if isinstance(s.action, ConditionalPulse)]
    assert [s.step_id for s in conds] == ([31, 32, 33] if reconstruction else [])
    read_at = {label: step_id for step_id, label in detects}
    for s in conds:  # every correction follows the readout it names, and is a drive
        assert read_at[s.action.detect_label] < s.step_id
        assert not isinstance(s.action.pulse, Detect)


def test_conditional_rows_fire_on_dark_with_echo_bright_without():
    for spin_echo, want in ((True, Outcome.DARK), (False, Outcome.BRIGHT)):
        seq = build_sequence(canonical_inputs()[0], spin_echo=spin_echo)
        for s in seq:
            if isinstance(s.action, ConditionalPulse):
                assert s.action.required is want


def test_disabling_the_echo_blanks_rows_16_to_18():
    seq = build_sequence(canonical_inputs()[0], spin_echo=False)
    for sid in (16, 17, 18):
        assert isinstance(seq[sid - 1].action, Wait)
    echoed = build_sequence(canonical_inputs()[0], spin_echo=True)
    assert isinstance(echoed[15].action, Hide)
    assert isinstance(echoed[16].action, Carrier)
    assert isinstance(echoed[17].action, Hide)


def test_phase_offset_only_touches_the_tail():
    a = build_sequence(canonical_inputs()[5], 0.0)
    b = build_sequence(canonical_inputs()[5], 0.3)
    for sa, sb in zip(a, b):
        if sa.step_id < 30:
            assert sa.action == sb.action
    assert b[29].action.phi == a[29].action.phi + 0.3


def test_row_34_depends_on_analysis_mode():
    spec = canonical_inputs()[2]
    assert isinstance(build_sequence(spec, mode=Tomography("z"))[33].action, Wait)
    x34 = build_sequence(spec, mode=Tomography("x"))[33].action
    assert (x34.theta, x34.phi) == (0.5 * PI, 1.5 * PI)
    y34 = build_sequence(spec, mode=Tomography("y"))[33].action
    assert (y34.theta, y34.phi) == (0.5 * PI, PI)
    f34 = build_sequence(spec, mode=FidelityCheck())[33].action
    assert (f34.theta, f34.phi) == (spec.theta_chi, spec.phi_chi + PI)
    with pytest.raises(ConfigError):
        Tomography("w")


def test_sequence_text_lists_every_row():
    txt = sequence_text(build_sequence(canonical_inputs()[0]))
    lines = txt.rstrip("\n").split("\n")
    assert len(lines) == 35
    assert "if pmt1=dark: RC_3(1.0000pi, 0.0000pi)" in txt
    assert "detect ion 3 [final]" in txt
    assert lines[0].startswith(" 1  wait 0 us")


def test_branch_label_orders_pmt1_first():
    assert branch_label(Outcome.BRIGHT, Outcome.DARK) == "SD"
    assert branch_label(Outcome.DARK, Outcome.BRIGHT) == "DS"
    assert BRANCHES == ("SS", "SD", "DS", "DD")


# ---------------------------------------------------------------------------
# Milestones along the noiseless sequence

def test_rows_1_to_6_prepare_the_bell_pair():
    psi = np.zeros((1, 3, 3, 3, 4), dtype=np.complex128)
    psi[0, 0, 0, 0, 0] = 1.0
    for step in build_sequence(canonical_inputs()[0])[:6]:
        if not isinstance(step.action, Wait):
            psi = apply_pulse(psi, step.action)
    t = psi[0]  # (ion1, ion2, ion3, motion)
    s2 = 1.0 / math.sqrt(2.0)
    assert np.isclose(abs(t[0, 1, 0, 0]), s2, atol=1e-12)  # |S D S, 0>
    assert np.isclose(abs(t[0, 0, 1, 0]), s2, atol=1e-12)  # |S S D, 0>
    assert np.isclose(np.linalg.norm(t), 1.0, atol=1e-12)


def test_bell_preparation_fidelity_is_one_noiselessly():
    assert bell_preparation_fidelity() == pytest.approx(1.0, abs=1e-12)


def test_uncorrected_branch_states_show_the_required_corrections():
    # With reconstruction off, each branch carries the inverse of its own
    # feed-forward correction: SS none, SD a bit flip, DS a phase flip, DD both.
    res = exact_run([(build_sequence(canonical_inputs()[0], reconstruction=False),)])[0]  # input |S>
    pop_s = {b: res.branch_states[b].matrix[0, 0].real for b in BRANCHES}
    assert pop_s["SS"] == pytest.approx(1.0, abs=1e-9)
    assert pop_s["DS"] == pytest.approx(1.0, abs=1e-9)
    assert pop_s["SD"] == pytest.approx(0.0, abs=1e-9)
    assert pop_s["DD"] == pytest.approx(0.0, abs=1e-9)


# ---------------------------------------------------------------------------
# Noiseless teleportation is exact

@pytest.mark.parametrize("spec", canonical_inputs(), ids=lambda s: s.label)
def test_noiseless_exact_fidelity_is_one(spec):
    res = exact_run([(build_sequence(spec),)])[0]
    assert state_fidelity(res.rho_exp, spec.pure()) >= 1.0 - 1e-9
    for b in BRANCHES:
        assert res.branch_probs[b] == pytest.approx(0.25, abs=1e-9)
        assert state_fidelity(res.branch_states[b], spec.pure()) >= 1.0 - 1e-9
        assert res.final_bright[b] == pytest.approx(1.0, abs=1e-9)
    assert res.h_residual <= 1e-8
    assert res.motional_residual <= 1e-8


def test_unechoed_protocol_is_also_exact_noiselessly():
    # Dropping the echo block removes an iY on ion 3; the inverted
    # feed-forward conditions must absorb it exactly.
    for spec in (canonical_inputs()[0], canonical_inputs()[3], canonical_inputs()[5]):
        res = exact_run([(build_sequence(spec, spin_echo=False),)])[0]
        assert state_fidelity(res.rho_exp, spec.pure()) >= 1.0 - 1e-9
        for b in BRANCHES:
            assert state_fidelity(res.branch_states[b], spec.pure()) >= 1.0 - 1e-9


# ---------------------------------------------------------------------------
# Sampled path

def test_run_shot_is_deterministic_per_seed_and_index():
    seq = build_sequence(canonical_inputs()[5])
    noise = NoiseConfig(detuning_sigma_SD=0.002, depolarizing_per_pulse=0.02)
    a = run_shot(seq, noise, 42, range(17, 19))
    b = run_shot(seq, noise, 42, range(17, 19))
    for f in fields(Shots):
        assert np.array_equal(getattr(a, f.name), getattr(b, f.name)), f.name


def test_run_shot_starts_every_shot_in_the_ground_state():
    # Three bare readouts, one per ion, after a wait: every ion starts in S
    # (Bright) and the clock at 0.
    seq = (
        SequenceStep(1, Wait(7.0)),
        SequenceStep(2, Detect(0, "pmt1")),
        SequenceStep(3, Detect(1, "pmt2")),
        SequenceStep(4, Detect(2, "final")),
    )
    noise = NoiseConfig()
    shots = run_shot(seq, noise, 1, range(5))
    assert shots.pmt1.all() and shots.pmt2.all() and shots.final.all()
    assert np.array_equal(shots.elapsed_us, np.full(5, 7.0 + 3 * noise.pulse_durations.detect))


def test_noiseless_shots_always_read_bright():
    seq = build_sequence(canonical_inputs()[2])
    shots = run_shot(seq, NoiseConfig(), 7, range(50))
    assert shots.final.dtype == bool and shots.final.all()
    assert not shots.truncation.any()


def test_sampled_estimate_matches_exact_within_binomial_error():
    noise = NoiseConfig(depolarizing_per_pulse=0.02)
    spec = canonical_inputs()[5]
    exact = state_fidelity(exact_run([(build_sequence(spec),)], noise)[0].rho_exp, spec.pure())
    _, (n_bright,) = bright_counts([(build_sequence(spec),)], noise, 400, 11, sampling="per-shot")
    value = n_bright / 400
    stderr = math.sqrt(max(value * (1.0 - value), 0.0) / 400)
    assert abs(value - exact) <= 5.0 * max(stderr, 1e-3)
    assert stderr > 0.0


def test_branch_frequencies_are_uniform():
    seq = build_sequence(canonical_inputs()[0])
    n = 800
    shots = run_shot(seq, NoiseConfig(), 3, range(n))
    counts = dict(zip(BRANCHES, np.bincount(2 * ~shots.pmt1 + ~shots.pmt2, minlength=4)))
    sigma = math.sqrt(n * 0.25 * 0.75)
    for b in BRANCHES:
        assert abs(counts[b] - n * 0.25) <= 5.0 * sigma


# ---------------------------------------------------------------------------
# Calibration and baselines

def test_calibrate_phase_finds_zero_offset_noiselessly():
    res = calibrate_phase(grid=16)
    dist = min(res.phi_star, 2.0 * PI - res.phi_star)
    assert dist <= 5e-3
    assert res.grid_fidelities.max() >= 1.0 - 1e-9
    with pytest.raises(ConfigError):
        calibrate_phase(grid=4)


def _fit_samples(coef):
    return _trig_basis(_FIT_PHASES) @ np.asarray(coef, dtype=float)


def _peaked(phi0, a1, a2, base=0.6):
    """a0 + a1 cos(d - phi0) + a2 cos 2(d - phi0) as (a0, a1, b1, a2, b2)."""
    return [base, a1 * math.cos(phi0), a1 * math.sin(phi0), a2 * math.cos(2 * phi0), a2 * math.sin(2 * phi0)]


@pytest.mark.parametrize("phi0", [1.234, 4.0, 0.0, 3e-5, -7e-5, 2.0 * PI - 1e-4])
@pytest.mark.parametrize(
    "a1, a2",
    [(0.2, 0.1), (0.3, 0.0), (0.0, 0.2), (0.1, 0.4)],
    ids=["one peak", "degree 1", "pure degree 2", "a weaker second peak"],
)
def test_phase_fit_recovers_a_known_maximiser(phi0, a1, a2):
    # "pure degree 2" peaks at phi0 and phi0 + pi alike; the other cases peak
    # at phi0 only ("a weaker second peak" has a local maximum near phi0 + pi).
    coef = _peaked(phi0, a1, a2)
    phi, fit, residual = _phase_fit(_fit_samples(coef))
    assert np.allclose(fit, coef, rtol=0.0, atol=1e-14)
    assert 0.0 <= residual <= 1e-14
    assert 0.0 <= phi < 2.0 * PI
    period = PI if a1 == 0.0 else 2.0 * PI
    miss = (phi - phi0) % period
    assert min(miss, period - miss) <= 1e-12
    scan = np.linspace(0.0, 2.0 * PI, 2048, endpoint=False)
    assert (_trig_basis(phi) @ fit)[0] >= (_trig_basis(scan) @ fit).max() - 1e-14


@pytest.mark.parametrize("harmonic", [3, 4])
def test_phase_fit_raises_on_a_higher_harmonic(harmonic):
    for part in (np.cos, np.sin):
        samples = _fit_samples(_peaked(0.3, 0.2, 0.1)) + 1e-3 * part(harmonic * _FIT_PHASES)
        with pytest.raises(InvariantViolation, match="degree-2 fit"):
            _phase_fit(samples)
    # The tripwire itself: a sample that misses a clean polynomial by 2e-12.
    samples = _fit_samples(_peaked(0.3, 0.2, 0.1))
    samples[5] += 2e-12
    with pytest.raises(InvariantViolation):
        _phase_fit(samples)


@pytest.mark.parametrize("level", [0.0, 0.7, 1.0])
def test_phase_fit_of_a_flat_curve_is_zero(level):
    # At level 0 every coefficient is exactly 0, where np.roots has no polynomial.
    with np.errstate(all="raise"):
        phi, fit, residual = _phase_fit(np.full(6, level))
    assert phi == 0.0
    assert np.allclose(fit, [level, 0, 0, 0, 0], rtol=0.0, atol=1e-14)
    assert residual <= 1e-14


def test_classical_baseline_is_two_thirds():
    assert classical_baseline() == pytest.approx(2.0 / 3.0, abs=1e-15)
    per = classical_baseline_per_state()
    assert np.allclose(per, [1.0, 1.0, 0.5, 0.5, 0.5, 0.5], atol=1e-12)


def test_exact_path_rejects_amplitude_noise():
    with pytest.raises(ConfigError):
        exact_run([(build_sequence(canonical_inputs()[0]),)], noise=NoiseConfig(amplitude_error_sigma=0.01))


@pytest.mark.parametrize("label", ["pmt1", "pmt2", "final"])
@pytest.mark.parametrize("engine", ["exact", "per-shot"])
def test_a_table_missing_a_readout_names_it_in_both_engines(engine, label):
    # With pmt1's readout a wait, exact_run once raised a bare KeyError, or a
    # reshape ValueError while the rows conditioned on it stayed, and run_shot
    # a KeyError; each engine now names the readout, with or without those rows.
    waited = tuple(
        SequenceStep(s.step_id, Wait(0.0), s.comment) if getattr(s.action, "label", None) == label else s
        for s in build_sequence(canonical_inputs()[2])
    )
    unconditioned = tuple(s for s in waited if getattr(s.action, "detect_label", None) != label)
    for table in (waited, unconditioned):
        with pytest.raises(InvariantViolation, match=f"^sequence produced no '{label}' readout$"):
            if engine == "exact":
                exact_run([(table,)])
            else:
                run_shot(table, NoiseConfig(), 1, range(4))


@pytest.mark.parametrize("engine", ["exact", "per-shot"])
def test_a_conditional_readout_is_refused_in_both_engines(engine):
    # Made conditional on pmt1, pmt2's readout once ran unconditionally: the
    # exact engine gave every branch 1/4 and run_shot read pmt2 on every shot.
    table = list(build_sequence(canonical_inputs()[0]))
    table[25] = SequenceStep(26, ConditionalPulse("pmt1", Outcome.BRIGHT, Detect(1, "pmt2")), table[25].comment)
    with pytest.raises(InvariantViolation, match="^row 26: a readout cannot be conditional$"):
        if engine == "exact":
            exact_run([(tuple(table),)])
        else:
            run_shot(tuple(table), NoiseConfig(), 1, range(200))


def test_spin_echo_refocuses_detuning_noise():
    # the target ion waits 300 us in an S/H superposition before the
    # reconstruction; without the echo that phase never refocuses
    noise = NoiseConfig(detuning_sigma_SD=0.002)
    spec = canonical_inputs()[0]
    f_echo = state_fidelity(exact_run([(build_sequence(spec),)], noise)[0].rho_exp, spec.pure())
    f_bare = state_fidelity(exact_run([(build_sequence(spec, spin_echo=False),)], noise)[0].rho_exp, spec.pure())
    assert f_bare < 0.6
    assert f_echo > 0.75
    assert f_echo > f_bare
