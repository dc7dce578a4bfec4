"""Command-line interface: config handling, artifacts, exit codes."""
import json
import re
from dataclasses import fields as dc_fields
from importlib import resources
from pathlib import Path

import pytest

from teleion.cli import (
    _CONFIG_KEY_DOCS,
    _child_seed,
    _emit_json,
    ExperimentConfig,
    build_parser,
    cmd_teleport,
    config_from_dict,
    main,
)
from teleion.errors import ConfigError, InvariantViolation
from teleion.noise import NoiseConfig
from teleion.protocol import (
    FidelityCheck,
    InputStateSpec,
    Tomography,
    build_sequence,
    calibrate_phase,
    canonical_inputs,
    run_shot,
    sequence_text,
)
from teleion.tomography import BASES, teleported_counts

DOCS_CONFIG = Path(__file__).resolve().parents[1] / "docs" / "config.md"


def write_config(tmp_path: Path, name: str = "config.json", **overrides) -> Path:
    cfg = {"seed": 11, "shots": 200, "output_dir": str(tmp_path / "out")}
    cfg.update(overrides)
    p = tmp_path / name
    p.write_text(json.dumps(cfg), encoding="utf-8")
    return p


# ---------------------------------------------------------------------------
# Config parsing and validation

def test_unknown_keys_are_rejected_at_every_level():
    with pytest.raises(ConfigError):
        config_from_dict({"sseed": 1})
    with pytest.raises(ConfigError):
        config_from_dict({"noise": {"detuning_sigma": 0.1}})
    with pytest.raises(ConfigError):
        config_from_dict({"noise": {"pulse_durations": {"carrier": 1.0}}})


def test_config_value_validation():
    with pytest.raises(ConfigError):
        config_from_dict({"shots": -1})
    with pytest.raises(ConfigError):
        config_from_dict({"fock_cutoff": 1})
    with pytest.raises(ConfigError):
        config_from_dict({"sampling": "sometimes"})
    with pytest.raises(ConfigError):
        config_from_dict({"mode": "frobnicate"})
    with pytest.raises(ConfigError):
        config_from_dict({"phase_offset": "auto"})
    config_from_dict({"phase_offset": "calibrate"})


def test_input_lists_need_unique_filename_safe_labels():
    with pytest.raises(ConfigError):
        config_from_dict({"inputs": [{"theta_chi": 0.0, "phi_chi": 0.0, "label": "a b"}]})
    with pytest.raises(ConfigError):
        config_from_dict(
            {
                "inputs": [
                    {"theta_chi": 0.0, "phi_chi": 0.0, "label": "x"},
                    {"theta_chi": 1.0, "phi_chi": 0.0, "label": "x"},
                ]
            }
        )
    cfg = config_from_dict(
        {"inputs": [{"theta_chi": 0.5, "phi_chi": 1.0, "label": "probe-1"}]}
    )
    assert [s.label for s in cfg.resolved_inputs()] == ["probe-1"]


def test_six_canonical_is_the_default_input_set():
    cfg = ExperimentConfig()
    assert [s.label for s in cfg.resolved_inputs()] == [
        f"psi{i}" for i in range(1, 7)
    ]


def test_help_lists_every_config_key():
    helptext = build_parser().format_help()
    for f in dc_fields(ExperimentConfig):
        assert f.name in helptext, f"--help does not document {f.name}"
    for key in ("detuning_sigma_SD", "depolarizing_per_pulse", "carrier_pi"):
        assert key in helptext
    # and the reverse: no documented key or flag outlives the code
    fields = {f.name for f in dc_fields(ExperimentConfig)}
    help_keys = {line.split()[0].split(".")[0] for line in _CONFIG_KEY_DOCS.splitlines()[1:]}
    assert help_keys == fields
    sections = DOCS_CONFIG.read_text(encoding="utf-8").split("\n## ")
    top = next(s for s in sections if s.startswith("Top-level keys"))
    table_keys = set(re.findall(r"^\| `(\w+)` \|", top, flags=re.MULTILINE))
    assert table_keys | {"noise"} == fields
    flags_doc = next(s for s in sections if s.startswith("Flags"))
    subparsers = build_parser()._subparsers._group_actions[0].choices.values()
    parser_flags = {
        opt
        for sub in subparsers
        for action in sub._actions
        for opt in action.option_strings
        if opt.startswith("--") and opt != "--help"
    }
    assert set(re.findall(r"--[\w-]+", flags_doc)) == parser_flags


# ---------------------------------------------------------------------------
# Exit codes

def test_missing_config_file_exits_2(capsys):
    assert main(["baseline", "--config", "/nonexistent/cfg.json"]) == 2
    assert "config error" in capsys.readouterr().err


def test_preset_and_config_are_mutually_exclusive(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["baseline", "--config", str(cfg), "--preset", "paper"]) == 2
    assert main(["baseline", "--preset", "no-such-preset"]) == 2
    capsys.readouterr()


def test_mode_key_must_match_the_subcommand(tmp_path, capsys):
    cfg = write_config(tmp_path, mode="teleport")
    assert main(["baseline", "--config", str(cfg)]) == 2
    assert "does not match subcommand" in capsys.readouterr().err


def test_fock_cutoff_2_exits_2_and_names_the_key(tmp_path, capsys):
    # At cutoff 2 every exact run of an input with population on ion 1's S
    # level stops at row 11 on the truncation monitor, so the config refuses it.
    cfg = write_config(tmp_path, fock_cutoff=2)
    assert main(["teleport", "--config", str(cfg), "--exact"]) == 2
    assert "fock_cutoff must be an integer >= 3" in capsys.readouterr().err


def test_fock_cutoff_3_runs_per_shot(tmp_path, capsys):
    # The floor holds for both engines: row 11 fills ion 1's |D, n=2>, the top
    # level at cutoff 3, which the truncation rule rightly leaves alone.
    # Amplitude noise has no exact representation, so every count is per shot.
    noise = {"detuning_sigma_SD": 0.0015, "depolarizing_per_pulse": 0.025, "amplitude_error_sigma": 0.01}
    cfg = write_config(tmp_path, shots=16, fock_cutoff=3, noise=noise)
    assert main(["state-tomo", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert len(report["states"]) == 6
    capsys.readouterr()


@pytest.mark.parametrize(
    "overrides, key",
    [
        ({"exact": "false"}, "exact"),
        ({"spin_echo": "no"}, "spin_echo"),
        ({"noise": {"correlated_dephasing": "false"}}, "noise.correlated_dephasing"),
        ({"seed": True}, "seed"),
        ({"grid": "abc"}, "grid"),
        ({"tomography_resolution": "x"}, "tomography_resolution"),
        ({"noise": {"detuning_sigma_SD": "0.1"}}, "noise.detuning_sigma_SD"),
        ({"bootstrap_resamples": 2.5}, "bootstrap_resamples"),
        ({"phase_offset": True}, "phase_offset"),
        ({"noise": {"depolarizing_steps": "12"}}, "noise.depolarizing_steps"),
        ({"noise": {"depolarizing_steps": [True, "3"]}}, "noise.depolarizing_steps"),
        ({"noise": {"depolarizing_steps": 5}}, "noise.depolarizing_steps"),
        ({"inputs": [{"theta_chi": True, "phi_chi": 0.0}]}, "inputs[0].theta_chi"),
        ({"inputs": [{"theta_chi": 0.0, "phi_chi": "0.5"}]}, "inputs[0].phi_chi"),
        # a valid type, but a sampling mode the noise rules out, refused as the config loads
        ({"sampling": "fast", "noise": {"amplitude_error_sigma": 0.01}}, "sampling"),
    ],
)
def test_a_value_of_the_wrong_json_type_exits_2_and_names_the_key(tmp_path, capsys, overrides, key):
    cfg = write_config(tmp_path, **overrides)
    assert main(["baseline", "--config", str(cfg)]) == 2
    assert f"{key} must be" in capsys.readouterr().err


def test_a_single_bootstrap_resample_exits_2(tmp_path, capsys):
    # One resample has no spread: its ddof=1 standard deviations were NaN in
    # report.json and affine.json.
    cfg = write_config(tmp_path, bootstrap_resamples=1)
    assert main(["proc-tomo", "--config", str(cfg)]) == 2
    assert "bootstrap_resamples must be 0 or >= 2" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_emit_json_refuses_non_finite_numbers(tmp_path, value):
    for payload in ({"b_std": [0.5, value]}, json.dumps({"b_std": value}) + "\n"):
        with pytest.raises(InvariantViolation, match="^report.json: non-finite number"):
            _emit_json(tmp_path / "report.json", payload)
        assert not (tmp_path / "report.json").exists()


def test_bad_input_label_for_export_exits_2(tmp_path, capsys):
    assert main(["export-sequence", "--input", "psi9"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# End-to-end runs (small, noiseless)

def test_teleport_exact_writes_all_artifacts(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["teleport", "--config", str(cfg), "--exact"]) == 0
    out = tmp_path / "out"
    assert (out / "fidelities.csv").exists()
    assert (out / "fidelity_bars.csv").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["command"] == "teleport"
    assert report["sampling"] == "exact"
    assert report["f_avg_exact"] == pytest.approx(1.0, abs=1e-9)
    assert report["beats_classical_baseline"] is True
    header = (out / "fidelities.csv").read_text().splitlines()[0]
    assert header == "input_label,theta_chi,phi_chi,f_exact,f_sampled,stderr"
    assert "F_avg (exact)" in capsys.readouterr().out


def test_exact_is_zero_shots(tmp_path, capsys):
    # --exact, the exact key and shots 0 are one mode: the same artefacts, shots 0 in the report
    runs = {
        "flag": (write_config(tmp_path, "flag.json", output_dir=str(tmp_path / "flag")), ["--exact"]),
        "key": (write_config(tmp_path, "key.json", output_dir=str(tmp_path / "key"), exact=True), []),
        "shots": (write_config(tmp_path, "shots.json", output_dir=str(tmp_path / "shots"), shots=0), []),
    }
    for cfg, flags in runs.values():
        assert main(["teleport", "--config", str(cfg), *flags]) == 0
    assert json.loads((tmp_path / "flag" / "report.json").read_text())["shots"] == 0
    for name in ("fidelities.csv", "fidelity_bars.csv", "report.json"):
        expected = (tmp_path / "shots" / name).read_bytes()
        assert (tmp_path / "flag" / name).read_bytes() == expected, name
        assert (tmp_path / "key" / name).read_bytes() == expected, name
    capsys.readouterr()


def test_exact_key_is_zero_shots_for_library_callers(tmp_path, capsys):
    # A config built with config_from_dict reaches a cmd_* function without
    # load_config: its exact key must already mean shots 0 there, and still
    # beat a --shots override when the config is loaded from a file.
    cfg = config_from_dict({"exact": True, "shots": 500, "output_dir": str(tmp_path / "lib")})
    assert cfg.shots == 0
    assert cmd_teleport(cfg) == 0
    assert json.loads((tmp_path / "lib" / "report.json").read_text())["sampling"] == "exact"
    path = write_config(tmp_path, exact=True)
    assert main(["teleport", "--config", str(path), "--shots", "50"]) == 0
    assert json.loads((tmp_path / "out" / "report.json").read_text())["shots"] == 0
    capsys.readouterr()


def test_flag_overrides_beat_the_config_file(tmp_path, capsys):
    cfg = write_config(tmp_path, seed=1)
    assert main(["teleport", "--config", str(cfg), "--exact", "--seed", "777"]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["seed"] == 777
    capsys.readouterr()


def test_teleport_with_amplitude_noise_reports_no_exact_fidelity(tmp_path, capsys):
    # amplitude noise has no exact representation: the run samples per shot
    # and leaves the exact fidelity null rather than failing
    cfg = write_config(tmp_path, shots=8, noise={"amplitude_error_sigma": 0.01})
    assert main(["teleport", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    report = json.loads((out / "report.json").read_text())
    assert report["sampling"] == "per-shot"
    assert report["f_avg_exact"] is None
    assert all(state["f_exact"] is None for state in report["states"])
    assert all(0.0 <= state["f_sampled"] <= 1.0 for state in report["states"])
    rows = (out / "fidelities.csv").read_text().splitlines()[1:]
    assert len(rows) == 6
    assert all(row.split(",")[3] == "" for row in rows)
    capsys.readouterr()


def test_sampled_teleport_reruns_byte_identically(tmp_path, capsys):
    cfg_a = write_config(tmp_path, "a.json", output_dir=str(tmp_path / "a"))
    cfg_b = write_config(tmp_path, "b.json", output_dir=str(tmp_path / "b"))
    assert main(["teleport", "--config", str(cfg_a)]) == 0
    assert main(["teleport", "--config", str(cfg_b)]) == 0
    for name in ("fidelities.csv", "fidelity_bars.csv", "report.json"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
    capsys.readouterr()


def test_state_tomo_exact_recovers_the_inputs(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["state-tomo", "--config", str(cfg), "--exact"]) == 0
    out = tmp_path / "out"
    report = json.loads((out / "report.json").read_text())
    assert report["command"] == "state-tomo"
    for entry in report["states"]:
        assert entry["fidelity_to_ideal"] >= 1.0 - 1e-6
    for label in ("psi1", "psi6"):
        assert (out / f"counts_{label}.csv").exists()
        assert (out / f"rho_{label}.json").exists()
    assert (out / "rho_bars.csv").exists()
    capsys.readouterr()


def test_proc_tomo_exact_finds_the_identity_channel(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["proc-tomo", "--config", str(cfg), "--exact"]) == 0
    out = tmp_path / "out"
    report = json.loads((out / "report.json").read_text())
    assert report["chi_II"] == pytest.approx(1.0, abs=1e-4)
    assert report["f_avg_from_chi"] == pytest.approx(1.0, abs=1e-4)
    assert report["f_avg_routes_consistent"] is True
    assert report["errors"] == {}  # no bootstrap without sampling
    for name in ("chi.json", "chi_bars.csv", "affine.json", "ellipsoid.csv"):
        assert (out / name).exists()
    capsys.readouterr()


def test_sampled_proc_tomo_counts_nonconverged_resamples(tmp_path, capsys):
    cfg = write_config(
        tmp_path, shots=500, noise={"depolarizing_per_pulse": 0.02}, bootstrap_resamples=8
    )
    assert main(["proc-tomo", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    errors = json.loads((out / "report.json").read_text())["errors"]
    assert errors["bootstrap_resamples"] == 8
    assert errors["bootstrap_nonconverged"] == 0 and type(errors["bootstrap_nonconverged"]) is int
    assert json.loads((out / "affine.json").read_text())["bootstrap_nonconverged"] == 0
    capsys.readouterr()


def test_proc_tomo_reports_certified_gaps(tmp_path, capsys):
    cfg = write_config(tmp_path, shots=300, bootstrap_resamples=4)
    assert main(["proc-tomo", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    total = 6 * 3 * 300  # six inputs, three bases
    assert type(report["mle_gap"]) is float and 0.0 <= report["mle_gap"] <= 1e-12 * total
    gap = report["errors"]["bootstrap_max_gap"]
    assert type(gap) is float and 0.0 <= gap <= 1e-12 * total
    capsys.readouterr()


def test_calibrate_finds_zero_phase_noiselessly(tmp_path, capsys):
    cfg = write_config(tmp_path, grid=8)
    assert main(["calibrate", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    report = json.loads((out / "report.json").read_text())
    phi = report["phi_star"]
    assert min(phi, 2 * 3.141592653589793 - phi) < 0.01
    assert report["fidelity_at_phi_star"] >= 1.0 - 1e-6
    sweep = (out / "phase_sweep.csv").read_text().splitlines()
    assert sweep[0] == "phi,fidelity"
    assert len(sweep) == 9
    capsys.readouterr()


def test_calibrated_reports_carry_the_tripwire_residual(tmp_path, capsys):
    noise = {"detuning_sigma_SD": 0.0015, "depolarizing_per_pulse": 0.025}
    cfg = write_config(tmp_path, quad_points=2, grid=8, noise=noise)
    assert main(["calibrate", "--config", str(cfg)]) == 0
    residual = json.loads((tmp_path / "out" / "report.json").read_text())["calibration_residual"]
    assert type(residual) is float and 0.0 <= residual <= 1e-12
    cfg = write_config(tmp_path, quad_points=2, grid=8, noise=noise, phase_offset="calibrate", exact=True)
    assert main(["teleport", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["calibration_residual"] == residual
    cfg = write_config(tmp_path, quad_points=2, noise=noise, exact=True)
    assert main(["teleport", "--config", str(cfg)]) == 0
    assert "calibration_residual" not in json.loads((tmp_path / "out" / "report.json").read_text())
    capsys.readouterr()


def test_baseline_reports_two_thirds(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["baseline", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["average"] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert "0.666666666667" in capsys.readouterr().out


def test_export_sequence_prints_and_saves_the_table(tmp_path, capsys):
    assert main(["export-sequence", "--out", str(tmp_path / "seq")]) == 0
    text = capsys.readouterr().out
    assert len(text.rstrip("\n").split("\n")) == 35
    assert (tmp_path / "seq" / "sequence.txt").read_text() == text
    assert main(["export-sequence", "--row34", "y"]) == 0
    assert "Y-basis analysis pulse" in capsys.readouterr().out


PAPER_NOISE = {"detuning_sigma_SD": 0.0015, "depolarizing_per_pulse": 0.025}


def test_export_sequence_prints_the_calibrated_tail(tmp_path, capsys):
    # "calibrate" means the calibration's optimum, here as in every command:
    # phi* = 6.28303 rad, so row 30's phase 1.5pi becomes 3.5pi (not 1.5pi).
    cfg = write_config(tmp_path, phase_offset="calibrate", noise=PAPER_NOISE)
    assert main(["export-sequence", "--config", str(cfg)]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert "RC_3(0.5000pi, 3.5000pi)" in rows[29]
    phi_star = calibrate_phase(NoiseConfig(**PAPER_NOISE)).phi_star
    assert rows[29:34] == sequence_text(build_sequence(canonical_inputs()[5], phi_star)).splitlines()[29:34]
    # amplitude noise has no calibration, so the table cannot be printed
    cfg = write_config(tmp_path, phase_offset="calibrate", noise={**PAPER_NOISE, "amplitude_error_sigma": 0.01})
    assert main(["export-sequence", "--config", str(cfg)]) == 2
    assert "calibrate_phase" in capsys.readouterr().err


def test_packaged_preset_matches_the_shipped_example():
    packaged = (
        resources.files("teleion").joinpath("presets/paper.json").read_bytes()
    )
    example = Path(__file__).resolve().parents[1].joinpath("examples/paper.json").read_bytes()
    assert packaged == example


def test_fast_teleport_survives_p_bright_roundoff_above_one(tmp_path, capsys):
    # noiselessly this input's exact P(bright) is 1.0000000000000002
    probe = {"theta_chi": 3.141592653589793, "phi_chi": 3.9269908169872414}
    cfg = write_config(tmp_path, shots=100, inputs=[probe])
    assert main(["teleport", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["sampling"] == "fast"
    assert report["states"][0]["f_sampled"] == 1.0
    capsys.readouterr()


def test_calibration_under_amplitude_noise_names_calibrate_phase(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        shots=8,
        quad_points=1,
        grid=8,
        phase_offset="calibrate",
        noise={"amplitude_error_sigma": 0.01},
    )
    assert main(["teleport", "--config", str(cfg)]) == 2
    assert "calibrate_phase" in capsys.readouterr().err


def test_sampled_counts_keep_their_per_shot_streams(tmp_path, capsys):
    # shot i of stream j is run_shot(seq, noise, master_seed, j * shots + i):
    # a batched trajectory engine must reproduce these counts exactly;
    # depolarizing keeps P(bright) away from 1 so the counts tell streams apart
    shots = 4
    noise_cfg = {"amplitude_error_sigma": 0.01, "depolarizing_per_pulse": 0.2}
    noise = NoiseConfig(**noise_cfg)
    specs = [InputStateSpec(0.5, 1.0, "a"), InputStateSpec(2.0, 0.3, "b")]
    cfg = write_config(
        tmp_path,
        shots=shots,
        noise=noise_cfg,
        inputs=[{"theta_chi": s.theta_chi, "phi_chi": s.phi_chi, "label": s.label} for s in specs],
    )
    assert main(["teleport", "--config", str(cfg)]) == 0
    rows = (tmp_path / "out" / "fidelities.csv").read_text().splitlines()[1:]
    for idx, (spec, row) in enumerate(zip(specs, rows)):
        seq = build_sequence(spec, 0.0, FidelityCheck())
        bright = sum(bool(run_shot(seq, noise, 11, [idx * shots + i]).final[0]) for i in range(shots))
        assert row.split(",")[4] == repr(bright / shots)
    capsys.readouterr()

    table = teleported_counts(specs[0], noise, shots, master_seed=5)
    for b, basis in enumerate(BASES):
        seq = build_sequence(specs[0], 0.0, Tomography(basis.lower()))
        bright = sum(bool(run_shot(seq, noise, 5, [b * shots + i]).final[0]) for i in range(shots))
        assert (basis, "Bright", float(bright)) in table.rows


def test_per_shot_state_tomo_keeps_each_inputs_streams(tmp_path, capsys):
    # every input's trajectories advance in one stacked run, yet input idx
    # still samples shot i of basis b as run_shot(seq, noise, child seed, b * shots + i)
    shots = 5
    noise_cfg = {"amplitude_error_sigma": 0.01, "depolarizing_per_pulse": 0.2}
    noise = NoiseConfig(**noise_cfg)
    specs = [InputStateSpec(0.5, 1.0, "a"), InputStateSpec(2.0, 0.3, "b"), InputStateSpec(1.2, 4.0, "c")]
    cfg = write_config(
        tmp_path,
        shots=shots,
        noise=noise_cfg,
        inputs=[{"theta_chi": s.theta_chi, "phi_chi": s.phi_chi, "label": s.label} for s in specs],
    )
    dirs = [tmp_path / f"run-{k}" for k in "ab"]
    for d in dirs:
        assert main(["state-tomo", "--config", str(cfg), "--out", str(d)]) == 0
    for idx, spec in enumerate(specs):
        seed = _child_seed(11, idx)
        lines = ["basis,outcome,count"]
        for b, basis in enumerate(BASES):
            seq = build_sequence(spec, 0.0, Tomography(basis.lower()))
            bright = sum(bool(run_shot(seq, noise, seed, [b * shots + i]).final[0]) for i in range(shots))
            lines += [f"{basis},Bright,{bright}", f"{basis},Dark,{shots - bright}"]
        assert (dirs[0] / f"counts_{spec.label}.csv").read_text().splitlines() == lines
    names = sorted(p.name for p in dirs[0].iterdir())
    assert names == sorted(p.name for p in dirs[1].iterdir())
    for name in names:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name
    capsys.readouterr()


def test_per_shot_state_tomo_counts_are_pinned(tmp_path, capsys):
    # Literal counts of a tiny per-shot run: unlike the stream tests above,
    # these cannot move together with run_shot. Paper noise plus amplitude
    # and detection error; 16 shots per basis.
    noise = {**PAPER_NOISE, "amplitude_error_sigma": 0.01, "detection_error": 0.02}
    specs = [InputStateSpec(0.5, 1.0, "a"), InputStateSpec(2.0, 0.3, "b"), InputStateSpec(1.2, 4.0, "c")]
    cfg = write_config(
        tmp_path,
        shots=16,
        sampling="per-shot",
        noise=noise,
        inputs=[{"theta_chi": s.theta_chi, "phi_chi": s.phi_chi, "label": s.label} for s in specs],
    )
    assert main(["state-tomo", "--config", str(cfg)]) == 0
    pinned = {"a": (12, 9, 11), "b": (8, 10, 11), "c": (6, 4, 5)}  # Bright in Z, X, Y
    for label, bright in pinned.items():
        lines = ["basis,outcome,count"]
        for basis, k in zip(BASES, bright):
            lines += [f"{basis},Bright,{k}", f"{basis},Dark,{16 - k}"]
        assert (tmp_path / "out" / f"counts_{label}.csv").read_text().splitlines() == lines
    capsys.readouterr()
