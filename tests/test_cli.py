"""Command-line interface: config handling, artifacts, exit codes."""
import json
import re
from dataclasses import fields as dc_fields
from importlib import resources
from pathlib import Path

import pytest

from teleion.cli import (
    _CONFIG_KEY_DOCS,
    ExperimentConfig,
    build_parser,
    config_from_dict,
    main,
)
from teleion.errors import ConfigError
from teleion.noise import NoiseConfig
from teleion.protocol import FidelityCheck, InputStateSpec, Tomography, build_sequence, run_shot
from teleion.tomography import BASES, teleported_counts
from teleion.trap import Outcome

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
        bright = sum(
            run_shot(seq, noise, 11, idx * shots + i).final_outcome is Outcome.BRIGHT
            for i in range(shots)
        )
        assert row.split(",")[4] == repr(bright / shots)
    capsys.readouterr()

    table = teleported_counts(specs[0], noise, shots, master_seed=5)
    for b, basis in enumerate(BASES):
        seq = build_sequence(specs[0], 0.0, Tomography(basis.lower()))
        bright = sum(
            run_shot(seq, noise, 5, b * shots + i).final_outcome is Outcome.BRIGHT
            for i in range(shots)
        )
        assert (basis, "Bright", float(bright)) in table.rows
