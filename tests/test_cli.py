"""Command-line interface: config handling, artifacts, exit codes."""
import json
import math
import re
import warnings
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
    cmd_baseline,
    cmd_teleport,
    config_from_dict,
    main,
)
from teleion import cli
from teleion.errors import ConfigError, DimensionMismatch, InvariantViolation, NonConvergence
from teleion.noise import NoiseConfig, PulseDurations
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
from teleion.qcore import DensityMatrix
from teleion.tomography import BASES, rho_to_json, teleported_counts

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
    with pytest.raises(ConfigError, match=r"\['inputs\[0\]\.lable'\]"):
        config_from_dict({"inputs": [{"theta_chi": 0.0, "phi_chi": 0.0, "lable": "x"}]})


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
    with pytest.raises(ConfigError, match=r"^inputs\[0\]\.theta_chi is missing"):
        config_from_dict({"inputs": [{"phi_chi": 0.0}]})
    assert config_from_dict({"noise": {"depolarizing_steps": [4, 9]}}).noise.depolarizing_steps == (4, 9)
    # the conditional rows 31-33 and row 34 are carriers too
    steps = config_from_dict({"noise": {"depolarizing_steps": [31, 32, 33, 34]}}).noise.depolarizing_steps
    assert steps == (31, 32, 33, 34)


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


def test_a_config_built_in_code_checks_itself():
    # Only config_from_dict once ran these checks: built in code, a negative
    # seed or shot count reached numpy's own errors, one bootstrap resample
    # the NaN gate, and exact still sampled 1000 shots.
    for kwargs, message in (
        ({"seed": -1}, "seed must be a nonnegative integer"),
        ({"shots": -5}, "shots must be a nonnegative integer"),
        ({"bootstrap_resamples": 1}, "bootstrap_resamples must be 0 or >= 2"),
        ({"inputs": ()}, 'inputs must be "six-canonical" or a non-empty list'),
    ):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
            ExperimentConfig(**kwargs)
    assert ExperimentConfig(exact=True).shots == 0


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"grid": "x"}, 'grid must be an integer, got "x"'),
        ({"standby_wait_us": "1"}, 'standby_wait_us must be a number, got "1"'),
        ({"noise": 3}, "noise must be an object, got 3"),
        ({"phase_offset": float("inf")}, "phase_offset must be a number or a string, got Infinity"),
        ({"standby_wait_us": float("inf")}, "standby_wait_us must be a number, got Infinity"),
        ({"inputs": (InputStateSpec(0.0, 0.0, "a"), {1, 2})}, 'inputs[1] must be an object, got "{1, 2}"'),
    ],
    ids=["grid string", "wait string", "noise number", "infinite phase", "infinite wait", "unprintable input"],
)
def test_a_config_built_in_code_reads_its_values_as_json_would(kwargs, message):
    # Built in code, these once raised TypeError or AttributeError, or passed
    # a non-finite number JSON cannot carry.
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        ExperimentConfig(**kwargs)
    cfg = ExperimentConfig(noise=NoiseConfig(detection_error=0.01), inputs=[InputStateSpec(0.5, 1.0, "a")])
    assert cfg.noise.detection_error == 0.01 and cfg.inputs == (InputStateSpec(0.5, 1.0, "a"),)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ExperimentConfig(noise=NoiseConfig(detection_error=True)),
         "detection_error must be a number, got true"),
        (lambda: ExperimentConfig(noise=NoiseConfig(correlated_dephasing=0)),
         "correlated_dephasing must be a boolean, got 0"),
        (lambda: ExperimentConfig(noise=NoiseConfig(pulse_durations=PulseDurations(detect=True))),
         "detect must be a number, got true"),
        (lambda: ExperimentConfig(inputs=(InputStateSpec(theta_chi=True, phi_chi=0.0, label="a"),)),
         "theta_chi must be a number, got true"),
        (lambda: ExperimentConfig(inputs=(InputStateSpec(theta_chi=math.nan, phi_chi=0.0, label="a"),)),
         "theta_chi must be a number, got NaN"),
        (lambda: ExperimentConfig(inputs=(InputStateSpec(0.1, 0.0, label=7),)),
         "label must be a string, got 7"),
        (lambda: NoiseConfig(depolarizing_steps=["5", 2.9]),
         'depolarizing_steps must be a list of integers or null, got ["5", 2.9]'),
    ],
    ids=["boolean detection error", "integer correlated flag", "boolean detect window", "boolean angle",
         "NaN angle", "integer label", "string and float step ids"],
)
def test_a_config_object_nested_in_code_is_read_as_its_json_would_be(build, message):
    # A NoiseConfig, PulseDurations or InputStateSpec built in code once
    # passed into an ExperimentConfig unread, and a NoiseConfig read its step
    # ids through int(): each value here loaded, or raised TypeError. Each
    # object now reads its own fields as it is built, so the refusal names
    # the field, before any ExperimentConfig holds it.
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize(
    "build, key, raw, tail",
    [
        (lambda: NoiseConfig(depolarizing_steps=5), "noise.depolarizing_steps",
         {"noise": {"depolarizing_steps": 5}}, "must be a list of integers or null, got 5"),
        (lambda: PulseDurations(detect="250"), "noise.pulse_durations.detect",
         {"noise": {"pulse_durations": {"detect": "250"}}}, 'must be a number, got "250"'),
        (lambda: NoiseConfig(detuning_sigma_SD="0.1"), "noise.detuning_sigma_SD",
         {"noise": {"detuning_sigma_SD": "0.1"}}, 'must be a number, got "0.1"'),
        (lambda: NoiseConfig(detection_error=None), "noise.detection_error",
         {"noise": {"detection_error": None}}, "must be a number, got null"),
        (lambda: NoiseConfig(correlated_dephasing="yes"), "noise.correlated_dephasing",
         {"noise": {"correlated_dephasing": "yes"}}, 'must be a boolean, got "yes"'),
        (lambda: NoiseConfig(pulse_durations=3), "noise.pulse_durations",
         {"noise": {"pulse_durations": 3}}, "must be an object, got 3"),
        (lambda: InputStateSpec("0.1", 0.0), "inputs[0].theta_chi",
         {"inputs": [{"theta_chi": "0.1", "phi_chi": 0.0}]}, 'must be a number, got "0.1"'),
    ],
    ids=["integer step ids", "string detect window", "string sigma", "null detection error",
         "string correlated flag", "number durations", "string angle"],
)
def test_a_config_object_of_the_wrong_kind_built_in_code_is_a_config_error_naming_its_field(
    build, key, raw, tail, tmp_path, capsys
):
    # Built in code, the first four once raised TypeError in their own checks
    # and the last three loaded, failing only later. The JSON form names the
    # key by its full path, through the same reader.
    field = key.rsplit(".", 1)[-1]
    with pytest.raises(ConfigError, match=f"^{re.escape(field + ' ' + tail)}$"):
        build()
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["baseline", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: {key} {tail}\n"


def test_the_docs_example_config_runs(tmp_path, capsys):
    # The only JSON example in the docs must load and run.
    text = DOCS_CONFIG.read_text(encoding="utf-8")
    (block,) = re.findall(r"^```json\n(.*?)^```", text, flags=re.MULTILINE | re.DOTALL)
    cfg = config_from_dict(json.loads(block))
    cfg.output_dir = str(tmp_path / "docs")
    assert cmd_baseline(cfg) == 0
    assert json.loads((tmp_path / "docs" / "report.json").read_text())["command"] == "baseline"
    capsys.readouterr()


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
    assert "unknown preset 'no-such-preset'" in capsys.readouterr().err


def test_the_paper_preset_loads_the_shipped_example(tmp_path, capsys):
    example = Path(__file__).resolve().parents[1] / "examples" / "paper.json"
    args = build_parser().parse_args(["teleport", "--preset", "paper"])
    assert cli.load_config(args) == config_from_dict(json.loads(example.read_text(encoding="utf-8")))
    assert main(["baseline", "--preset", "paper", "--out", str(tmp_path / "paper")]) == 0
    assert json.loads((tmp_path / "paper" / "report.json").read_text())["command"] == "baseline"
    capsys.readouterr()


@pytest.mark.parametrize(
    "error, code, prefix",
    [
        (InvariantViolation, 3, "invariant violation"),
        (DimensionMismatch, 3, "invariant violation"),
        (NonConvergence, 4, "non-convergence"),
    ],
)
def test_main_exits_3_on_an_invariant_and_4_on_non_convergence(monkeypatch, capsys, error, code, prefix):
    def fail(cfg):
        raise error("probe")

    monkeypatch.setattr(cli, "cmd_baseline", fail)
    assert main(["baseline"]) == code
    assert capsys.readouterr().err == f"{prefix}: probe\n"


def test_mode_key_must_match_the_subcommand(tmp_path, capsys):
    cfg = write_config(tmp_path, mode="teleport")
    assert main(["baseline", "--config", str(cfg)]) == 2
    assert "does not match subcommand" in capsys.readouterr().err


COMMANDS = {"teleport": "cmd_teleport", "state-tomo": "cmd_state_tomo", "proc-tomo": "cmd_proc_tomo",
            "calibrate": "cmd_calibrate", "baseline": "cmd_baseline"}


@pytest.mark.parametrize("name", COMMANDS)
def test_main_runs_each_subcommand_through_its_own_function(monkeypatch, tmp_path, name):
    assert set(cli._MODES) == set(COMMANDS)
    calls = []
    for command, function in COMMANDS.items():
        monkeypatch.setattr(cli, function, lambda cfg, command=command: calls.append((command, cfg.mode)) or 0)
    assert main([name, "--config", str(write_config(tmp_path, mode=name))]) == 0
    assert calls == [(name, name)]


@pytest.mark.parametrize("name", COMMANDS)
def test_a_mode_mismatch_exits_2_before_any_output(tmp_path, capsys, name):
    other = "baseline" if name == "teleport" else "teleport"
    assert main([name, "--config", str(write_config(tmp_path, mode=other))]) == 2
    assert capsys.readouterr() == ("", f"config error: config mode {other!r} does not match subcommand {name!r}\n")
    assert not (tmp_path / "out").exists()


def test_export_sequence_ignores_the_mode_key(tmp_path, capsys):
    cfg = write_config(tmp_path, mode="teleport")
    assert main(["export-sequence", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out == sequence_text(build_sequence(canonical_inputs()[5]))
    assert not (tmp_path / "out").exists()


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
        ({"noise": {"pulse_durations": {"detect": "x"}}}, "noise.pulse_durations.detect"),
        ({"inputs": [{"theta_chi": 0.0, "phi_chi": 0.0, "label": 5}]}, "inputs[0].label"),
        ({"inputs": [3]}, "inputs[0]"),
        ({"noise": {"depolarizing_steps": [1.5]}}, "noise.depolarizing_steps"),
        # integers that name no depolarizing row: none, a hide (8), or past the table
        ({"noise": {"depolarizing_steps": [0]}}, "noise.depolarizing_steps"),
        ({"noise": {"depolarizing_steps": [-3]}}, "noise.depolarizing_steps"),
        ({"noise": {"depolarizing_steps": [999]}}, "noise.depolarizing_steps"),
        ({"noise": {"depolarizing_steps": [4, 8]}}, "noise.depolarizing_steps"),
        ({"spin_echo": False, "noise": {"depolarizing_steps": [17]}}, "noise.depolarizing_steps"),
        # a valid type, but a sampling mode the noise rules out, refused as the config loads
        ({"sampling": "fast", "noise": {"amplitude_error_sigma": 0.01}}, "sampling"),
        # valid types, out of range
        ({"grid": 4}, "grid"),
        ({"process_inputs": "exact"}, "process_inputs"),
        ({"tomography_resolution": 7}, "tomography_resolution"),
        ({"quad_points": 0}, "quad_points"),
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


@pytest.mark.parametrize("phase_offset", [0.0, "calibrate"])
def test_proc_tomo_refuses_dependent_inputs_before_any_work(tmp_path, capsys, phase_offset):
    # Two inputs cannot span the operator space: they once calibrated, ran the
    # engines and wrote their counts and states before exiting 2.
    inputs = [{"theta_chi": 1.1, "phi_chi": 0.3, "label": "a"}, {"theta_chi": 2.0, "phi_chi": 4.0, "label": "b"}]
    cfg = write_config(tmp_path, inputs=inputs, phase_offset=phase_offset)
    assert main(["proc-tomo", "--config", str(cfg)]) == 2
    assert "need at least 4 linearly independent input states" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "overrides, constant",
    [
        ({"noise": {"detuning_sigma_SD": float("nan")}}, "NaN"),
        ({"rephase_wait_us": float("inf")}, "Infinity"),
        ({"phase_offset": float("nan")}, "NaN"),
        ({"inputs": [{"theta_chi": float("nan"), "phi_chi": 0.0}]}, "NaN"),
        ({"noise": {"pulse_durations": {"carrier_pi": -float("inf")}}}, "-Infinity"),
    ],
)
def test_non_finite_numbers_in_a_config_exit_2(tmp_path, capsys, overrides, constant):
    # json.dumps writes NaN and Infinity, and Python's json.loads reads them
    # back; they once passed validation and exited 3 from the exact engine
    # with "DensityMatrix: non-finite entries" and a RuntimeWarning.
    cfg = write_config(tmp_path, **overrides)
    assert constant in cfg.read_text(encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["teleport", "--config", str(cfg), "--exact"]) == 2
    assert f"non-finite number {constant}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["teleport", "state-tomo", "proc-tomo", "calibrate"])
def test_a_negative_seed_exits_2_and_names_the_key(tmp_path, capsys, command):
    # numpy's SeedSequence refuses negative entropy: teleport, state-tomo and
    # proc-tomo once raised its ValueError uncaught, while calibrate exited 0.
    cfg = write_config(tmp_path, seed=-1, shots=10, bootstrap_resamples=0)
    assert main([command, "--config", str(cfg)]) == 2
    assert "seed must be a nonnegative integer" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_negative_seed_flag_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, shots=10)
    assert main(["teleport", "--config", str(cfg), "--seed", "-1"]) == 2
    assert "seed must be a nonnegative integer" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert main(["teleport", "--config", str(cfg), "--seed", "0"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("key", ["standby_wait_us", "rephase_wait_us"])
def test_a_negative_wait_exits_2(tmp_path, capsys, key):
    cfg = write_config(tmp_path, **{key: -1.0})
    assert main(["teleport", "--config", str(cfg), "--exact"]) == 2
    assert "standby_wait_us and rephase_wait_us must be nonnegative" in capsys.readouterr().err
    config_from_dict({key: 0.0})


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


def test_per_shot_teleport_reports_the_fast_routes_exact_fidelities(tmp_path, capsys):
    # Without amplitude noise, per-shot counts leave the exact fidelities to
    # a second exact run, which must give what the fast route's run gives.
    reports = {}
    for sampling in ("fast", "per-shot"):
        cfg = write_config(tmp_path, f"{sampling}.json", shots=20, sampling=sampling, noise=PAPER_NOISE,
                           quad_points=3, output_dir=str(tmp_path / sampling))
        assert main(["teleport", "--config", str(cfg)]) == 0
        reports[sampling] = json.loads((tmp_path / sampling / "report.json").read_text())
    assert reports["per-shot"]["sampling"] == "per-shot"
    exact = {k: [s["f_exact"] for s in r["states"]] + [r["f_avg_exact"]] for k, r in reports.items()}
    assert exact["per-shot"] == exact["fast"] and None not in exact["fast"]
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


def test_proc_tomo_can_take_the_ideal_input_states(tmp_path, capsys):
    cfg = write_config(tmp_path, shots=200, bootstrap_resamples=0, process_inputs="ideal")
    assert main(["proc-tomo", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    assert json.loads((out / "report.json").read_text())["process_inputs"] == "ideal"
    for spec in canonical_inputs():
        ideal = rho_to_json(DensityMatrix.from_pure(spec.pure()))
        assert (out / f"rho_in_{spec.label}.json").read_text() == ideal
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


@pytest.mark.parametrize("command", ["teleport", "state-tomo", "proc-tomo", "calibrate"])
def test_a_refused_calibration_leaves_no_output_directory(tmp_path, capsys, command):
    cfg = write_config(tmp_path, phase_offset="calibrate",
                       noise={"amplitude_error_sigma": 0.01, "detuning_sigma_SD": 0.0015})
    assert main([command, "--config", str(cfg)]) == 2
    assert "calibrate_phase handles channel-representable noise only" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("form", ["key", "flag"])
@pytest.mark.parametrize("command", ["teleport", "state-tomo", "proc-tomo"])
def test_a_refused_exact_run_leaves_no_output_directory(tmp_path, capsys, command, form):
    # Zero shots, as the "shots" key or the --exact flag, ask for the exact
    # engine, which refuses amplitude noise before any directory is made.
    noise = {"amplitude_error_sigma": 0.01}
    cfg = write_config(tmp_path, noise=noise, **({"shots": 0} if form == "key" else {}))
    assert main([command, "--config", str(cfg), *(["--exact"] if form == "flag" else [])]) == 2
    assert "exact_run handles channel-representable noise only" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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
