"""Experiment runner: reproduces the teleportation data products as files.

Subcommands: teleport, state-tomo, proc-tomo, calibrate, baseline,
export-sequence. Configuration comes from JSON (--config / --preset) with
flag overrides; every artifact is a deterministic function of (config, seed),
so reruns are byte-identical. Exit codes: 0 ok, 2 config error, 3 numerical
invariant violation, 4 process-fit non-convergence.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import ConfigError, DimensionMismatch, InvariantViolation, NonConvergence
from .noise import NoiseConfig
from .protocol import (
    ANALYSIS_PULSES,
    ConditionalPulse,
    ExactPrefix,
    FidelityCheck,
    InputStateSpec,
    Tomography,
    build_sequence,
    calibrate_phase,
    canonical_inputs,
    classical_baseline,
    classical_baseline_per_state,
    exact_run,
    sequence_text,
)
from .protocol import run_shot  # noqa: F401  perfbench/spans.py traces this binding
from .qcore import DensityMatrix, state_fidelity, trace_distance
from .schema import read_fields, read_object
from . import tomography as tomo
from .trap import BlueSideband, Carrier

# `main` runs each subcommand's `cmd_*` function by name, so that a replaced one is run.
__all__ = ["ExperimentConfig", "build_parser", "cmd_baseline", "cmd_calibrate", "cmd_export_sequence",
           "cmd_proc_tomo", "cmd_state_tomo", "cmd_teleport", "config_from_dict", "load_config", "main"]

_TELE_TAG = 0xCA11
_INPUT_TAG = 0x1297


def _child_seed(*parts: int) -> int:
    """Stable derived seed so independent sampling contexts never share streams."""
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1, np.uint64)[0])


# ---------------------------------------------------------------------------
# Configuration

_CONFIG_KEY_DOCS = """\
configuration keys (JSON file; flags override file values):
  seed                    nonnegative integer master seed (default 1234)
  shots                   shots per input (teleport) or per basis (tomography), default 1000
  fock_cutoff             motional Fock levels simulated, >= 3 (default 4)
  phase_offset            tail phase in radians, or "calibrate" (default 0.0)
  inputs                  "six-canonical" or list of {theta_chi, phi_chi[, label]}, angles in radians
  output_dir              artifact directory (default "out")
  mode                    optional; must match the subcommand when present (export-sequence ignores it)
  quad_points             Gauss-Hermite nodes for detuning averaging (default 21 correlated, 9/ion otherwise)
  sampling                auto | fast | per-shot (default auto)
  spin_echo               boolean, echo pulse on the target ion (default true)
  standby_wait_us         microseconds, standby wait before hiding the target (default 1.0)
  rephase_wait_us         microseconds, rephasing wait before reconstruction (default 300.0)
  grid                    rows of the calibration's phase_sweep.csv, >= 8 (default 32)
  bootstrap_resamples     parametric bootstrap size for error bars, 0 or >= 2 (default 200)
  process_inputs          reconstructed | ideal input states for process tomography (default reconstructed)
  tomography_resolution   ellipsoid mesh resolution, >= 8 (default 24)
  exact                   boolean, infinite-statistics mode: the same as shots 0 (default false)
  noise.detuning_sigma_SD       rad/us, std dev of the quasi-static S-D detuning
  noise.detuning_bias_SD        rad/us, deterministic S-D detuning offset
  noise.dephasing_ratio_H       unitless, H-level detuning = ratio x S-D detuning (default 2.0)
  noise.amplitude_error_sigma   unitless, relative pulse-area error std dev
  noise.depolarizing_per_pulse  probability, depolarizing channel per drive pulse
  noise.detection_error         probability, readout misassignment
  noise.correlated_dephasing    boolean, one detuning draw shared by all ions (default true)
  noise.depolarizing_steps      list of step ids carrying the depolarizing channel (default: all drive pulses)
  noise.pulse_durations.carrier_pi   us per carrier pi pulse (default 10.0)
  noise.pulse_durations.sideband_pi  us per sideband pi pulse (default 100.0)
  noise.pulse_durations.hide_pi      us per hide pi pulse (default 10.0)
  noise.pulse_durations.detect       us per detection window (default 250.0)
"""

#: Every command a config's `mode` may name, with its --help line; `main` runs `cmd_<name>`.
_MODES = {
    "teleport": "teleportation fidelity per input state (exact + sampled)",
    "state-tomo": "tomography of the teleported output states",
    "proc-tomo": "full process tomography of the teleportation channel",
    "calibrate": "fit the tail phase offset's fidelity curve and report its optimum",
    "baseline": "classical measure-and-resend fidelity reference",
}


@dataclass
class ExperimentConfig:
    seed: int = 1234
    shots: int = 1000
    fock_cutoff: int = 4
    phase_offset: float | str = 0.0
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    inputs: tuple[InputStateSpec, ...] | str = "six-canonical"
    output_dir: str = "out"
    mode: str | None = None
    quad_points: int | None = None
    sampling: str = "auto"
    spin_echo: bool = True
    standby_wait_us: float = 1.0
    rephase_wait_us: float = 300.0
    grid: int = 32
    bootstrap_resamples: int = 200
    process_inputs: str = "reconstructed"
    tomography_resolution: int = 24
    exact: bool = False

    def resolved_inputs(self) -> tuple[InputStateSpec, ...]:
        if self.inputs == "six-canonical":
            return canonical_inputs()
        return tuple(self.inputs)

    def sequence_kwargs(self) -> dict:
        return dict(
            spin_echo=self.spin_echo,
            standby_wait_us=self.standby_wait_us,
            rephase_wait_us=self.rephase_wait_us,
        )

    def exact_kwargs(self) -> dict:
        return dict(quad_points=self.quad_points, fock_cutoff=self.fock_cutoff)

    def __post_init__(self):
        read_fields(self)
        if self.exact:
            self.shots = 0
        if self.seed < 0:
            raise ConfigError("seed must be a nonnegative integer")
        if self.shots < 0:
            raise ConfigError("shots must be a nonnegative integer")
        if self.fock_cutoff < 3:
            raise ConfigError("fock_cutoff must be an integer >= 3")
        if isinstance(self.phase_offset, str) and self.phase_offset != "calibrate":
            raise ConfigError('phase_offset must be a number or "calibrate"')
        if self.inputs != "six-canonical" and (isinstance(self.inputs, str) or not self.inputs):
            raise ConfigError('inputs must be "six-canonical" or a non-empty list')
        labels = [s.label for s in self.resolved_inputs()]
        for i, label in enumerate(labels):
            if not label or not all(c.isalnum() or c in "_-" for c in label):
                raise ConfigError(f"inputs[{i}].label must be filename-safe, got {label!r}")
            if label in labels[:i]:
                raise ConfigError(f"input labels must be unique: {label!r} repeats")
        tomo.resolve_sampling(self.noise, self.sampling)
        if self.noise.depolarizing_steps is not None:  # a drive that depolarizes: a carrier or a sideband
            rows = build_sequence(self.resolved_inputs()[0], **self.sequence_kwargs())
            drives = {s.step_id for s in rows if isinstance(
                s.action.pulse if isinstance(s.action, ConditionalPulse) else s.action, (Carrier, BlueSideband))}
            if stray := sorted(set(self.noise.depolarizing_steps) - drives):
                raise ConfigError(f"noise.depolarizing_steps must be step ids of carrier or blue-sideband rows, "
                                  f"not {stray}")
        if self.mode is not None and self.mode not in _MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        if not (self.standby_wait_us >= 0.0 and self.rephase_wait_us >= 0.0):
            raise ConfigError("standby_wait_us and rephase_wait_us must be nonnegative")
        if self.grid < 8:
            raise ConfigError("grid must be >= 8")
        if self.bootstrap_resamples < 0 or self.bootstrap_resamples == 1:
            raise ConfigError("bootstrap_resamples must be 0 or >= 2 (a spread needs two resamples)")
        if self.process_inputs not in ("reconstructed", "ideal"):
            raise ConfigError('process_inputs must be "reconstructed" or "ideal"')
        if self.tomography_resolution < 8:
            raise ConfigError("tomography_resolution must be >= 8")
        if self.quad_points is not None and self.quad_points < 1:
            raise ConfigError("quad_points must be a positive integer")


def config_from_dict(raw: dict) -> ExperimentConfig:
    return read_object(ExperimentConfig, raw)


def load_config(args: argparse.Namespace) -> ExperimentConfig:
    raw: dict = {}
    source = None
    if getattr(args, "preset", None) and getattr(args, "config", None):
        raise ConfigError("--preset and --config are mutually exclusive")
    if getattr(args, "preset", None):
        ref = resources.files("teleion").joinpath(f"presets/{args.preset}.json")
        try:
            text = ref.read_text(encoding="utf-8")
        except FileNotFoundError as exc:
            raise ConfigError(f"unknown preset {args.preset!r}") from exc
        source = f"preset {args.preset}"
        raw = _parse_json(text, source)
    elif getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        source = str(path)
        raw = _parse_json(path.read_text(encoding="utf-8"), source)
    # Flags beat the file; ExperimentConfig then lets exact beat shots.
    flags = {"seed": getattr(args, "seed", None), "shots": getattr(args, "shots", None),
             "output_dir": getattr(args, "out", None), "exact": getattr(args, "exact", False) or None}
    if isinstance(raw, dict):
        raw = {**raw, **{key: value for key, value in flags.items() if value is not None}}
    return config_from_dict(raw)


def _strict_json(text: str, where: str, error: type[Exception]):
    """json.loads refusing NaN and Infinity, which Python's parser accepts, with `error`."""
    def refuse(constant: str):
        raise error(f"{where}: non-finite number {constant}")
    return json.loads(text, parse_constant=refuse)


def _parse_json(text: str, source: str) -> dict:
    try:
        return _strict_json(text, source, ConfigError)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{source}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc


# ---------------------------------------------------------------------------
# Artifact writing (schema-checked, byte-stable)

def _fmt(x) -> str:
    return repr(float(x))


def _emit_csv(path: Path, header: str, rows: list[list[str]]) -> None:
    n_cols = len(header.split(","))
    for row in rows:
        if len(row) != n_cols:
            raise InvariantViolation(f"{path.name}: row width {len(row)} != header {n_cols}")
        if any("," in cell or "\n" in cell for cell in row):
            raise InvariantViolation(f"{path.name}: cell contains a delimiter")
    text = "\n".join([header] + [",".join(r) for r in rows]) + "\n"
    path.write_text(text, encoding="utf-8")


def _emit_json(path: Path, obj_or_text) -> None:
    text = (
        obj_or_text
        if isinstance(obj_or_text, str)
        else json.dumps(obj_or_text, indent=2, sort_keys=True) + "\n"
    )
    _strict_json(text, path.name, InvariantViolation)  # schema gate: strict JSON, no NaN or Infinity
    path.write_text(text, encoding="utf-8")


def _outdir(cfg: ExperimentConfig) -> Path:
    p = Path(cfg.output_dir)
    p.mkdir(parents=True, exist_ok=True)
    return p


def _resolve_phase(cfg: ExperimentConfig, inputs: tuple[InputStateSpec, ...] = ()
                   ) -> tuple[float, dict, ExactPrefix | None]:
    """(tail phase, report keys of its calibration, its exact pass over `inputs` for exact_run to go
    on from): no keys and no pass for a fixed phase. A command hands over its inputs only when the
    exact engine runs on them, so that the calibration evolves nothing it does not use."""
    if cfg.phase_offset == "calibrate":
        res = calibrate_phase(cfg.noise, inputs=inputs, grid=cfg.grid, **cfg.exact_kwargs(), **cfg.sequence_kwargs())
        return res.phi_star, {"calibration_residual": res.residual}, res.prefix
    return float(cfg.phase_offset), {}, None


# ---------------------------------------------------------------------------
# Subcommands

def cmd_teleport(cfg: ExperimentConfig) -> int:
    inputs = cfg.resolved_inputs()
    # The exact engine runs on the inputs whenever a calibration can (it refuses amplitude noise).
    phase, calibration, prefix = _resolve_phase(cfg, inputs)
    out = _outdir(cfg)  # after the phase: a refused calibration leaves no directory
    tables = [(build_sequence(spec, phase, **cfg.sequence_kwargs()),) for spec in inputs]
    runs, counts = tomo.bright_counts(
        tables, cfg.noise, cfg.shots, cfg.seed, sampling=cfg.sampling, tag=_TELE_TAG, prefix=prefix,
        **cfg.exact_kwargs()
    )
    # Counts from trajectories leave the exact fidelities to runs of their own;
    # amplitude noise, which has no exact representation, leaves them empty.
    if runs is None and cfg.noise.amplitude_error_sigma == 0.0:
        runs = exact_run(tables, cfg.noise, prefix=prefix, **cfg.exact_kwargs())

    report_states = []
    for spec, res, k in zip(inputs, runs or [None] * len(inputs), counts):
        f = k / (cfg.shots or 1)
        report_states.append({
            "label": spec.label,
            "f_exact": None if res is None else state_fidelity(res.rho_exp, spec.pure()),
            "f_sampled": f,
            "stderr": math.sqrt(max(f * (1 - f), 0.0) / cfg.shots) if cfg.shots else 0.0,
        })
    rows = [[s["label"], _fmt(spec.theta_chi), _fmt(spec.phi_chi), "" if s["f_exact"] is None else _fmt(s["f_exact"]),
             _fmt(s["f_sampled"]), _fmt(s["stderr"])] for spec, s in zip(inputs, report_states)]

    f_avg_exact = float(np.mean([s["f_exact"] for s in report_states])) if runs else None
    f_avg_sampled = float(np.mean([s["f_sampled"] for s in report_states]))
    avg_stderr = float(
        math.sqrt(sum(s["stderr"] ** 2 for s in report_states)) / len(report_states)
    )
    baseline = classical_baseline()

    _emit_csv(out / "fidelities.csv", "input_label,theta_chi,phi_chi,f_exact,f_sampled,stderr", rows)
    _emit_csv(out / "fidelity_bars.csv", "input_label,f_sampled,stderr", [row[:1] + row[4:] for row in rows])
    _emit_json(
        out / "report.json",
        {
            "command": "teleport",
            "seed": cfg.seed,
            "shots": cfg.shots,
            "phase_offset": phase,
            **calibration,
            "sampling": "exact" if cfg.shots == 0 else tomo.resolve_sampling(cfg.noise, cfg.sampling),
            "states": report_states,
            "f_avg_exact": f_avg_exact,
            "f_avg_sampled": f_avg_sampled,
            "f_avg_stderr": avg_stderr,
            "classical_baseline": baseline,
            "beats_classical_baseline": bool(f_avg_sampled > baseline),
        },
    )
    if f_avg_exact is None:
        print("F_avg (exact)   = n/a (amplitude noise has no exact representation)")
    else:
        print(f"F_avg (exact)   = {f_avg_exact:.4f}")
    print(f"F_avg (sampled) = {f_avg_sampled:.4f} +/- {avg_stderr:.4f}")
    print(
        f"classical baseline = {baseline:.4f}; margin = {f_avg_sampled - baseline:+.4f}"
    )
    return 0


def _output_states(cfg, inputs, name_prefix: str = "") -> tuple[Path, float, list, list[DensityMatrix]]:
    """(output directory, tail phase, every input's teleported count table, its maximum-likelihood
    state), input i sampling on its own child seed; each pair is written as
    counts_<name_prefix><label>.csv and rho_<name_prefix><label>.json. The directory is made after
    the phase is resolved."""
    exact = cfg.shots == 0 or tomo.resolve_sampling(cfg.noise, cfg.sampling) == "fast"
    phase, _, prefix = _resolve_phase(cfg, inputs if exact else ())
    out = _outdir(cfg)
    counts = tomo.teleported_counts(
        inputs,
        cfg.noise,
        cfg.shots,
        master_seed=[_child_seed(cfg.seed, idx) for idx in range(len(inputs))],
        phase_offset=phase,
        sampling=cfg.sampling,
        prefix=prefix,
        **cfg.exact_kwargs(),
        **cfg.sequence_kwargs(),
    )
    states = []
    for spec, table in zip(inputs, counts):
        (out / f"counts_{name_prefix}{spec.label}.csv").write_text(tomo.counts_to_csv(table), encoding="utf-8")
        states.append(tomo.mle_state(table))
        _emit_json(out / f"rho_{name_prefix}{spec.label}.json", tomo.rho_to_json(states[-1]))
    return out, phase, counts, states


def cmd_state_tomo(cfg: ExperimentConfig) -> int:
    inputs = cfg.resolved_inputs()
    out, phase, _, states = _output_states(cfg, inputs)

    bar_rows, report_states = [], []
    for spec, rho in zip(inputs, states):
        bar_rows += [[spec.label, "SD"[r], "SD"[c], _fmt(v.real), _fmt(v.imag)]
                     for (r, c), v in np.ndenumerate(rho.matrix)]
        report_states.append(
            {
                "label": spec.label,
                "fidelity_to_ideal": state_fidelity(rho, spec.pure()),
                "trace_distance_to_ideal": trace_distance(rho, DensityMatrix.from_pure(spec.pure())),
            }
        )

    _emit_csv(out / "rho_bars.csv", "input_label,row,col,re,im", bar_rows)
    f_avg = float(np.mean([s["fidelity_to_ideal"] for s in report_states]))
    _emit_json(
        out / "report.json",
        {
            "command": "state-tomo",
            "seed": cfg.seed,
            "shots_per_basis": cfg.shots,
            "phase_offset": phase,
            "states": report_states,
            "f_avg_from_states": f_avg,
        },
    )
    print(f"reconstructed {len(report_states)} output states; F_avg = {f_avg:.4f}")
    return 0


def cmd_proc_tomo(cfg: ExperimentConfig) -> int:
    inputs = cfg.resolved_inputs()
    ideal_states = [DensityMatrix.from_pure(spec.pure()) for spec in inputs]
    tomo.independent_inputs(ideal_states)  # before any calibration, engine run or file
    out, phase, out_counts, out_states = _output_states(cfg, inputs, "out_")
    in_states = []
    for idx, rho_in in enumerate(ideal_states):
        if cfg.process_inputs == "reconstructed":
            rng = np.random.default_rng([cfg.seed, _INPUT_TAG, idx])
            rho_in = tomo.mle_state(tomo.simulate_state_tomography(rho_in, cfg.shots, rng))
        in_states.append(rho_in)
        _emit_json(out / f"rho_in_{inputs[idx].label}.json", tomo.rho_to_json(rho_in))

    chi, diag = tomo.mle_process(in_states, out_counts, return_diagnostics=True)
    if not diag.converged:
        raise NonConvergence(f"process reconstruction stopped after {diag.iterations} Newton steps "
                             f"without meeting its certified gap bound")

    f_proc = tomo.process_fidelity(chi, tomo.chi_ideal_identity())
    f_avg_chi = tomo.avg_from_process_fidelity(f_proc)
    f_avg_states = float(np.mean([state_fidelity(r, s.pure()) for r, s in zip(out_states, inputs)]))
    amap = tomo.affine_decompose(chi)
    mesh = tomo.ellipsoid_mesh(amap, cfg.tomography_resolution)

    errors: dict = {}
    if cfg.shots > 0 and cfg.bootstrap_resamples > 0:
        resampled, boot_diags = tomo.bootstrap_process(in_states, out_counts, resamples=cfg.bootstrap_resamples,
                                                       seed=_child_seed(cfg.seed, 0xB0), start=chi.chi,
                                                       return_diagnostics=True)
        chi_ii = resampled[:, 0, 0].real
        fps = np.clip(chi_ii, 0.0, 1.0)  # the fidelity with the identity: each fit is CPTP by construction
        amaps = tomo.affine_decompose(resampled)
        angles = np.degrees(amaps.rotation_angle)
        angles = angles[~np.isnan(angles)]  # an improper O (det O < 0) has no rotation angle
        errors = {
            "bootstrap_resamples": cfg.bootstrap_resamples,
            "bootstrap_nonconverged": sum(not d.converged for d in boot_diags),
            "bootstrap_max_gap": max(d.gap for d in boot_diags),
            "chi_II_std": float(np.std(chi_ii, ddof=1)),
            "f_proc_std": float(np.std(fps, ddof=1)),
            "f_avg_std": float(np.std((2.0 * fps + 1.0) / 3.0, ddof=1)),
            "b_std": [float(x) for x in np.std(amaps.b, axis=0, ddof=1)],
            "s_eigenvalues_std": [float(x) for x in np.std(amaps.s_eigenvalues, axis=0, ddof=1)],
            "rotation_angle_deg_std": float(np.std(angles, ddof=1)) if len(angles) > 1 else None,
        }

    _emit_json(out / "chi.json", tomo.chi_to_json(chi))
    chi_rows = [["IXYZ"[m], "IXYZ"[n], _fmt(abs(v)), _fmt(v.real), _fmt(v.imag)]
                for (m, n), v in np.ndenumerate(chi.chi)]
    _emit_csv(out / "chi_bars.csv", "m,n,abs,re,im", chi_rows)
    _emit_json(out / "affine.json", tomo.affine_to_json(amap, extra=errors or None))
    _emit_csv(out / "ellipsoid.csv", "x,y,z", [[_fmt(p[0]), _fmt(p[1]), _fmt(p[2])] for p in mesh])

    angle = amap.rotation_angle
    consistency = abs(f_avg_states - f_avg_chi)
    _emit_json(
        out / "report.json",
        {
            "command": "proc-tomo",
            "seed": cfg.seed,
            "shots_per_basis": cfg.shots,
            "phase_offset": phase,
            "process_inputs": cfg.process_inputs,
            "chi_II": float(chi.chi[0, 0].real),
            "f_proc": f_proc,
            "f_avg_from_chi": f_avg_chi,
            "f_avg_from_states": f_avg_states,
            "f_avg_route_gap": consistency,
            "f_avg_routes_consistent": bool(consistency <= 0.02),
            "s_eigenvalues": [float(x) for x in amap.s_eigenvalues],
            "rotation_angle_deg": None if angle is None else math.degrees(angle),
            "det_O": amap.det_o,
            "b": [float(x) for x in amap.b],
            "errors": errors,
            "mle_iterations": diag.iterations,
            "mle_gap": diag.gap,
        },
    )
    print(f"chi_II = {chi.chi[0, 0].real:.4f}; F_proc = {f_proc:.4f}")
    print(f"F_avg: {f_avg_chi:.4f} (from chi) vs {f_avg_states:.4f} (from states)")
    print("S eigenvalues = " + ", ".join(f"{x:.4f}" for x in amap.s_eigenvalues)
          + (f"; rotation = {math.degrees(angle):.2f} deg" if angle is not None else "; det(O) = -1"))
    return 0


def cmd_calibrate(cfg: ExperimentConfig) -> int:
    res = calibrate_phase(cfg.noise, grid=cfg.grid, **cfg.exact_kwargs(), **cfg.sequence_kwargs())
    out = _outdir(cfg)
    _emit_csv(
        out / "phase_sweep.csv",
        "phi,fidelity",
        [[_fmt(p), _fmt(f)] for p, f in zip(res.grid_phis, res.grid_fidelities)],
    )
    _emit_json(
        out / "report.json",
        {
            "command": "calibrate",
            "seed": cfg.seed,
            "grid": cfg.grid,
            "phi_star": res.phi_star,
            "fidelity_at_phi_star": res.fidelity,
            "calibration_residual": res.residual,
        },
    )
    print(f"phi* = {res.phi_star:.6f} rad; exact fidelity there = {res.fidelity:.6f}")
    return 0


def cmd_baseline(cfg: ExperimentConfig) -> int:
    out = _outdir(cfg)
    per_state = classical_baseline_per_state()
    rows = [
        [spec.label, _fmt(f)] for spec, f in zip(canonical_inputs(), per_state)
    ]
    _emit_csv(out / "baseline.csv", "input_label,fidelity", rows)
    _emit_json(
        out / "report.json",
        {
            "command": "baseline",
            "per_state": {s.label: float(f) for s, f in zip(canonical_inputs(), per_state)},
            "average": classical_baseline(),
        },
    )
    print(f"classical measure-and-resend average fidelity = {classical_baseline():.12f}")
    return 0


def cmd_export_sequence(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    inputs = {s.label: s for s in cfg.resolved_inputs()}
    if args.input not in inputs:
        raise ConfigError(f"unknown input label {args.input!r} (have {sorted(inputs)})")
    spec = inputs[args.input]
    mode = FidelityCheck() if args.row34 == "fidelity" else Tomography(args.row34)
    phase, *_ = _resolve_phase(cfg)
    text = sequence_text(build_sequence(spec, phase, mode, **cfg.sequence_kwargs()))
    sys.stdout.write(text)
    if args.out is not None:
        out = _outdir(cfg)
        (out / "sequence.txt").write_text(text, encoding="utf-8")
    return 0


# ---------------------------------------------------------------------------
# Entry point

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="teleion",
        description="Three-ion deterministic teleportation simulator and tomography toolkit.",
        epilog=_CONFIG_KEY_DOCS,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", metavar="PATH", help="JSON config file")
        p.add_argument("--preset", metavar="NAME", help="packaged config preset (e.g. paper)")
        p.add_argument("--seed", type=int, help="master seed override")
        p.add_argument("--shots", type=int, help="shots override")
        p.add_argument("--out", metavar="DIR", help="output directory override")
        p.add_argument(
            "--exact", action="store_true", help="infinite-statistics mode (no sampling)"
        )

    for name, helptext in _MODES.items():
        common(sub.add_parser(name, help=helptext))

    exp = sub.add_parser("export-sequence", help="print the 35-row pulse table")
    common(exp)
    exp.add_argument("--input", default="psi6", help="input-state label (default psi6)")
    exp.add_argument(
        "--row34",
        choices=("fidelity", *ANALYSIS_PULSES),
        default="fidelity",
        help="row-34 variant: fidelity check or analysis basis",
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args)
        if args.command == "export-sequence":  # a table, whatever command the config was written for
            return cmd_export_sequence(cfg, args)
        if cfg.mode is not None and cfg.mode != args.command:
            raise ConfigError(f"config mode {cfg.mode!r} does not match subcommand {args.command!r}")
        return globals()["cmd_" + args.command.replace("-", "_")](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (InvariantViolation, DimensionMismatch) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    except NonConvergence as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
