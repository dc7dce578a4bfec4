"""The benchmark's workloads: seeded configs and the checks on their outputs.

Each workload is one CLI command on one generated config. The seed only sets
the config's master seed, so the exact-engine work is the same for every
seed and only the sampled data (and the iterations fitting it) change.

Sizes are cut from the paper preset so that one job takes a few seconds on
a 2-vCPU machine and several jobs fit in one timed run; see README.md.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

# The paper preset's physics (src/teleion/presets/paper.json), copied so that
# an edit to the preset does not silently change the benchmark.
PAPER = {
    "shots": 10_000,
    "inputs": "six-canonical",
    "phase_offset": 0.0,
    "noise": {"detuning_sigma_SD": 0.0015, "depolarizing_per_pulse": 0.025},
    "spin_echo": True,
    "standby_wait_us": 1.0,
    "rephase_wait_us": 300.0,
}

# Exact-engine values may drift by reordered float arithmetic, not more.
EXACT_ATOL = 1e-6
# The calibration's own golden-section tolerance, in radians.
PHASE_ATOL = 1e-3
# Sampled values must lie within this many standard errors of the reference.
SAMPLED_Z = 5.0


class Workload:
    name: str
    why: str
    command: str
    overrides: dict      # config keys on top of PAPER
    tiny: dict           # overrides for the quick self-check

    def config(self, seed: int, tiny: bool = False) -> dict:
        cfg = json.loads(json.dumps(PAPER))
        for key, value in {**self.overrides, **(self.tiny if tiny else {})}.items():
            if key == "noise":
                cfg["noise"].update(value)
            else:
                cfg[key] = value
        cfg["mode"] = self.command
        cfg["seed"] = int(seed)
        return cfg

    def check(self, out: Path, reference: dict) -> list[str]:
        """Failure messages for one job's artefacts; empty when all checks pass."""
        raise NotImplementedError


class PaperProcTomo(Workload):
    name = "paper-proc-tomo"
    why = ("process tomography at paper noise: exact engine (fast sampling) plus "
           "the process MLE and its bootstrap; no trajectories")
    command = "proc-tomo"
    overrides = {"sampling": "fast", "quad_points": 3, "bootstrap_resamples": 16}
    tiny = {"shots": 200, "quad_points": 1, "bootstrap_resamples": 2}

    def check(self, out, reference):
        report = _report(out)
        fails = _bracket(report, "f_avg_from_chi", 0.75, 0.90)
        fails += _bracket(report, "chi_II", 0.6, 0.85)
        if report.get("f_avg_routes_consistent") is not True:
            fails.append("f_avg_routes_consistent is not true")
        errors = report.get("errors") or {}
        fails += _within_z(report["chi_II"], reference["chi_II"], errors.get("chi_II_std"), "chi_II")
        fails += _within_z(
            report["f_avg_from_chi"], reference["f_avg_from_chi"], errors.get("f_avg_std"),
            "f_avg_from_chi",
        )
        fails += _counts_match(out, "counts_out_", reference["bright_p"], reference.get("bright_se"))
        return fails


class PershotStateTomo(Workload):
    name = "pershot-state-tomo"
    why = ("state tomography with amplitude noise, the only CLI route to the "
           "per-shot trajectory engine; no exact engine, no process fit")
    command = "state-tomo"
    overrides = {"shots": 32, "noise": {"amplitude_error_sigma": 0.01}}
    tiny = {"shots": 2}

    def check(self, out, reference):
        return _counts_match(out, "counts_", reference["bright_p"], reference["bright_se"])


class CalibratedTeleport(Workload):
    name = "calibrated-teleport"
    why = ("teleport with phase calibration: the exact engine through calibration "
           "and full runs; no tomography, no trajectories")
    command = "teleport"
    overrides = {"phase_offset": "calibrate", "sampling": "fast", "quad_points": 3}
    tiny = {"quad_points": 1, "grid": 8, "shots": 100}

    def check(self, out, reference):
        report = _report(out)
        fails = _bracket(report, "f_avg_sampled", 0.75, 0.90)
        if report.get("beats_classical_baseline") is not True:
            fails.append("beats_classical_baseline is not true")
        if abs(report["phase_offset"] - reference["phase_offset"]) > PHASE_ATOL:
            fails.append(f"phase_offset {report['phase_offset']} vs {reference['phase_offset']}")
        if abs(report["f_avg_exact"] - reference["f_avg_exact"]) > EXACT_ATOL:
            fails.append(f"f_avg_exact {report['f_avg_exact']} vs {reference['f_avg_exact']}")
        shots = report["shots"]
        for state in report["states"]:
            label = state["label"]
            if abs(state["f_exact"] - reference["f_exact"][label]) > EXACT_ATOL:
                fails.append(f"{label} f_exact {state['f_exact']} vs {reference['f_exact'][label]}")
            p = reference["bright_p"][label]
            fails += _within_z(
                state["f_sampled"], p, math.sqrt(p * (1 - p) / shots), f"{label} f_sampled"
            )
        return fails


WORKLOADS = {w.name: w for w in (PaperProcTomo(), PershotStateTomo(), CalibratedTeleport())}


def gh_nodes(config: dict) -> int:
    """Gauss-Hermite nodes per exact run, as docs/config.md documents them."""
    noise = config.get("noise", {})
    if not noise.get("detuning_sigma_SD", 0.0):
        return 1
    correlated = noise.get("correlated_dephasing", True)
    points = config.get("quad_points") or (21 if correlated else 9)
    return points if correlated else points ** 3


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def digest(out: Path) -> str:
    """SHA-256 over every artefact's relative path and bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def bright_fractions(out: Path, prefix: str) -> dict[str, dict[str, tuple[float, float]]]:
    """{label: {basis: (bright count, basis total)}} from counts CSVs."""
    tables = {}
    for path in sorted(out.glob(f"{prefix}*.csv")):
        label = path.stem[len(prefix):]
        rows = list(csv.DictReader(path.read_text(encoding="utf-8").splitlines()))
        totals: dict[str, float] = {}
        bright: dict[str, float] = {}
        for row in rows:
            totals[row["basis"]] = totals.get(row["basis"], 0.0) + float(row["count"])
            if row["outcome"] == "Bright":
                bright[row["basis"]] = float(row["count"])
        tables[label] = {b: (bright[b], totals[b]) for b in totals}
    return tables


def _report(out: Path) -> dict:
    return json.loads((out / "report.json").read_text(encoding="utf-8"))


def _bracket(report: dict, key: str, lo: float, hi: float) -> list[str]:
    value = report.get(key)
    if not isinstance(value, (int, float)) or not lo <= value <= hi:
        return [f"{key} = {value} outside [{lo}, {hi}]"]
    return []


def _within_z(value: float, ref: float, se: float | None, what: str) -> list[str]:
    if se is None or not se > 0:
        return [f"{what}: no standard error to compare with"]
    z = (value - ref) / se
    return [] if abs(z) <= SAMPLED_Z else [f"{what} = {value} is {z:+.1f} SE from {ref}"]


def _counts_match(out: Path, prefix: str, ref_p: dict, ref_se: dict | None) -> list[str]:
    tables = bright_fractions(out, prefix)
    if sorted(tables) != sorted(ref_p):
        return [f"{prefix}*.csv labels {sorted(tables)} vs reference {sorted(ref_p)}"]
    fails = []
    for label, bases in tables.items():
        for basis, (k, n) in bases.items():
            p = ref_p[label][basis]
            se_ref = ref_se[label][basis] if ref_se else 0.0
            se = math.sqrt(max(p * (1 - p), 1e-12) / n + se_ref ** 2)
            fails += _within_z(k / n, p, se, f"{label} {basis} bright fraction")
    return fails
