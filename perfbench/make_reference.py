"""Record the reference values that the benchmark's output checks compare with.

    python3 perfbench/make_reference.py

Run it only when the physics is meant to change; it rewrites reference.json
from the checkout's own `teleion`. Exact-engine values come from
infinite-statistics runs of each workload's config. The per-shot engine has
no exact counterpart under amplitude noise, so its reference is a long
per-shot run (REFERENCE_SHOTS per basis) with its own standard errors.
"""
from __future__ import annotations

import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parents[1]
REFERENCE_SEED = 20070704
REFERENCE_SHOTS = 2000


def run_cli(workload: workloads.Workload, tmp: Path, extra: list[str], **overrides) -> Path:
    from teleion.cli import main

    cfg = workload.config(REFERENCE_SEED)
    cfg.update(overrides)
    path = tmp / f"{workload.name}.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp / workload.name
    code = main([workload.command, "--config", str(path), "--out", str(out), *extra])
    if code != 0:
        raise SystemExit(f"{workload.name}: CLI exited {code}")
    return out


def bright_p(out: Path, prefix: str) -> dict:
    return {
        label: {b: k / n for b, (k, n) in bases.items()}
        for label, bases in workloads.bright_fractions(out, prefix).items()
    }


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    W = workloads.WORKLOADS
    with tempfile.TemporaryDirectory(dir=workloads.HERE) as tmp_name:
        tmp = Path(tmp_name)
        proc = run_cli(W["paper-proc-tomo"], tmp, ["--exact"])
        proc_report = json.loads((proc / "report.json").read_text())
        proc_p = bright_p(proc, "counts_out_")
        tele = run_cli(W["calibrated-teleport"], tmp, [], shots=0)
        tele_report = json.loads((tele / "report.json").read_text())
        state = run_cli(W["pershot-state-tomo"], tmp, [], shots=REFERENCE_SHOTS)
        state_p = bright_p(state, "counts_")

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    reference = {
        "recorded_at_commit": sha,
        "paper-proc-tomo": {
            "source": "proc-tomo --exact on the workload config",
            "bright_p": proc_p,
            "chi_II": proc_report["chi_II"],
            "f_avg_from_chi": proc_report["f_avg_from_chi"],
        },
        "pershot-state-tomo": {
            "source": f"state-tomo at {REFERENCE_SHOTS} shots per basis, seed {REFERENCE_SEED}",
            "bright_p": state_p,
            "bright_se": {
                label: {b: math.sqrt(p * (1 - p) / REFERENCE_SHOTS) for b, p in bases.items()}
                for label, bases in state_p.items()
            },
        },
        "calibrated-teleport": {
            "source": "teleport with shots 0 on the workload config",
            "phase_offset": tele_report["phase_offset"],
            "f_avg_exact": tele_report["f_avg_exact"],
            "f_exact": {s["label"]: s["f_exact"] for s in tele_report["states"]},
            "bright_p": {s["label"]: s["f_sampled"] for s in tele_report["states"]},
        },
    }
    workloads.REFERENCE_PATH.write_text(
        json.dumps(reference, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {workloads.REFERENCE_PATH}")


if __name__ == "__main__":
    main()
