"""One SHA-256 per CLI run of a fixed matrix, to check that a change leaves every artefact byte-identical.

    python3 tools/artifact_digests.py [--root CHECKOUT] [--only NAME ...] [--list]

Each run is one teleion command on one config, in a fresh process with
PYTHONPATH=CHECKOUT/src, BLAS on one thread, no bytecode written and a fresh
working directory. Its digest covers the exit code, stdout, stderr and every
file the run wrote under --out, by relative path and bytes. The output is one
`digest  name` line per run, so two checkouts compare with diff:

    python3 tools/artifact_digests.py --root ../parent > parent.txt
    python3 tools/artifact_digests.py > change.txt
    diff parent.txt change.txt

The configs come from this checkout's perfbench/workloads.py whatever --root
is, so both sides run the same matrix.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS, digest as files_digest  # noqa: E402

COMMANDS = ("teleport", "state-tomo", "proc-tomo", "calibrate")


def _variant(config: dict, noise: dict | None = None, **keys) -> dict:
    config = {**json.loads(json.dumps(config)), **keys}
    config["noise"] = {**config["noise"], **(noise or {})}
    return config


def matrix() -> dict[str, tuple[list[str], dict | None]]:
    """{run name: (CLI arguments, config or None)}, in a fixed order."""
    configs = {name: {k: v for k, v in w.config(1).items() if k != "mode"} for name, w in WORKLOADS.items()}
    base = configs["paper-proc-tomo"]
    configs |= {
        "detection-error": _variant(base, {"detection_error": 0.02}),
        "uncorrelated": _variant(base, {"correlated_dephasing": False}),
        "no-echo": _variant(base, spin_echo=False),
        "depolarizing-steps": _variant(base, {"depolarizing_steps": [4, 9, 12, 31, 34]}),
        "calibrated-noisy": _variant(base, {"detection_error": 0.02, "detuning_bias_SD": 0.001},
                                     phase_offset="calibrate"),
        "exact": _variant(base, shots=0),
        # Each branch of a calibration that shares its exact pass with the command, or does not.
        "calibrated-custom": _variant(base, phase_offset="calibrate", inputs=[
            {"theta_chi": 1.1, "phi_chi": 0.3, "label": "a"}, {"theta_chi": 2.0, "phi_chi": 4.0, "label": "b"}]),
        "calibrated-per-shot": _variant(base, phase_offset="calibrate", sampling="per-shot", shots=32),
        "calibrated-exact": _variant(base, phase_offset="calibrate", shots=0),
        "calibrated-uncorrelated": _variant(base, {"correlated_dephasing": False}, phase_offset="calibrate"),
    }
    runs = {f"{name}/{command}": ([command], config) for name, config in configs.items() for command in COMMANDS}
    runs |= {f"{name}@29/{w.command}": ([w.command], w.config(29)) for name, w in WORKLOADS.items()}
    runs |= {f"paper/{command}": ([command, "--preset", "paper"], None) for command in (*COMMANDS, "baseline")}
    runs |= {f"paper/export-sequence-{row34}": (["export-sequence", "--preset", "paper", "--row34", row34], None)
             for row34 in ("fidelity", "z", "x", "y")}
    return runs


def digest(root: Path, args: list[str], config: dict | None) -> str:
    """SHA-256 of one run of `python -m teleion.cli ARGS` on `root`'s sources."""
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1", "PYTHONHASHSEED": "0"}
    env |= dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        if config is not None:
            (work / "config.json").write_text(json.dumps(config, indent=2), encoding="utf-8")
            args = [*args, "--config", "config.json"]
        done = subprocess.run([sys.executable, "-m", "teleion.cli", *args, "--out", "out"],
                              cwd=work, env=env, capture_output=True)
        run = f"exit {done.returncode}\0".encode() + done.stdout + b"\0" + done.stderr + b"\0"
        return hashlib.sha256(run + files_digest(work / "out").encode()).hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=ROOT, help="checkout whose src/ is run (default: this one)")
    parser.add_argument("--only", nargs="+", metavar="NAME", help="run only these names")
    parser.add_argument("--list", action="store_true", help="print the run names and exit")
    args = parser.parse_args(argv)
    runs = matrix()
    if unknown := sorted(set(args.only or ()) - set(runs)):
        parser.error(f"unknown runs: {unknown}")
    for name, (cli_args, config) in runs.items():
        if args.only is None or name in args.only:
            print(name if args.list else f"{digest(args.root.resolve(), cli_args, config)}  {name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
