"""One SHA-256 per CLI run of a fixed matrix, to check that a change leaves every artefact byte-identical.

    python3 tools/artifact_digests.py [--root CHECKOUT] [--only NAME ...] [--list] [--numbers PARENT]

Each run is one teleion command on one config, in a fresh process with
PYTHONPATH=CHECKOUT/src, BLAS on one thread, no bytecode written and a fresh
working directory. Its digest covers the exit code, stdout, stderr and every
file the run wrote under --out, by relative path and bytes. The output is one
`digest  name` line per run, so two checkouts compare with diff:

    python3 tools/artifact_digests.py --root ../parent > parent.txt
    python3 tools/artifact_digests.py > change.txt
    diff parent.txt change.txt

With --numbers PARENT, each run is made on PARENT and on --root instead, and
the output says by how much the two differ: `name  identical`, or one line
per output that differs (`<exit>`, `<stdout>`, `<stderr>` or a file under
--out) with the largest absolute difference of its numbers, or the first
line whose text differs beyond its numbers:

    python3 tools/artifact_digests.py --numbers ../parent --only calibrated-teleport/teleport

The configs come from this checkout's perfbench/workloads.py whatever --root
is, so both sides run the same matrix.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
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


def run(root: Path, args: list[str], config: dict | None, work: Path) -> subprocess.CompletedProcess:
    """One run of `python -m teleion.cli ARGS` on `root`'s sources, in the empty directory `work`."""
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1", "PYTHONHASHSEED": "0"}
    env |= dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")
    if config is not None:
        (work / "config.json").write_text(json.dumps(config, indent=2), encoding="utf-8")
        args = [*args, "--config", "config.json"]
    return subprocess.run([sys.executable, "-m", "teleion.cli", *args, "--out", "out"],
                          cwd=work, env=env, capture_output=True)


def digest(root: Path, args: list[str], config: dict | None) -> str:
    """SHA-256 of one run on `root`'s sources: its exit code, stdout, stderr and files."""
    with tempfile.TemporaryDirectory() as tmp:
        done = run(root, args, config, Path(tmp))
        head = f"exit {done.returncode}\0".encode() + done.stdout + b"\0" + done.stderr + b"\0"
        return hashlib.sha256(head + files_digest(Path(tmp) / "out").encode()).hexdigest()


def outputs(root: Path, args: list[str], config: dict | None) -> dict[str, bytes]:
    """{output: bytes} of one run on `root`'s sources: `<exit>`, `<stdout>`, `<stderr>` and each file under --out."""
    with tempfile.TemporaryDirectory() as tmp:
        done, out = run(root, args, config, Path(tmp)), Path(tmp) / "out"
        files = {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
    return {"<exit>": str(done.returncode).encode(), "<stdout>": done.stdout, "<stderr>": done.stderr, **files}


_NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def differences(parent: dict[str, bytes], change: dict[str, bytes]) -> dict[str, str]:
    """{output: how it differs} for each output of two runs that is not byte-identical.

    Outputs whose text matches once each number is taken out give the largest
    absolute difference of their numbers, in order; any other gives the first
    line that differs, or says which run lacks it.
    """
    found = {}
    for name in sorted(parent.keys() | change.keys()):
        a, b = parent.get(name), change.get(name)
        if a == b:
            continue
        if a is None or b is None:
            found[name] = f"only in the {'parent' if b is None else 'change'}"
        elif _NUMBER.split(a) == _NUMBER.split(b):
            found[name] = "max |diff| %.3g" % max(
                abs(float(x) - float(y)) for x, y in zip(_NUMBER.findall(a), _NUMBER.findall(b)))
        else:
            x, y = next((x, y) for x, y in zip([*a.splitlines(), b""], [*b.splitlines(), b""])
                        if _NUMBER.split(x) != _NUMBER.split(y))
            found[name] = f"text differs: {x.decode(errors='replace')!r} -> {y.decode(errors='replace')!r}"
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=ROOT, help="checkout whose src/ is run (default: this one)")
    parser.add_argument("--only", nargs="+", metavar="NAME", help="run only these names")
    parser.add_argument("--list", action="store_true", help="print the run names and exit")
    parser.add_argument("--numbers", type=Path, metavar="PARENT",
                        help="run each run on PARENT and on --root, and print how their outputs differ")
    args = parser.parse_args(argv)
    runs = matrix()
    if unknown := sorted(set(args.only or ()) - set(runs)):
        parser.error(f"unknown runs: {unknown}")
    for name, (cli_args, config) in runs.items():
        if args.only is not None and name not in args.only:
            continue
        if args.list:
            print(name, flush=True)
        elif args.numbers is not None:
            found = differences(*(outputs(root.resolve(), cli_args, config) for root in (args.numbers, args.root)))
            lines = [f"{name}  {output}  {how}" for output, how in found.items()] or [f"{name}  identical"]
            print("\n".join(lines), flush=True)
        else:
            print(f"{digest(args.root.resolve(), cli_args, config)}  {name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
