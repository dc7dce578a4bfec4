"""teleion benchmark: one CLI workload, timed end to end or traced by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

A run writes the workload's config from the seed, then runs jobs back to back
(a closed loop with one caller) for about S seconds. Each job is a fresh
process running one CLI command through job.py, as a user runs the CLI. After
every job the artefacts are checked (workloads.py) and their digest compared
with the run's first job: every job in a run repeats the same seed.

--trace 0 reports the end-to-end metrics as medians over the run's jobs.
--trace 1 alternates untraced and traced jobs and reports the per-layer
metrics from the traced ones (spans.py); the traced artefacts must be
byte-identical to the untraced ones.

The last line of standard output is the result as one JSON object; the
lines before it give every metric with its unit, quartiles and sample count,
the error rate, any failed checks, and the run's metadata.
"""
from __future__ import annotations

import os

# BLAS threading changes both speed and spread, so every job of every run
# uses the same, recorded setting. Set before numpy is imported anywhere.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"

HARD_LIMIT_S = 170.0     # a run must end within 180 s
MIN_JOBS = 3             # untraced jobs per timed run, for a median
SETUP_PROBES = 8         # extra set-up-only processes per timed run

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "protocol.exact_run.calls": "count",
    "protocol.exact_run.self_s": "s",
    "protocol.exact_run.ms_p50": "ms",
    "protocol.exact_run.evolutions": "count",
    "noise.depolarize_density_tensor.calls": "count",
    "noise.depolarize_density_tensor.self_s": "s",
    "protocol.calibrate_phase.self_s": "s",
    "protocol.run_shot.calls": "count",
    "protocol.run_shot.self_s": "s",
    "protocol.run_shot.shots_per_s": "1/s",
    "trap.apply_pulse.calls": "count",
    "trap.apply_pulse.self_s": "s",
    "trap.fluorescence_measure.calls": "count",
    "trap.fluorescence_measure.self_s": "s",
    "tomography.mle_process.calls": "count",
    "tomography.mle_process.self_s": "s",
    "tomography.mle_process.iterations_p50": "count",
    "tomography.mle_process.converged_ratio": "ratio",
    "tomography.bootstrap_process.self_s": "s",
    "tomography.bootstrap_process.resamples_per_s": "1/s",
    "tomography.mle_state.calls": "count",
    "tomography.mle_state.self_s": "s",
    "tomography.mle_state.iterations_p50": "count",
    "tomography.mle_state.converged_ratio": "ratio",
    "tomography.teleported_counts.self_s": "s",
    "tomography.affine_decompose.self_s": "s",
    "cli.load_config.s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


class Run:
    """One benchmark run: a generated config, a work directory and its jobs."""

    def __init__(self, workload: workloads.Workload, seed: int, tiny: bool = False):
        self.workload = workload
        self.config = workload.config(seed, tiny)
        self.dir = WORK / f"{workload.name}-{seed}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config_path = self.dir / "config.json"
        self.config_path.write_text(json.dumps(self.config, indent=1), encoding="utf-8")
        self.reference = None if tiny else workloads.load_reference()[workload.name]
        self.started = time.perf_counter()
        self.count = 0
        self.longest = 0.0
        self.first_digest: str | None = None
        self.failures: list[str] = []
        self.failed_jobs = 0     # failed CLI jobs; a failed set-up probe fails the run

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def job(self, *, setup_only: bool = False, traced: bool = False) -> dict | None:
        """Run one job; None if it failed, else its measurements."""
        k, self.count = self.count, self.count + 1
        result_path, out = self.dir / f"job{k}.json", self.dir / f"out{k}"
        cmd = [sys.executable, str(HERE / "job.py"), str(result_path)]
        if setup_only:
            cmd.append("--setup-only")
        if traced:
            cmd += ["--spans", str(self.dir / f"spans{k}.json")]
        cmd += ["--", self.workload.command, "--config", str(self.config_path), "--out", str(out)]

        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, capture_output=True, text=True,
                timeout=max(5.0, HARD_LIMIT_S - self.elapsed()),
            )
        except subprocess.TimeoutExpired:
            return self._fail(k, setup_only, "timed out")
        if not setup_only:
            self.longest = max(self.longest, time.perf_counter() - t0)
        if proc.returncode != 0 or not result_path.exists():
            return self._fail(k, setup_only, f"exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
        if setup_only:
            return result
        if result["exit_code"] != 0:
            return self._fail(k, False, f"CLI exited {result['exit_code']}: {proc.stderr.strip()[-500:]}")

        problems = []
        if self.reference is not None:
            try:
                problems = self.workload.check(out, self.reference)
            except (OSError, KeyError, TypeError, ValueError) as exc:
                problems = [f"output check raised {exc!r}"]
        digest = workloads.digest(out)
        if self.first_digest is None:
            self.first_digest = digest
        elif digest != self.first_digest:
            problems.append("artefacts differ from the run's first job (same seed)")
        if problems:
            return self._fail(k, False, "; ".join(problems))
        if traced:
            result["spans"] = json.loads((self.dir / f"spans{k}.json").read_text(encoding="utf-8"))
        return result

    def _fail(self, k: int, setup_only: bool, message: str) -> None:
        self.failures.append(f"{'set-up probe' if setup_only else 'job'} {k}: {message}")
        self.failed_jobs += not setup_only
        return None

    def room_for(self, seconds: float, done: int, minimum: int, per_step: float) -> bool:
        """Whether to start another step of `per_step` seconds in a `seconds` run."""
        projected = self.elapsed() + per_step
        if done and projected > HARD_LIMIT_S:
            return False
        return done < minimum or projected <= seconds

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# Metrics

def summary(values: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def end_to_end(jobs: list[dict], setups: list[float]) -> dict[str, list[float]]:
    samples = {name: [j[name] for j in jobs] for name in ("wall_s", "cpu_s", "peak_rss_mb")}
    samples["setup_s"] = setups + [j["setup_s"] for j in jobs]
    return samples


def layer_metrics(span_list: list[list], nodes: int) -> dict[str, float]:
    """Per-layer metrics of one traced job."""
    selfs = spans.self_times(span_list)
    by: dict[str, dict] = {}
    for (name, start, end, parent, extra), own in zip(span_list, selfs):
        s = by.setdefault(name, {"calls": 0, "self": 0.0, "durations": [], "diags": []})
        s["calls"] += 1
        s["self"] += own
        s["durations"].append(end - start)
        if extra is not None:
            s["diags"].append(extra)
    empty = {"calls": 0, "self": 0.0, "durations": [], "diags": []}

    def get(name: str) -> dict:
        return by.get(name, empty)

    def rate(count: int, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    m: dict[str, float] = {}
    exact = get("protocol.exact_run")
    m["protocol.exact_run.calls"] = exact["calls"]
    m["protocol.exact_run.self_s"] = exact["self"]
    m["protocol.exact_run.ms_p50"] = (
        1000.0 * statistics.median(exact["durations"]) if exact["durations"] else 0.0
    )
    m["protocol.exact_run.evolutions"] = exact["calls"] * nodes
    for name in ("noise.depolarize_density_tensor", "protocol.run_shot", "trap.apply_pulse",
                 "trap.fluorescence_measure", "tomography.mle_process", "tomography.mle_state"):
        m[f"{name}.calls"] = get(name)["calls"]
        m[f"{name}.self_s"] = get(name)["self"]
    for name in ("protocol.calibrate_phase", "tomography.bootstrap_process",
                 "tomography.teleported_counts", "tomography.affine_decompose"):
        m[f"{name}.self_s"] = get(name)["self"]
    shots = get("protocol.run_shot")
    m["protocol.run_shot.shots_per_s"] = rate(shots["calls"], sum(shots["durations"]))
    for name in ("tomography.mle_process", "tomography.mle_state"):
        diags = get(name)["diags"]
        m[f"{name}.iterations_p50"] = statistics.median(d[0] for d in diags) if diags else 0
        m[f"{name}.converged_ratio"] = sum(d[1] for d in diags) / len(diags) if diags else 0.0
    boot_ids = {i for i, s in enumerate(span_list) if s[0] == "tomography.bootstrap_process"}
    resamples = sum(1 for s in span_list if s[0] == "tomography.mle_process" and s[3] in boot_ids)
    m["tomography.bootstrap_process.resamples_per_s"] = rate(
        resamples, sum(get("tomography.bootstrap_process")["durations"])
    )
    m["cli.load_config.s"] = sum(get("cli.load_config")["durations"])
    m["cli.self_s"] = get(spans.ROOT_SPAN)["self"]
    return m


def accounting(span_list: list[list]) -> tuple[dict[str, float], float]:
    """(self time summed by layer module, duration of the root spans)."""
    by_layer: dict[str, float] = {}
    for (name, *_), own in zip(span_list, spans.self_times(span_list)):
        layer = name.split(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + own
    roots = sum(end - start for _, start, end, parent, _ in span_list if parent < 0)
    return by_layer, roots


# ---------------------------------------------------------------------------
# Run metadata

def blas_info() -> dict:
    """BLAS library, version and the thread count it actually uses."""
    import numpy

    info: dict = {"threads_env": BLAS_THREADS, "library": None, "version": None, "threads": None}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"], info["version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        pass
    try:
        maps = Path("/proc/self/maps").read_text(encoding="utf-8").splitlines()
    except OSError:
        return info
    loaded = sorted({line.split()[-1] for line in maps if "openblas" in line.split()[-1]})
    for lib in loaded:
        try:
            cdll = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(cdll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def metadata(seed: int) -> dict:
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None  # the benchmark may run from an exported tree
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in (ROOT / "src").rglob("*.py")
    )
    return {
        "seed": seed,
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_info(),
        "src_lines": src_lines,
    }


# ---------------------------------------------------------------------------
# Timed runs

def timed_run(run: Run, seconds: float) -> tuple[dict, int, list[str]]:
    run.job(setup_only=True)  # compiles bytecode and warms the file cache; not counted
    setups = [r["setup_s"] for r in (run.job(setup_only=True) for _ in range(SETUP_PROBES)) if r]
    jobs, attempted = [], 0
    while run.room_for(seconds, attempted, MIN_JOBS, run.longest):
        attempted += 1
        result = run.job()
        if result is not None:
            jobs.append(result)
    samples = end_to_end(jobs, setups) if jobs else {}
    lines = []
    for name, unit in END_TO_END.items():
        values = samples.get(name)
        if values:
            med, q1, q3 = summary(values)
            lines.append(f"{name}: {med:.6g} {unit} (q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})")
    metrics = {name: summary(v)[0] for name, v in samples.items()}
    return {n: {"value": metrics[n], "unit": u} for n, u in END_TO_END.items() if n in metrics}, \
        attempted, lines


def traced_run(run: Run, seconds: float) -> tuple[dict, int, list[str]]:
    run.job(setup_only=True)
    nodes = workloads.gh_nodes(run.config)
    plain, traced, per_job, attempted = [], [], [], 0
    while run.room_for(seconds, attempted // 2, 1, 2 * run.longest):
        attempted += 2
        a, b = run.job(), run.job(traced=True)
        if a is not None:
            plain.append(a["wall_s"])
        if b is not None:
            traced.append(b["wall_s"])
            per_job.append(layer_metrics(b["spans"], nodes))
            last = b
    lines = []
    if not per_job:
        return {}, attempted, lines
    metrics = {name: statistics.median(m[name] for m in per_job) for name in per_job[0]}
    if plain:
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    for name, unit in PER_LAYER.items():
        if name in metrics:
            lines.append(f"{name}: {metrics[name]:.6g} {unit} (n={len(per_job)})")
    by_layer, root = accounting(last["spans"])
    lines.append(
        "self time by layer, last traced job: "
        + ", ".join(f"{layer} {t:.4g} s" for layer, t in sorted(by_layer.items()))
        + f"; sum {sum(by_layer.values()):.4g} s = cli.main span {root:.4g} s"
        + f"; traced wall_s {last['wall_s']:.4g} s"
    )
    return {n: {"value": metrics[n], "unit": u} for n, u in PER_LAYER.items() if n in metrics}, \
        attempted, lines


def benchmark(args: argparse.Namespace) -> int:
    workload = workloads.WORKLOADS[args.workload]
    run = Run(workload, args.seed)
    try:
        if args.trace:
            metrics, attempted, lines = traced_run(run, args.seconds)
            expected = PER_LAYER
        else:
            metrics, attempted, lines = timed_run(run, args.seconds)
            expected = END_TO_END
    finally:
        run.close()
    failed = run.failed_jobs
    for line in lines:
        print(line)
    print(f"error_rate: {failed}/{attempted} = {failed / max(attempted, 1):.6g} ratio")
    for failure in run.failures:
        print(f"FAILED {failure}")
    print("meta: " + json.dumps(metadata(args.seed), sort_keys=True))
    complete = set(metrics) == set(expected)
    print(json.dumps({
        "correct": not run.failures and complete,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


# ---------------------------------------------------------------------------
# Self-check

def self_check() -> int:
    """Runs each workload at a tiny size, traced and untraced, and checks that
    every metric BENCHMARK.json names is emitted with its unit, that traced
    artefacts equal untraced ones, that the layers' self times add up to the
    traced wall time, and that each workload reaches the layers it is meant to."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []

    def expect(ok: bool, what: str) -> None:
        print(("PASS " if ok else "FAIL ") + what)
        if not ok:
            problems.append(what)

    expect({w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS),
           "BENCHMARK.json workloads match workloads.py")
    expect({m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END,
           "BENCHMARK.json end_to_end metrics and units match run.py")
    expect({m["name"]: m["unit"] for m in bench["per_layer"]} == PER_LAYER,
           "BENCHMARK.json per_layer metrics and units match run.py")
    expect(sorted(workloads.load_reference()) ==
           sorted([*workloads.WORKLOADS, "recorded_at_commit"]),
           "reference.json covers every workload")

    exercised = {  # layer calls that must be > 0 (True) or == 0 (False)
        "paper-proc-tomo": {"protocol.exact_run.calls": True, "tomography.mle_process.calls": True,
                            "protocol.run_shot.calls": False},
        "pershot-state-tomo": {"protocol.run_shot.calls": True, "trap.apply_pulse.calls": True,
                               "protocol.exact_run.calls": False,
                               "tomography.mle_process.calls": False},
        "calibrated-teleport": {"protocol.exact_run.calls": True,
                                "protocol.calibrate_phase.self_s": True,
                                "tomography.mle_state.calls": False,
                                "protocol.run_shot.calls": False},
    }
    for name, workload in workloads.WORKLOADS.items():
        run = Run(workload, seed=1, tiny=True)
        try:
            setup = run.job(setup_only=True)
            plain, traced = run.job(), run.job(traced=True)
            expect(not run.failures, f"{name}: tiny jobs ran, artefacts identical traced/untraced"
                   + "".join(f"\n    {f}" for f in run.failures))
            if plain is None or traced is None or setup is None:
                continue
            e2e = {k: summary(v)[0] for k, v in end_to_end([plain], [setup["setup_s"]]).items()}
            expect(set(e2e) == set(END_TO_END) and all(v > 0 for v in e2e.values()),
                   f"{name}: end-to-end metrics emitted and positive {e2e}")
            layers = layer_metrics(traced["spans"], workloads.gh_nodes(run.config))
            layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
            expect(set(layers) == set(PER_LAYER), f"{name}: every per-layer metric emitted")
            by_layer, root = accounting(traced["spans"])
            total_self = sum(by_layer.values())
            expect(abs(total_self - root) <= 1e-6 * root and root <= traced["wall_s"],
                   f"{name}: self times sum to the traced main span ({total_self:.6f} vs {root:.6f})")
            for metric, positive in exercised[name].items():
                expect((layers[metric] > 0) == positive,
                       f"{name}: {metric} = {layers[metric]} ({'> 0' if positive else '0'})")
            missing = {"teleion.cli.exact_run", "teleion.tomography.exact_run",
                       "teleion.protocol.exact_run", "teleion.cli.run_shot",
                       "teleion.tomography.run_shot", "teleion.cli.calibrate_phase",
                       "teleion.protocol.depolarize_density_tensor",
                       "teleion.protocol.apply_pulse"} - set(traced["wrapped"])
            expect(not missing, f"{name}: layer functions wrapped where callers bind them "
                   f"(missing: {sorted(missing)})")
        finally:
            run.close()
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "teleion" / "cli.py").is_file():
        print(f"teleion sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    return benchmark(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
