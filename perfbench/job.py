"""One benchmark job: a fresh process that runs one teleion CLI command.

    python3 perfbench/job.py RESULT.json [--setup-only] [--spans SPANS.json] -- CLI ARGS...

Set-up is timed from the top of this file, before `teleion` is imported, to
the return of `cli.load_config` on the given arguments. The CLI call itself
is timed separately, in wall and CPU time, and the process's peak resident
memory is read when it returns. With `--spans` the layer functions are
wrapped (see spans.py) after set-up and the spans are written once, at the end.
"""
import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]


def main(argv: list[str]) -> int:
    if "--" not in argv:
        raise SystemExit("usage: job.py RESULT.json [--setup-only] [--spans SPANS.json] -- CLI ARGS...")
    split = argv.index("--")
    parser = argparse.ArgumentParser()
    parser.add_argument("result")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args(argv[:split])
    cli_args = argv[split + 1:]

    sys.path.insert(0, str(ROOT / "src"))
    from teleion import cli

    cli.load_config(cli.build_parser().parse_args(cli_args))
    result = {"setup_s": time.perf_counter() - T0}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result), encoding="utf-8")
        return 0

    recorder = None
    if args.spans:
        import spans

        recorder = spans.Recorder()
        result["wrapped"] = spans.install(recorder)

    c0, w0 = time.process_time(), time.perf_counter()
    code = cli.main(cli_args)
    result["wall_s"] = time.perf_counter() - w0
    result["cpu_s"] = time.process_time() - c0
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["exit_code"] = code

    if recorder is not None:
        Path(args.spans).write_text(json.dumps(recorder.dump()), encoding="utf-8")
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
