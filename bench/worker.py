"""One workload call in a fresh interpreter.

Usage: python3 bench/worker.py '<job JSON>'

The job names the checkout's source directory, the `ulln` argv, the
config to write (if any), the file that receives the CLI's stdout, and,
for a traced call, the file that receives the spans.  The worker prints
one JSON line: set-up time, wall and CPU time of the `cli.main` call,
peak RSS, the exit code and the run manifest fields only the program's
own interpreter can see.
"""
import time

T0 = time.perf_counter()

import contextlib
import json
import os
import resource
import sys
import traceback


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def _blas() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"name": blas.get("name"), "version": blas.get("version")}


def main() -> int:
    job = json.loads(sys.argv[1])
    src = os.path.realpath(job["src"])
    sys.path.insert(0, src)
    from ulln import cli

    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"error: ulln was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    if job["config"] is not None:
        with open(job["config_path"], "w", encoding="utf-8") as fh:
            json.dump(job["config"], fh)
    setup_s = time.perf_counter() - T0
    if job["setup_only"]:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import numpy
    import scipy

    # The worker count the CLI uses for this argv, from the CLI's own rule;
    # only `experiment` runs a pool, the other commands are serial.
    args = cli._build_parser().parse_args(job["argv"])
    workers = cli._thread_count(args) if args.subcommand == "experiment" else 1
    tracer = None
    if job["spans_path"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    children0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    try:
        with open(job["stdout_path"], "w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
            code = cli.main(job["argv"])
    except Exception:  # the call's failure is a measured outcome, not a benchmark crash
        traceback.print_exc()
        code = -1
    wall_s = time.perf_counter() - start
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    children1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    if tracer is not None:
        tracer.restore()
        tracer.write(job["spans_path"], cache_misses=tracer.quadrature_cache_misses())

    print(json.dumps({
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": _cpu(self1) - _cpu(self0) + _cpu(children1) - _cpu(children0),
        # ru_maxrss is in KiB on Linux; the children figure is the largest reaped worker
        "peak_rss_mb": max(self1.ru_maxrss, children1.ru_maxrss) / 1024.0,
        "exit_code": code,
        "workers": workers,
        "blas": _blas(),
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
