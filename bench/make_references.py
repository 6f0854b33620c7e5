"""Write the correctness references of `bench/run.py` from this checkout's program.

Usage: python3 bench/make_references.py [--size {paper,tiny}] [--workload NAME]

Run it on the commit whose outputs are the reference (the seed program);
a change that claims a speed-up must reproduce these files, not rewrite
them.  Each reference input is run once through the same worker as the
benchmark, serially and traced, so that its solver iteration count can
serve as the input's cost; the benchmark checks that the default worker
count gives the same bytes.  An input on which the
seed program already fails an item (a table_study fit that stops at
`max_iters` with converged=0) is skipped and recorded under "skipped",
because the benchmark's workloads must be ones on which no operation
fails; inputs are taken in order until the wanted count is reached.
"""
import argparse
import json
import os
import shutil
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", choices=tuple(run.CONFIGS), action="append")
    parser.add_argument("--workload", choices=run.WORKLOADS, action="append")
    args = parser.parse_args()
    os.makedirs(run.BUILD, exist_ok=True)
    for size in args.size or run.CONFIGS:
        for workload in args.workload or run.WORKLOADS:
            count = 1 if workload == "identity_checks" else run.REFERENCE_INPUTS[size]
            references, cost, skipped, k = {}, {}, {}, 0
            work = tempfile.mkdtemp(dir=run.BUILD)
            try:
                while len(references) < count:
                    deadline = time.monotonic() + run.DEADLINE_S
                    report, outputs = run._run_call(workload, size, k, work, deadline, serial=True, traced=True)
                    if report["exit_code"] != 0 or None in outputs.values():
                        print(f"error: {workload} input {k} exited {report['exit_code']}", file=sys.stderr)
                        return 1
                    _, failed = run.failed_items(workload, report, outputs, outputs)
                    if failed and workload == "identity_checks":
                        print("error: an identity check fails at this commit", file=sys.stderr)
                        return 1
                    if failed:
                        # compared with itself, an output fails only where a fit did not converge
                        skipped[str(k)] = f"{failed} fit(s) with converged=0"
                    else:
                        references[str(k)] = outputs
                        trace = report["trace"]
                        cost[str(k)] = run.layer_metrics(trace["spans"], trace["cache_misses"])["solver.iterations"]
                    print(f"{size} {workload} input {k}: {report['wall_s']:.2f} s, {failed} failed", flush=True)
                    k += 1
            finally:
                shutil.rmtree(work, ignore_errors=True)
            path = os.path.join(run.BENCH, "references", f"{size}_{workload}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"inputs": references, "cost": cost, "skipped": skipped}, fh, indent=0, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
