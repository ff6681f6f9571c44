"""smearssl benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a smearssl checkout; it imports the library from
./src and takes the workload names and metric units from ./BENCHMARK.json. Each run starts fresh Python processes (`workload.py`) one after the
other and waits for each. With --trace 0 it runs set-up alone in
SETUP_RUNS - 1 of them, then set-up and the timed rounds in the last, and
prints every end-to-end metric. With --trace 1 it runs one process with the
per-layer wrappers installed, prints every per-layer metric, and writes the
spans to .perfbench-runs/trace-<workload>-seed<N>.json.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

# Set-ups per untraced run; setup_s is their median.
SETUP_RUNS = 3
# One BLAS thread: the machine has 2 cores and the runs must not contend
# with themselves. Pinned the same way for every commit measured.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
DEADLINE_S = 170.0
RUNS_DIR = ".perfbench-runs"


class ChildFailed(Exception):
    pass


def run_child(args, root: str, tag: str, setup_only: bool, deadline: float) -> dict:
    runs = os.path.join(root, RUNS_DIR)
    out = os.path.join(runs, tag + ".json")
    cmd = [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                        "workload.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out, "--workdir", os.path.join(runs, tag)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), **BLAS_ENV)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildFailed("out of time before the run started")
    cmd += ["--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=env, cwd=root, stdout=sys.stderr,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{tag}: no result within {DEADLINE_S:.0f} s") from None
    finally:
        shutil.rmtree(os.path.join(runs, tag), ignore_errors=True)
    if proc.returncode != 0:
        raise ChildFailed(f"{tag}: exit code {proc.returncode}")
    try:
        with open(out) as fh:
            return json.load(fh)
    finally:
        os.remove(out)


def main(argv=None) -> int:
    deadline = time.monotonic() + DEADLINE_S
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(root, "src", "smearssl", "__init__.py")):
        print("perfbench: ./src/smearssl not found; run from the root of a "
              "smearssl checkout", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(root, RUNS_DIR), exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-{os.getpid()}"

    try:
        setups = []
        if not args.trace:
            for i in range(SETUP_RUNS - 1):
                setups.append(run_child(args, root, f"{tag}-setup{i}", True,
                                        deadline)["setup_s"])
        res = run_child(args, root, tag, False, deadline)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    for kind, (attempted, failed) in res["ops"].items():
        print(f"perfbench: {kind}: {attempted} attempted, {failed} failed",
              file=sys.stderr)
    for line in res["failures"]:
        print(f"perfbench: FAILED {line}", file=sys.stderr)

    if args.trace:
        values = res["per_layer"]
        trace_path = os.path.join(root, RUNS_DIR,
                                  f"trace-{args.workload}-seed{args.seed}.json")
        with open(trace_path, "w") as fh:
            json.dump({k: res[k] for k in ("per_layer", "metrics", "timed_s",
                                           "rounds", "steps", "untraced_layers",
                                           "spans")}, fh)
        print(f"perfbench: spans written to {trace_path}", file=sys.stderr)
    else:
        values = dict(res["metrics"])
        values["setup_s"] = statistics.median(setups + [res["setup_s"]])
    units = {m["name"]: m["unit"]
             for m in bench["per_layer" if args.trace else "end_to_end"]}
    print(f"perfbench: {res['rounds']} round(s), {res['steps']} train steps, "
          f"timed window {res['timed_s']:.2f} s", file=sys.stderr)
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items() if name in values},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
