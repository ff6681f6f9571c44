"""Self-check of the benchmark harness at tiny sizes; takes seconds.

    PYTHONPATH=src python3 perfbench/selfcheck.py

Run from the root of a checkout. It checks that:
- BENCHMARK.json names the workloads that workload.py runs;
- the k-NN and metrics oracles agree with the library on data with ties;
- a tiny workload runs untraced and traced, gives every metric that
  BENCHMARK.json names and fails no operation;
- a library entry point that is gone is reported, and its layer gives no
  number;
- a planted fault in the k-NN or the linear probe is counted as failed;
- run.py refuses, without a result, a directory with no library source.
Exits 0 when all hold.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workload  # noqa: E402
import smearssl  # noqa: E402
from smearssl import metrics, probes, protocols, trainer  # noqa: E402
from smearssl.embeddings import EmbeddingSet  # noqa: E402

TINY = workload.Spec(
    vit=dict(image_size=16, patch_size=8, embed_dim=16, depth=1, heads=2),
    ssl=dict(head_hidden=16, bottleneck=8, num_prototypes=8),
    crop=dict(global_size=16),
    train=dict(iterations=3, batch_size=4),
    synth=dict(n_images=18, image_size=16),
    variants=2, passes=2, knn_reps=2, knn_k=3, folds=2)

ROOT = os.getcwd()


def expect(ok: bool, what) -> None:
    if not ok:
        raise AssertionError(what)
SCRATCH = os.path.join(ROOT, run.RUNS_DIR, f"selfcheck-{os.getpid()}")


with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)
END_TO_END = {m["name"] for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"] for m in BENCH["per_layer"]}


def check_benchmark_json() -> None:
    expect(sorted(w["name"] for w in BENCH["workloads"]) == sorted(workload.SPECS),
           "BENCHMARK.json names the workloads workload.py runs")


def check_oracles() -> None:
    rng = np.random.default_rng(0)
    # Few distinct rows, so distances and votes tie often.
    base = rng.normal(size=(6, 5)).astype(np.float32)
    x = base[rng.integers(0, 6, size=60)]
    y = [str(c) for c in rng.integers(0, 3, size=60)]
    emb = EmbeddingSet(x, [str(i) for i in range(60)], ["s"] * 60, y)
    train, test = emb.subset(range(40)), emb.subset(range(40, 60))
    for k in (1, 4, 7):
        got = probes.knn(train, test, k=k).predictions
        expect(got == workload.oracles.knn_cosine(x[:40], y[:40], x[40:], k),
               f"k-NN oracle at k={k}")
    for _ in range(20):
        t = [str(c) for c in rng.integers(0, 4, size=30)]
        p = [str(c) for c in rng.integers(0, 5, size=30)]
        expect(workload.oracles.metrics_match(
            metrics.compute_metrics(t, p),
            workload.oracles.metrics_from_confusion(t, p)), "metrics oracle")


def tiny_run(traced: bool, name: str) -> dict:
    workdir = os.path.join(SCRATCH, name)
    os.makedirs(workdir)
    return workload.run(TINY, seed=3, seconds=0.0, traced=traced,
                        t0=time.monotonic(), workdir=workdir)


def check_tiny_runs() -> None:
    plain = tiny_run(False, "plain")
    expect(plain["failed"] == 0, plain["failures"])
    expect(set(plain["metrics"]) == END_TO_END, plain["metrics"])
    expect(all(v > 0 for v in plain["metrics"].values()), plain["metrics"])
    expect(plain["ops"]["train steps"][0] == 3, plain["ops"])
    traced = tiny_run(True, "traced")
    expect(traced["failed"] == 0, traced["failures"])
    expect(set(traced["per_layer"]) == PER_LAYER, traced["per_layer"])
    expect(all(v > 0 for v in traced["per_layer"].values()), traced["per_layer"])
    expect(not traced["untraced_layers"], traced["untraced_layers"])
    # The wrappers are gone once the run ends.
    expect(not hasattr(protocols.knn, "__wrapped__"), "wrappers removed")


def check_missing_entry_point() -> None:
    """A gone entry point is reported and its layer gives no number."""
    saved = trainer.ema_update
    del trainer.ema_update
    try:
        rec = workload.layers.Recorder()
        rec.install(smearssl)
        rec.uninstall()
    finally:
        trainer.ema_update = saved
    expect(rec.missing == ["trainer.ema_update"], rec.missing)
    with rec.span("trainer.train_step"):
        pass
    expect(rec.grouped("trainer.train_step", {"trainer.ema"}) == [],
           "no number without spans")


def planted(module, attr: str, corrupt) -> int:
    """Failed operations of a tiny run with module.attr's result corrupted."""
    original = getattr(module, attr)

    def faulty(*args, **kwargs):
        return corrupt(original(*args, **kwargs), *args)

    setattr(module, attr, faulty)
    try:
        return tiny_run(False, f"fault-{attr}")["failed"]
    finally:
        setattr(module, attr, original)


def check_planted_faults() -> None:
    def shift_acc(result, *args):
        result.metrics["acc"] += 1e-3
        return result

    expect(planted(protocols, "knn", shift_acc) > 0, "planted k-NN fault")
    expect(planted(protocols, "linear_probe", shift_acc) > 0,
           "planted linear-probe fault")


def check_refuses_bare_directory() -> None:
    bare = os.path.join(SCRATCH, "bare")
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, os.path.join(os.path.basename(HERE), "run.py"),
         "--workload", BENCH["workloads"][0]["name"], "--seed", "0", "--seconds", "1",
         "--trace", "0"], cwd=bare, env=env, capture_output=True, text=True,
        timeout=60)
    expect(proc.returncode != 0 and not proc.stdout.strip(), proc)


def main() -> int:
    checks = (check_benchmark_json, check_oracles, check_tiny_runs,
              check_missing_entry_point, check_planted_faults,
              check_refuses_bare_directory)
    try:
        for check in checks:
            t = time.perf_counter()
            check()
            print(f"selfcheck: {check.__name__}: ok "
                  f"({time.perf_counter() - t:.1f} s)")
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
