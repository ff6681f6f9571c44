"""One run of one benchmark workload, in a process of its own.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S
        --trace 0|1 --t0 MONOTONIC --out RESULT.json --workdir DIR
        [--setup-only]

`run.py` starts this file; it is not the benchmark's command. Set-up (imports,
input generation, writing the corpus) runs from process start to the first
timed call. Then whole rounds run until `--seconds` have passed, at least
one: a round is `trainer.train`, then embedding the corpus and the EMB1
write and read, then leave-one-source-out and k-fold with the k-NN and the
linear classifier. After the timed window every output is checked against
computations made apart from the library. The result goes to `--out` as JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import tracemalloc
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

import smearssl
from smearssl import (augment, data, embeddings, netpbm, objective, probes,
                      protocols, synthetic, tensor, trainer, vit)

try:
    from . import layers, oracles
except ImportError:  # run as a script
    import layers
    import oracles

MB = 1e6

# Acceptance criterion 3's configuration (tests/test_acceptance.py).
SMALL_HEAD_SSL = dict(num_prototypes=64, head_hidden=64, bottleneck=16,
                      student_temp=0.1, teacher_temp=0.005)
SMALL_HEAD_CROP = dict(global_scale=(0.9, 1.0), jitter_p=0.0,
                       jitter_strength=0.0, grayscale_p=0.5, blur_p=0.0,
                       solarize_p=0.0)
SMALL_HEAD_TRAIN = dict(batch_size=32, base_lr=5e-3, final_lr=1e-5,
                        weight_decay=0.0, teacher_momentum_start=0.99)


@dataclass(frozen=True)
class Spec:
    """Everything a workload feeds the library, apart from the seed."""
    synth: dict
    ssl: dict
    crop: dict
    train: dict
    vit: dict = field(default_factory=dict)
    variants: int = 1        # dihedral copies of each generated image
    passes: int = 2          # embed, k-NN and linear passes per round
    knn_reps: int = 1        # k-NN evaluations in each pass
    knn_k: int = 20
    folds: int = 5


# A round makes `passes` passes of embedding, k-NN and linear evaluation,
# half before and half after it trains; within a pass the k-NN evaluation
# runs `knn_reps` times. The metrics are medians over the samples.
SPECS = {
    # Shipped defaults: ViT 64 px, patch 8, dim 64, depth 2; head_hidden 2048,
    # K 256; batch 32; Sinkhorn centering. The head holds 4.92M of 5.04M
    # parameters.
    "train-default": Spec(
        synth=dict(n_images=240), ssl={}, crop={},
        train=dict(iterations=40), passes=15, knn_reps=4),
    # 250 generated images in 8 orientations, 2000 in all. The teacher
    # momentum is pinned at 1, so the exported teacher is the random-init
    # teacher of `init_train_state` (criterion 3's baseline) while the short
    # small-batch training of criterion 3's small-head model still runs every
    # training layer.
    "evaluate": Spec(
        synth=dict(n_images=250), ssl=SMALL_HEAD_SSL, crop=SMALL_HEAD_CROP,
        train=dict(SMALL_HEAD_TRAIN, iterations=40, batch_size=8,
                   teacher_momentum_start=1.0, teacher_momentum_end=1.0),
        variants=8, passes=2, knn_reps=5),
}

KNN_METRIC = "cosine"
EMBED_BATCH = 64         # the `embed.batch_size` default
REPRODUCE_STEPS = 2      # loss_log.csv rows reproduced by a second run
SAMPLE_ROWS = 8          # embedding rows checked against single-image runs


@dataclass
class Configs:
    vit: vit.VitConfig
    ssl: objective.SslConfig
    crop: augment.CropSpec
    train: trainer.TrainConfig
    synth: synthetic.SynthConfig


def make_configs(spec: Spec, seed: int) -> Configs:
    return Configs(
        vit=vit.VitConfig(**spec.vit),
        ssl=objective.SslConfig(**spec.ssl),
        crop=augment.CropSpec(**spec.crop),
        train=trainer.TrainConfig(**spec.train, seed=seed),
        synth=synthetic.SynthConfig(**spec.synth, seed=seed))


def dihedral(pixels: np.ndarray, v: int) -> np.ndarray:
    """The v-th of the 8 rotations and reflections of a square image."""
    out = np.rot90(pixels, v % 4)
    if v >= 4:
        out = out[:, ::-1]
    return np.ascontiguousarray(out)


@dataclass
class Inputs:
    pixels: list          # uint8 [H, W, 3] training images
    records: list         # manifest records of the same images as PPM files
    generated: int        # images rendered by gen_synthetic


def make_inputs(spec: Spec, cfgs: Configs, workdir: str) -> Inputs:
    samples = synthetic.gen_synthetic(cfgs.synth)
    corpus = os.path.join(workdir, "corpus")
    os.makedirs(corpus)
    records, pixels = [], []
    for sample in samples:
        for v in range(spec.variants):
            px = dihedral(sample.image.pixels, v)
            name = f"{sample.image.image_id}_d{v}.ppm"
            netpbm.write_ppm(os.path.join(corpus, name), px)
            records.append(data.ManifestRecord(name, "patch",
                                               sample.image.source_id,
                                               sample.label))
            pixels.append(px)
    manifest = os.path.join(corpus, "manifest.csv")
    data.save_manifest(manifest, records)
    return Inputs(pixels=pixels, records=data.load_manifest(manifest),
                  generated=len(samples))


class Tally:
    """Operations attempted and failed, by kind."""

    def __init__(self):
        self.kinds: dict[str, list[int]] = {}
        self.failures: list[str] = []

    def add(self, kind: str, attempted: int, failed: int = 0,
            why: str = "") -> None:
        entry = self.kinds.setdefault(kind, [0, 0])
        entry[0] += attempted
        entry[1] += failed
        if failed:
            self.failures.append(f"{kind}: {failed} of {attempted} failed: {why}")

    def check(self, what: str, ok: bool) -> None:
        self.add("checks", 1, 0 if ok else 1, what)

    @property
    def attempted(self) -> int:
        return sum(a for a, _ in self.kinds.values())

    @property
    def failed(self) -> int:
        return sum(f for _, f in self.kinds.values())


@dataclass
class Downstream:
    """Passes of embed + EMB1 write/read, k-NN and linear evaluation with
    one checkpoint."""
    ckpt: str
    embed_s: list = field(default_factory=list)
    emb_sets: list = field(default_factory=list)      # as embedded, per pass
    emb_read: list = field(default_factory=list)      # as read back, per pass
    knn_s: list = field(default_factory=list)
    linear_s: list = field(default_factory=list)
    knn_reports: list = field(default_factory=list)   # (loso, kfold) per rep
    linear_reports: list = field(default_factory=list)


@dataclass
class Round:
    out_dir: str
    state: object = None
    train_s: float = 0.0
    windows: list = field(default_factory=list)       # Downstream, before and after


def knn_spec(spec: Spec) -> dict:
    return {"kind": "knn", "k": spec.knn_k, "metric": KNN_METRIC}


# tol 0: every split runs the full max_epochs, so the probe's work does not
# depend on how fast it converges on a given seed's embeddings.
LINEAR_SPEC = {"kind": "linear", "tol": 0.0}


def run_downstream(spec: Spec, inputs: Inputs, ckpt: str, passes: int,
                   seed: int, phase) -> Downstream:
    ds = Downstream(ckpt=ckpt)
    emb_path = ckpt + ".emb1"
    knn = knn_spec(spec)
    for _ in range(passes):
        with phase("bench.embed"):
            t = time.perf_counter()
            emb = embeddings.embed(ckpt, inputs.records, batch_size=EMBED_BATCH)
            embeddings.write_embeddings(emb_path, emb)
            back = embeddings.read_embeddings(emb_path)
            ds.embed_s.append(time.perf_counter() - t)
        ds.emb_sets.append(emb)
        ds.emb_read.append(back)
        for classifier, reps, times, reports, name in (
                (knn, spec.knn_reps, ds.knn_s, ds.knn_reports, "bench.knn_eval"),
                (LINEAR_SPEC, 1, ds.linear_s, ds.linear_reports,
                 "bench.linear_eval")):
            for _ in range(reps):
                with phase(name):
                    t = time.perf_counter()
                    loso = protocols.leave_one_source_out(back, classifier)
                    kf = protocols.kfold(back, classifier, k=spec.folds, seed=seed)
                    times.append(time.perf_counter() - t)
                reports.append((loso, kf))
    return ds


def run_round(spec: Spec, cfgs: Configs, inputs: Inputs, workdir: str,
              index: int, seed: int, phase) -> Round:
    """Half the passes use the random-init teacher before training, half the
    trained one after it, so the downstream samples spread over the round:
    on a shared host, speed changes in spells of seconds to minutes. The
    downstream work does not depend on the weights."""
    rnd = Round(out_dir=os.path.join(workdir, f"round{index}"))
    os.makedirs(rnd.out_dir)
    init_ckpt = os.path.join(rnd.out_dir, "init.rdck")
    trainer.export_teacher(init_ckpt, trainer.init_train_state(
        cfgs.vit, cfgs.ssl, cfgs.train))
    before = spec.passes // 2
    rnd.windows.append(run_downstream(spec, inputs, init_ckpt, before, seed, phase))

    t = time.perf_counter()
    rnd.state = trainer.train(inputs.pixels, cfgs.vit, cfgs.ssl, cfgs.train,
                              cfgs.crop, rnd.out_dir)
    rnd.train_s = time.perf_counter() - t

    rnd.windows.append(run_downstream(
        spec, inputs, os.path.join(rnd.out_dir, "checkpoint.rdck"),
        spec.passes - before, seed, phase))
    return rnd


# --- checks -------------------------------------------------------------------

def reproduce_rows(cfgs: Configs, pixels: list, steps: int) -> list[str]:
    """The first loss_log.csv rows, from a second short run driven step by
    step through the public functions."""
    state = trainer.init_train_state(cfgs.vit, cfgs.ssl, cfgs.train)
    rows = []
    for it in range(steps):
        sched = trainer.schedule(it, cfgs.train)
        value = trainer.train_step(
            state, trainer.sample_batch(pixels, cfgs.crop, cfgs.train, it))
        rows.append(f"{it},{float(value)!r},{float(sched['lr'])!r},"
                    f"{float(sched['m_t'])!r}")
    return rows


def _same_arrays(a: dict, b: dict) -> bool:
    def raw(x):
        return x.data if isinstance(x, tensor.Tensor) else x
    return a.keys() == b.keys() and all(
        raw(a[k]).dtype == raw(b[k]).dtype and raw(a[k]).shape == raw(b[k]).shape
        and raw(a[k]).tobytes() == raw(b[k]).tobytes() for k in a)


def states_equal(a, b) -> bool:
    return (a.iteration == b.iteration
            and _same_arrays(a.student_params(), b.student_params())
            and _same_arrays(a.teacher_params(), b.teacher_params())
            and _same_arrays(a.moments_m, b.moments_m)
            and _same_arrays(a.moments_v, b.moments_v)
            and a.centering.center.tobytes() == b.centering.center.tobytes())


def emb_equal(a, b) -> bool:
    return (a.vectors.dtype == b.vectors.dtype
            and a.vectors.shape == b.vectors.shape
            and a.vectors.tobytes() == b.vectors.tobytes()
            and a.ids == b.ids and a.sources == b.sources and a.labels == b.labels)


def loso_splits(emb) -> list[tuple[list[int], list[int]]]:
    sources = sorted(set(emb.sources))
    rows = {s: [i for i, src in enumerate(emb.sources) if src == s] for s in sources}
    return [(rows[a], rows[b]) for a in sources for b in sources if a != b]


def kfold_splits(folds: np.ndarray, k: int) -> list[tuple[list[int], list[int]]]:
    return [(list(np.nonzero(folds != f)[0]), list(np.nonzero(folds == f)[0]))
            for f in range(k)]


def records_equal(a, b) -> list[bool]:
    """Per split of report a: is it identical to the same split of b."""
    return [i < len(b.records) and r == b.records[i] for i, r in enumerate(a.records)]


def check_training(cfgs: Configs, inputs: Inputs, rnd: Round,
                   tally: Tally) -> None:
    """Loss range, reproduction, state and encoder round trips."""
    tc, ssl = cfgs.train, cfgs.ssl
    with open(os.path.join(rnd.out_dir, "loss_log.csv")) as fh:
        body = fh.read().splitlines()[1:]
    bound = math.log(ssl.num_prototypes) + 2.0 / ssl.student_temp
    bad = set(range(tc.iterations)) if len(body) != tc.iterations else set()
    for i, row in enumerate(body):
        value = float(row.split(",")[1])
        if not (math.isfinite(value) and 0.0 < value <= bound):
            bad.add(i)
    repro = reproduce_rows(cfgs, inputs.pixels, min(REPRODUCE_STEPS, tc.iterations))
    bad.update(i for i, row in enumerate(repro) if i >= len(body) or body[i] != row)
    tally.add("train steps", tc.iterations, len(bad),
              "loss outside (0, ln K + 2/student_temp] or row not reproduced")

    loaded = trainer.load_train_state(os.path.join(rnd.out_dir, "state.rdck"),
                                      ssl, tc)
    tally.check("load_train_state equals the returned state",
                states_equal(loaded, rnd.state))
    ckpt = os.path.join(rnd.out_dir, "checkpoint.rdck")
    x = np.stack(inputs.pixels[:16]).astype(np.float32) / 255.0
    tally.check("load_encoder reproduces the teacher's CLS rows",
                np.array_equal(trainer.load_encoder(ckpt).forward(x).data,
                               rnd.state.teacher_enc.forward(x).data))
    if tc.teacher_momentum_start == tc.teacher_momentum_end == 1.0:
        with open(ckpt, "rb") as a, open(rnd.windows[0].ckpt, "rb") as b:
            tally.check("exported teacher is the random-init teacher",
                        a.read() == b.read())


def check_downstream(spec: Spec, inputs: Inputs, ds: Downstream, seed: int,
                     tally: Tally) -> None:
    """Embedding rows, EMB1 round trip, k-NN and linear probe against the
    oracles, protocol structure."""
    if not ds.emb_sets:
        return
    encoder = trainer.load_encoder(ds.ckpt)
    first = ds.emb_sets[0]
    n = len(first)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 5])))
    sample = rng.choice(n, size=min(SAMPLE_ROWS, n), replace=False)
    bad_rows = 0
    for i in sample:
        img = netpbm.read_ppm(inputs.records[int(i)].path)
        single = encoder.forward(img[None].astype(np.float32) / 255.0).data[0]
        if not np.max(np.abs(single - first.vectors[int(i)])) <= 1e-5:
            bad_rows += 1
    for emb in ds.emb_sets:
        tally.add("embedded images", len(emb), 0 if emb_equal(emb, first) else len(emb),
                  "pass differs from the first pass")
    tally.add("embedded images", 0, bad_rows,
              "row differs from the image embedded alone by more than 1e-5")
    tally.check("EMB1 write and read round-trip bit-exactly",
                all(emb_equal(e, b) for e, b in zip(ds.emb_sets, ds.emb_read)))

    emb = ds.emb_read[-1]
    y = emb.labels
    s = len(set(emb.sources))
    folds = protocols.kfold_assignments(y, spec.folds, seed)
    fold_rows = kfold_splits(folds, spec.folds)
    tally.check("k-fold folds partition the rows", oracles.is_partition(folds, spec.folds))
    for kind, reports in (("knn", ds.knn_reports), ("linear", ds.linear_reports)):
        loso0, kf0 = reports[0]
        tally.check(f"{kind} LOSO gives s(s-1) records", len(loso0.records) == s * (s - 1))
        tally.check(f"{kind} k-fold split sizes match the folds",
                    [(r.n_train, r.n_test) for r in kf0.records]
                    == [(len(a), len(b)) for a, b in fold_rows])
        for loso, kf in reports:
            same = records_equal(loso, loso0) + records_equal(kf, kf0)
            tally.add(f"{kind} splits", len(same), same.count(False),
                      "pass differs from the first pass")

    def subset_vectors(rows):
        return emb.vectors[np.asarray(rows, dtype=np.int64)]

    bad = 0
    splits = loso_splits(emb) + fold_rows
    records = ds.knn_reports[0][0].records + ds.knn_reports[0][1].records
    for (tr, te), rec in zip(splits, records):
        preds = oracles.knn_cosine(subset_vectors(tr), [y[i] for i in tr],
                                   subset_vectors(te), spec.knn_k)
        want = oracles.metrics_from_confusion([y[i] for i in te], preds)
        bad += not oracles.metrics_match(rec.metrics, want)
    tally.add("knn splits", 0, bad + abs(len(splits) - len(records)),
              "metrics differ from the brute-force oracle")

    bad = 0
    for (tr, te), rec in zip(loso_splits(emb), ds.linear_reports[0][0].records):
        train, test = emb.subset(tr), emb.subset(te)
        plain = probes.linear_probe(train, test, tol=LINEAR_SPEC["tol"])
        train.vectors = train.vectors * np.float32(2)
        test.vectors = test.vectors * np.float32(2)
        scaled = probes.linear_probe(train, test, tol=LINEAR_SPEC["tol"])
        bad += not (plain.predictions == scaled.predictions
                    and plain.metrics == scaled.metrics
                    and plain.metrics == rec.metrics
                    and oracles.metrics_match(
                        plain.metrics,
                        oracles.metrics_from_confusion([y[i] for i in te],
                                                       plain.predictions)))
    tally.add("linear splits", 0, bad,
              "changed when every embedding was doubled, or metrics wrong")


# --- metrics ------------------------------------------------------------------

def end_to_end(rounds: list[Round], step_s: list[float], batch: int) -> dict:
    windows = [ds for r in rounds for ds in r.windows]
    return {
        "train_images_per_s": statistics.median(
            [r.state.iteration * batch / r.train_s for r in rounds]),
        "step_ms_p50": 1e3 * statistics.median(step_s),
        "step_ms_p75": 1e3 * statistics.quantiles(step_s, n=4)[2],
        "embed_images_per_s": statistics.median(
            [len(e) / t for ds in windows for e, t in zip(ds.emb_sets, ds.embed_s)]),
        "knn_eval_s": statistics.median([t for ds in windows for t in ds.knn_s]),
        "linear_eval_s": statistics.median([t for ds in windows for t in ds.linear_s]),
    }


STEP = "trainer.train_step"

# metric -> (group span, layer spans): the median over group spans of the
# summed self time of the layer spans under them, in ms.
LAYER_MS = {
    "augment.sample_batch_ms": ("augment.sample_batch", {"augment.sample_batch"}),
    "vit.teacher_forward_ms": (STEP, {"vit.teacher_forward"}),
    "vit.student_forward_ms": (STEP, {"vit.student_forward"}),
    "objective.head_forward_ms": (STEP, {"objective.head_forward"}),
    "objective.targets_ms": (STEP, {"objective.targets"}),
    "objective.loss_ms": (STEP, {"objective.loss"}),
    "tensor.backward_ms": (STEP, {"tensor.backward"}),
    "trainer.ema_ms": (STEP, {"trainer.ema"}),
    "trainer.optimizer_ms": (STEP, {STEP}),
    "checkpoint.write_ms": ("trainer.train", {"checkpoint.write"}),
    "data.load_images_ms": ("embeddings.embed", {"data.load_images"}),
    "embeddings.io_ms": ("bench.embed", {"embeddings.io"}),
    "probes.knn_ms": ("bench.knn_eval", {"probes.knn"}),
    "probes.linear_ms": ("bench.linear_eval", {"probes.linear"}),
}

# metric -> layer spans, per k-NN pass plus per linear pass, in ms.
EVAL_MS = {
    "metrics.compute_ms": {"metrics.compute"},
    "protocols.self_ms": {"protocols.loso", "protocols.kfold"},
}


def per_layer(rec: layers.Recorder, inputs: Inputs, rounds: list[Round]) -> dict:
    """Every per-layer number the spans give. A layer with no span (its
    entry point is gone) gives none."""
    def med(group, names, value=None):
        values = rec.grouped(group, names, value)
        return statistics.median(values) if values else None

    def ms(group, names, per=1):
        v = med(group, names)
        return None if v is None else 1e3 * v / per

    out = {metric: ms(*where) for metric, where in LAYER_MS.items()}
    for metric, names in EVAL_MS.items():
        parts = [ms(g, names) for g in ("bench.knn_eval", "bench.linear_eval")]
        out[metric] = None if None in parts else sum(parts)
    out["synthetic.gen_ms_per_image"] = ms(
        "synthetic.gen_synthetic", {"synthetic.gen_synthetic"}, inputs.generated)
    out["vit.embed_forward_ms"] = ms("embeddings.embed", {"vit.embed_forward"},
                                     len(inputs.records))
    out["tensor.tape_records"] = med(STEP, {"tensor.backward"},
                                     lambda s: s[4]["tape_records"])
    out["probes.linear_epochs"] = med("bench.linear_eval", {"probes.linear"},
                                      lambda s: s[4]["epochs"])
    out["checkpoint.state_mb"] = statistics.median(
        [os.path.getsize(os.path.join(r.out_dir, "state.rdck")) / MB for r in rounds])
    return {k: v for k, v in out.items() if v is not None}


def _peak_mb(fn) -> float:
    """Peak of memory allocated inside fn(), numpy buffers included."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / MB
    finally:
        tracemalloc.stop()


def allocation_peaks(spec: Spec, cfgs: Configs, inputs: Inputs, rnd: Round) -> dict:
    """Taken in passes of their own, after the traced window, because
    tracemalloc slows Python-heavy code such as the k-NN vote loop."""
    state = trainer.init_train_state(cfgs.vit, cfgs.ssl, cfgs.train)
    trainer.train_step(state, trainer.sample_batch(inputs.pixels, cfgs.crop,
                                                   cfgs.train, 0))
    views = trainer.sample_batch(inputs.pixels, cfgs.crop, cfgs.train, 1)
    step_mb = _peak_mb(lambda: trainer.train_step(state, views))
    del state
    ds = rnd.windows[-1]
    embed_mb = _peak_mb(lambda: embeddings.embed(ds.ckpt, inputs.records,
                                                 batch_size=EMBED_BATCH))
    emb = ds.emb_read[-1]
    tr, te = loso_splits(emb)[0]
    train, test = emb.subset(tr), emb.subset(te)
    knn_mb = _peak_mb(lambda: probes.knn(train, test, k=spec.knn_k, metric=KNN_METRIC))
    return {"trainer.step_peak_mb": step_mb, "embeddings.embed_peak_mb": embed_mb,
            "probes.knn_peak_mb": knn_mb}


# --- one run ------------------------------------------------------------------

class StepTimer:
    """Times every call into trainer.train_step, from outside the library."""

    def __init__(self):
        self.seconds: list[float] = []
        self._fn = None

    def install(self):
        self._fn = fn = trainer.train_step
        sink = self.seconds

        def timed(*args, **kwargs):
            t = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                sink.append(time.perf_counter() - t)

        trainer.train_step = timed

    def uninstall(self):
        trainer.train_step = self._fn


def run(spec: Spec, seed: int, seconds: float, traced: bool, t0: float,
        workdir: str, setup_only: bool = False) -> dict:
    recorder = layers.Recorder() if traced else None
    if recorder:
        recorder.install(smearssl)
    cfgs = make_configs(spec, seed)
    inputs = make_inputs(spec, cfgs, workdir)
    setup_s = time.monotonic() - t0
    result = {"setup_s": setup_s}
    if setup_only:
        return result

    def phase(name):
        return recorder.span(name) if recorder else nullcontext()

    timer = StepTimer()
    timer.install()
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(run_round(spec, cfgs, inputs, workdir, len(rounds), seed, phase))
    timed_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB
    timer.uninstall()
    if recorder:
        recorder.active = False

    tally = Tally()
    for rnd in rounds:
        check_training(cfgs, inputs, rnd, tally)
        for ds in rnd.windows:
            check_downstream(spec, inputs, ds, seed, tally)

    metrics = end_to_end(rounds, timer.seconds, cfgs.train.batch_size)
    metrics["peak_rss_mb"] = peak_rss_mb
    metrics["setup_s"] = setup_s
    result.update(metrics=metrics, timed_s=timed_s, rounds=len(rounds),
                  steps=len(timer.seconds), attempted=tally.attempted,
                  failed=tally.failed, ops=tally.kinds, failures=tally.failures)
    if recorder:
        layer = per_layer(recorder, inputs, rounds)
        layer.update(allocation_peaks(spec, cfgs, inputs, rounds[-1]))
        recorder.uninstall()
        result.update(per_layer=layer, spans=recorder.dump(),
                      untraced_layers=recorder.missing)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(SPECS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() of the parent just before it "
                         "started this process")
    ap.add_argument("--out", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    os.makedirs(args.workdir)
    try:
        result = run(SPECS[args.workload], args.seed, args.seconds,
                     bool(args.trace), args.t0, args.workdir, args.setup_only)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
