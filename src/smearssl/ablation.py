"""Criterion 3's centering ablation: one arm per centering mode, all else
pinned (calibrated once on seed 0, then frozen). Collapse shows as target
entropy near 0 and cross-source accuracy stuck at its random-init level."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .augment import CropSpec
from .embeddings import EmbeddingSet
from .objective import SslConfig, marginal_deviation, mean_assignment_entropy
from .protocols import leave_one_source_out
from .synthetic import SynthConfig, SynthSample
from .trainer import (TrainConfig, init_train_state, keep_freed_memory,
                      sample_batch, steps, teacher_targets)
from .vit import VitConfig, VitEncoder

SYNTH = SynthConfig(n_images=240, sources=2, classes=3, seed=0, cells_min=5,
                    cells_max=5, cell_radius_lo=0.105, cell_radius_hi=0.115,
                    tint_delta=0.015)
CROP = CropSpec(global_scale=(0.9, 1.0), jitter_p=0.0, jitter_strength=0.0,
                grayscale_p=0.5, blur_p=0.0, solarize_p=0.0)
TRAIN = TrainConfig(iterations=300, batch_size=32, base_lr=5e-3, final_lr=1e-5,
                    weight_decay=0.0, teacher_momentum_start=0.99, seed=0)
SSL = SslConfig(num_prototypes=64, head_hidden=64, bottleneck=16,
                student_temp=0.1, teacher_temp=0.005, centering="sinkhorn")


def cross_source_acc(encoder: VitEncoder, samples: list[SynthSample]) -> float:
    """Accuracy of the src0 -> src1 record of cosine k-NN leave-one-source-out;
    k = 20 capped at the smallest source."""
    x = np.stack([s.image.pixels for s in samples]).astype(np.float32) / 255.0
    sources = [s.image.source_id for s in samples]
    emb = EmbeddingSet(encoder.forward(x).data, [str(i) for i in range(len(x))],
                       sources, [s.label for s in samples])
    k = min(20, *map(sources.count, set(sources)))
    report = leave_one_source_out(emb, {"kind": "knn", "k": k, "metric": "cosine"})
    return next(r.metrics["acc"] for r in report.records
                if (r.train_tag, r.test_tag) == ("src0", "src1"))


def run_arm(mode: str, samples: list[SynthSample], ssl: SslConfig = SSL,
            train: TrainConfig = TRAIN) -> dict:
    """Train one arm with centering `mode` in `trainer.steps`, the loop `train`
    runs; score the teacher targets of the next batch. Returns entropy,
    marginal_dev, cross_source_acc and loss_history, `train`'s `loss` column."""
    keep_freed_memory()
    pixels = [s.image.pixels for s in samples]
    state = init_train_state(VitConfig(), replace(ssl, centering=mode), train)
    losses = [record.loss for record in steps(state, pixels, CROP)]
    targets = teacher_targets(state, sample_batch(pixels, CROP, train, state.iteration))
    return {"entropy": mean_assignment_entropy(targets),
            "marginal_dev": marginal_deviation(targets),
            "cross_source_acc": cross_source_acc(state.teacher_enc, samples),
            "loss_history": losses}
