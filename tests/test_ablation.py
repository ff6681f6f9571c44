"""The collapse ablation: `smearssl.ablation` and the script that runs it."""

import csv
import math
import os
import pickle
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from oracles import seeded_encoder
from smearssl import ablation
from smearssl.embeddings import EmbeddingSet
from smearssl.protocols import leave_one_source_out
from smearssl.synthetic import gen_synthetic
from smearssl.trainer import train
from smearssl.vit import VitConfig

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COLUMNS = ["mode", "final_loss", "entropy", "marginal_dev",
           "knn20_cross_source", "seconds"]


def test_run_arm_returns_picklable_numbers():
    # 25 images: src0 has 13 rows and src1 12, below k = 20 both ways.
    samples = gen_synthetic(replace(ablation.SYNTH, n_images=25))
    train = replace(ablation.TRAIN, iterations=1)
    arm = ablation.run_arm("ema", samples, train=train)
    assert sorted(arm) == ["cross_source_acc", "entropy", "loss_history",
                           "marginal_dev"]
    assert len(arm["loss_history"]) == 1
    assert all(type(v) is float for v in arm["loss_history"])
    for key in ("cross_source_acc", "entropy", "marginal_dev"):
        assert type(arm[key]) is float and math.isfinite(arm[key]), key
    assert pickle.loads(pickle.dumps((ablation.run_arm, samples, arm)))[2] == arm


@pytest.mark.parametrize("mode", ["none", "sinkhorn"])
def test_run_arm_and_train_share_one_loop(tmp_path, mode):
    samples = gen_synthetic(replace(ablation.SYNTH, n_images=25))
    cfg = replace(ablation.TRAIN, iterations=3)
    history = ablation.run_arm(mode, samples, train=cfg)["loss_history"]
    train([s.image.pixels for s in samples], VitConfig(),
          replace(ablation.SSL, centering=mode), cfg, ablation.CROP, str(tmp_path))
    with open(tmp_path / "loss_log.csv", newline="") as fh:
        logged = [float(row["loss"]) for row in csv.DictReader(fh)]
    assert len(history) == 3 and history == logged


def test_cross_source_acc_is_the_loso_src0_to_src1_record():
    samples = gen_synthetic(replace(ablation.SYNTH, n_images=25))
    encoder = seeded_encoder(VitConfig(), seed=3)
    x = np.stack([s.image.pixels for s in samples]).astype(np.float32) / 255.0
    emb = EmbeddingSet(encoder.forward(x).data, [str(i) for i in range(len(x))],
                       [s.image.source_id for s in samples],
                       [s.label for s in samples])
    # src0 has 13 rows and src1 12, so k = 20 is capped at 12
    report = leave_one_source_out(emb, {"kind": "knn", "k": 12, "metric": "cosine"})
    record = next(r for r in report.records if (r.train_tag, r.test_tag) == ("src0", "src1"))
    assert ablation.cross_source_acc(encoder, samples) == record.metrics["acc"]


def test_script_smoke(tmp_path):
    out = tmp_path / "ablation.csv"
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "run_ablation.py"),
         "--iterations", "2", "--n-images", "24", "--modes", "none",
         "sinkhorn", "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    with open(out, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    assert reader.fieldnames == COLUMNS
    assert [r["mode"] for r in rows] == ["none", "sinkhorn"]
    for row in rows:
        for key in COLUMNS[1:]:
            assert math.isfinite(float(row[key])), (row["mode"], key)
