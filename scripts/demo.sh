#!/usr/bin/env bash
# End-to-end walkthrough on a small synthetic corpus: generate data, train a
# reduced encoder for a handful of iterations, embed, evaluate, and render a
# PCA feature map. Everything lands in ./demo_out (wiped on each run).
# Runs from a checkout with PYTHONPATH=src, or after `pip install -e .`.
set -euo pipefail

smearssl() { python3 -m smearssl.cli "$@"; }

OUT=${1:-demo_out}
rm -rf "$OUT"
mkdir -p "$OUT"

TINY="--set vit.embed_dim=32 --set vit.depth=1 --set vit.heads=2 \
      --set ssl.head_hidden=64 --set ssl.bottleneck=16 \
      --set ssl.num_prototypes=32"

echo "== 1. synthetic corpus =="
smearssl gen-synthetic --out "$OUT/data" --n-images 24 --sources 2 \
    --classes 4 --seed 0

echo "== 2. self-distillation training (reduced size, 40 iterations) =="
smearssl train --manifest "$OUT/data/manifest.csv" --out "$OUT/run" \
    --iterations 40 --batch-size 8 --seed 0 $TINY

echo "== 3. teacher embeddings =="
smearssl embed --checkpoint "$OUT/run/checkpoint.rdck" \
    --manifest "$OUT/data/manifest.csv" --out "$OUT/cells.emb1"

echo "== 4. evaluation: stratified 4-fold and leave-one-source-out =="
smearssl eval-kfold --emb "$OUT/cells.emb1" --k 3 --folds 4 --seed 0 \
    --report "$OUT/kfold.csv"
smearssl eval-loso --emb "$OUT/cells.emb1" --k 3 \
    --report "$OUT/loso.csv"

echo "== 5. PCA feature map of the first image =="
FIRST=$(ls "$OUT"/data/*.ppm | grep -v mask | head -1)
smearssl pca-map --checkpoint "$OUT/run/checkpoint.rdck" \
    --image "$FIRST" --out "$OUT/pca_map.ppm"

echo
echo "artifacts in $OUT/: data/, run/, cells.emb1, kfold.csv, loso.csv, pca_map.ppm"
