#!/usr/bin/env bash
# Prints `sha256  path` for every artifact of a small end-to-end run at one
# seed, with BLAS pinned to one thread: a 12-image synthetic corpus, a
# 6-iteration default `train`, a 4-iteration `train` with ema centering and
# KoLeo 0.1, `embed`, `pca-map` of the first image, a 3-fold linear
# `eval-kfold` and a k=3 k-NN `eval-loso`. It runs the `src/` of the
# checkout it sits in, so two checkouts' outputs compare with one diff:
#   diff <(scripts/digests.sh 0) <(../other/scripts/digests.sh 0)
# Usage: scripts/digests.sh SEED
set -euo pipefail

SEED=${1:?usage: scripts/digests.sh SEED}
ROOT=$(cd "$(dirname "$0")/.." && pwd)
export PYTHONPATH="$ROOT/src"
export OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

# logs go to a file, shown only if a command fails
smearssl() {
    python3 -m smearssl.cli "$@" 2>>log || { cat log >&2; return 1; }
}

smearssl gen-synthetic --out data --n-images 12 --sources 2 --classes 4 --seed "$SEED"
smearssl train --manifest data/manifest.csv --out run --iterations 6 --seed "$SEED"
smearssl train --manifest data/manifest.csv --out run_ema --iterations 4 --seed "$SEED" \
    --set ssl.centering=ema --set ssl.koleo_weight=0.1
mkdir emb
smearssl embed --checkpoint run/checkpoint.rdck --manifest data/manifest.csv \
    --out emb/cells.emb1
FIRST=$(ls data/*.ppm | grep -v mask | head -1)
smearssl pca-map --checkpoint run/checkpoint.rdck --image "$FIRST" --out emb/pca_map.ppm
smearssl eval-kfold --emb emb/cells.emb1 --classifier linear --folds 3 --seed "$SEED" \
    --report emb/kfold_linear.csv
smearssl eval-loso --emb emb/cells.emb1 --classifier knn --k 3 --report emb/loso_knn.csv

sha256sum data/* run/* run_ema/* emb/*
