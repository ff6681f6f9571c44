#!/usr/bin/env bash
# Prints `sha256  path` for every artifact of a small end-to-end run at one
# seed, with BLAS pinned to one thread: a 12-image synthetic corpus, a
# 6-iteration default `train`, a 4-iteration `train` with ema centering and
# KoLeo 0.1, `patchify` and `extract-cells` of the first image and its mask,
# `embed`, `pca-map` of the first image, and six evaluations: a 3-fold linear
# and a 4-fold k=3 k-NN `eval-kfold` (each class holds 3 of the 12 images, so
# the second takes the unstratified fallback), a k=3 k-NN and a linear
# `eval-loso`, and a k=3 `eval-knn` and an `eval-linear` trained on source 0
# and tested on source 1. Each evaluation's `--report` CSV is hashed, and so
# is the report it prints (`emb/*.txt`: its stderr without the log lines).
# A resume leg runs 3 iterations, resumes them to 6, and fails unless the
# `state.rdck`, `checkpoint.rdck` and `loss_log.csv` equal a straight
# 6-iteration run's byte for byte. Its schedule is flat (final_lr = base_lr,
# no warmup, constant teacher momentum): the schedule is a function of
# `--iterations`, so a 3-iteration run under the default one takes other
# steps than the first 3 of a 6-iteration run. A killed-resume leg then puts
# the 3-iteration `state.rdck` back beside the 6-row log, as a resume killed
# before its final save leaves them, resumes to 6 again and makes the same
# comparison. These runs are compared, not hashed.
# It runs the `src/` of the checkout it sits in, so two checkouts' outputs
# compare with one diff:
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
FLAT=(--seed "$SEED" --set train.base_lr=0.001 --set train.final_lr=0.001
      --set train.warmup_frac=0 --set train.teacher_momentum_start=0.996
      --set train.teacher_momentum_end=0.996)
smearssl train --manifest data/manifest.csv --out resume/straight --iterations 6 "${FLAT[@]}"
smearssl train --manifest data/manifest.csv --out resume/resumed --iterations 3 "${FLAT[@]}"
cp resume/resumed/state.rdck resume/state3.rdck
# resume_to_6 LEG: resumes resume/resumed to 6 iterations; exits unless its
# files equal the straight run's byte for byte
resume_to_6() {
    smearssl train --manifest data/manifest.csv --out resume/resumed --iterations 6 \
        "${FLAT[@]}" --resume
    for f in state.rdck checkpoint.rdck loss_log.csv; do
        cmp "resume/straight/$f" "resume/resumed/$f" \
            || { echo "$1: $f differs from a straight run" >&2; exit 1; }
    done
}
resume_to_6 resume
cp resume/state3.rdck resume/resumed/state.rdck
resume_to_6 "killed resume"
smearssl train --manifest data/manifest.csv --out run_ema --iterations 4 --seed "$SEED" \
    --set ssl.centering=ema --set ssl.koleo_weight=0.1
FIRST=$(ls data/*.ppm | grep -v mask | head -1)
smearssl patchify --image "$FIRST" --out patches --patch 32 --source-id src0 --label disc
smearssl extract-cells --image "$FIRST" --mask "${FIRST%.ppm}_mask.pgm" --out cells \
    --cell-size 24 --source-id src0
mkdir emb
smearssl embed --checkpoint run/checkpoint.rdck --manifest data/manifest.csv \
    --out emb/cells.emb1
# a train/test pair split by source; manifests resolve paths from their own directory
for src in 0 1; do
    grep -e '^path,' -e ",src$src," data/manifest.csv > "data/src$src.csv"
    smearssl embed --checkpoint run/checkpoint.rdck --manifest "data/src$src.csv" \
        --out "emb/src$src.emb1"
done
smearssl pca-map --checkpoint run/checkpoint.rdck --image "$FIRST" --out emb/pca_map.ppm

# evaluate NAME ARGS...: writes emb/NAME.csv and the printed report emb/NAME.txt
evaluate() {
    local name=$1
    shift
    python3 -m smearssl.cli "$@" --report "emb/$name.csv" 2>"$name.err" \
        || { cat "$name.err" >&2; return 1; }
    grep -v -e '^INFO ' -e '^WARNING ' "$name.err" > "emb/$name.txt"
}
evaluate kfold_linear eval-kfold --emb emb/cells.emb1 --classifier linear --folds 3 --seed "$SEED"
evaluate kfold_knn eval-kfold --emb emb/cells.emb1 --classifier knn --k 3 --folds 4 --seed "$SEED"
grep -q 'unstratified folds' kfold_knn.err \
    || { echo "kfold_knn: expected the unstratified fallback" >&2; exit 1; }
evaluate loso_knn eval-loso --emb emb/cells.emb1 --classifier knn --k 3
evaluate loso_linear eval-loso --emb emb/cells.emb1 --classifier linear
evaluate knn_src0_src1 eval-knn --train-emb emb/src0.emb1 --test-emb emb/src1.emb1 --k 3
evaluate linear_src0_src1 eval-linear --train-emb emb/src0.emb1 --test-emb emb/src1.emb1

sha256sum data/* run/* run_ema/* patches/* cells/* emb/*
