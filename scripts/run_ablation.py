#!/usr/bin/env python3
"""Centering ablation on the synthetic corpus.

Trains one arm per centering mode (none / ema / sinkhorn) with everything else
held fixed, then reports prototype-usage entropy of the final teacher targets
and cross-source 20-NN accuracy of the teacher encoder against the untrained
baseline. The collapse shows up as entropy near zero and accuracy stuck at the
random-init level. The defaults are acceptance criterion 3's configuration,
`smearssl.ablation`; each flag replaces one field of it.

Example:
    python3 scripts/run_ablation.py --iterations 300 --out ablation.csv
"""

import argparse
import logging
import sys
import time
from dataclasses import replace

import numpy as np

from smearssl import ablation
from smearssl.data import write_table
from smearssl.synthetic import gen_synthetic
from smearssl.trainer import init_train_state
from smearssl.vit import VitConfig

MODES = ("none", "ema", "sinkhorn")


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--iterations", type=int, default=ablation.TRAIN.iterations)
    ap.add_argument("--n-images", type=int, default=ablation.SYNTH.n_images)
    ap.add_argument("--prototypes", type=int,
                    default=ablation.SSL.num_prototypes)
    ap.add_argument("--seed", type=int, default=ablation.TRAIN.seed)
    ap.add_argument("--modes", nargs="+", default=list(MODES), choices=MODES)
    ap.add_argument("--out", help="optional CSV for the result table")
    return ap.parse_args()


def main():
    args = parse_args()
    logging.basicConfig(level=logging.INFO, format="  %(message)s")
    synth = replace(ablation.SYNTH, n_images=args.n_images, seed=args.seed)
    train = replace(ablation.TRAIN, iterations=args.iterations, seed=args.seed)
    ssl = replace(ablation.SSL, num_prototypes=args.prototypes)
    samples = gen_synthetic(synth)
    print(f"corpus: {len(samples)} images, 2 sources, 3 classes",
          file=sys.stderr)

    init_enc = init_train_state(VitConfig(), ssl, train).teacher_enc
    baseline = ablation.cross_source_acc(init_enc, samples)
    print(f"random-init 20-NN cross-source accuracy: {baseline:.4f}",
          file=sys.stderr)

    rows = []
    for mode in args.modes:
        t0 = time.time()
        logging.info("centering %s", mode)
        arm = ablation.run_arm(mode, samples, ssl, train)
        history = arm["loss_history"]
        rows.append({
            "mode": mode,
            "final_loss": history[-1] if history else float("nan"),
            "entropy": arm["entropy"],
            "marginal_dev": arm["marginal_dev"],
            "knn20_cross_source": arm["cross_source_acc"],
            "seconds": round(time.time() - t0, 1),
        })

    max_entropy = np.log(args.prototypes)
    header = (f"{'mode':>9}  {'loss':>7}  {'entropy':>8}  {'marg.dev':>9}  "
              f"{'20-NN':>6}  {'vs init':>8}  {'sec':>6}")
    print(header)
    print("-" * len(header))
    for r in rows:
        print(f"{r['mode']:>9}  {r['final_loss']:7.4f}  "
              f"{r['entropy']:8.4f}  {r['marginal_dev']:9.2e}  "
              f"{r['knn20_cross_source']:6.4f}  "
              f"{(r['knn20_cross_source'] - baseline) * 100:+7.1f}pp  "
              f"{r['seconds']:6.1f}")
    print(f"(entropy ceiling ln K = {max_entropy:.4f}; "
          f"baseline accuracy {baseline:.4f})")

    if args.out:
        write_table(args.out, tuple(rows[0]), (r.values() for r in rows))
        print(f"wrote {args.out}", file=sys.stderr)


if __name__ == "__main__":
    main()
