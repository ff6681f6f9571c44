"""Computations made apart from the library, used to check its outputs.

Only numpy and the standard library here: the checks must not lean on the
code they check.
"""

from __future__ import annotations

import numpy as np


def metrics_from_confusion(y_true: list[str], y_pred: list[str]) -> dict[str, float]:
    """Accuracy, balanced accuracy and support-weighted F1 from a confusion
    matrix over the sorted union of true and predicted classes."""
    classes = sorted(set(y_true) | set(y_pred))
    index = {c: i for i, c in enumerate(classes)}
    conf = np.zeros((len(classes), len(classes)), dtype=np.int64)
    np.add.at(conf, ([index[c] for c in y_true], [index[c] for c in y_pred]), 1)
    n = int(conf.sum())
    support = conf.sum(axis=1)
    predicted = conf.sum(axis=0)
    recalls, wf1 = [], 0.0
    for i in range(len(classes)):
        if support[i] == 0:
            continue
        tp = int(conf[i, i])
        recall = tp / int(support[i])
        precision = tp / int(predicted[i]) if predicted[i] else 0.0
        f1 = (2 * precision * recall / (precision + recall)
              if precision + recall > 0 else 0.0)
        recalls.append(recall)
        wf1 += (int(support[i]) / n) * f1
    return {"acc": int(np.trace(conf)) / n, "bacc": sum(recalls) / len(recalls),
            "wf1": wf1}


def knn_cosine(train_x: np.ndarray, train_y: list[str], test_x: np.ndarray,
               k: int) -> list[str]:
    """Brute-force cosine k-NN. Neighbours are the k smallest distances, the
    lower row index first among equal ones. The prediction is the class with
    most votes, then the smaller summed distance, then the smaller name."""
    a = test_x.astype(np.float64)
    b = train_x.astype(np.float64)
    a = a / np.maximum(np.linalg.norm(a, axis=1, keepdims=True), 1e-12)
    b = b / np.maximum(np.linalg.norm(b, axis=1, keepdims=True), 1e-12)
    dist = 1.0 - a @ b.T
    rows = np.arange(len(train_y))
    preds = []
    for d in dist:
        nearest = np.lexsort((rows, d))[:k]
        tally: dict[str, list] = {}
        for j in nearest:
            entry = tally.setdefault(train_y[j], [0, 0.0])
            entry[0] += 1
            entry[1] += float(d[j])
        preds.append(min(tally, key=lambda c: (-tally[c][0], tally[c][1], c)))
    return preds


def metrics_match(got: dict[str, float], want: dict[str, float],
                  tol: float = 1e-12) -> bool:
    return set(got) >= set(want) and all(abs(got[m] - want[m]) <= tol for m in want)


def is_partition(folds: np.ndarray, k: int) -> bool:
    """Every row in exactly one of k non-empty folds."""
    folds = np.asarray(folds)
    return (folds.ndim == 1 and folds.dtype.kind in "iu"
            and bool(np.all((folds >= 0) & (folds < k)))
            and len(np.unique(folds)) == k)

