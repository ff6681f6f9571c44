"""Classification metrics: accuracy, balanced accuracy, weighted F1."""

from __future__ import annotations

import numpy as np

from .errors import DimensionError


def compute_metrics(y_true: list, y_pred: list) -> dict[str, float]:
    """Acc is plain agreement. bAcc averages per-class recall over classes
    that actually occur in y_true. wF1 weights per-class F1 by true support,
    with F1 defined as 0 where precision + recall is 0."""
    if len(y_true) != len(y_pred):
        raise DimensionError(
            f"length mismatch: {len(y_true)} true vs {len(y_pred)} predicted")
    if not y_true:
        raise DimensionError("metrics need at least one sample")
    n = len(y_true)
    yt = [str(c) for c in y_true]
    yp = [str(c) for c in y_pred]
    cindex = {c: i for i, c in enumerate(sorted(set(yt) | set(yp)))}
    m = len(cindex)
    conf = np.bincount([cindex[t] * m + cindex[p] for t, p in zip(yt, yp)],
                       minlength=m * m).reshape(m, m)
    seen = conf.sum(axis=1) > 0
    tp, support, predicted = (np.diag(conf)[seen], conf.sum(axis=1)[seen],
                              conf.sum(axis=0)[seen])
    hit = tp > 0
    recall = tp / support
    precision = np.divide(tp, predicted, out=np.zeros(len(tp)), where=hit)
    f1 = np.divide(2 * precision * recall, precision + recall,
                   out=np.zeros(len(tp)), where=hit)
    # cumsum adds the class terms one at a time in class order, like a
    # running total; np.sum adds pairwise and may round differently.
    return {"acc": int(conf.trace()) / n, "bacc": sum(recall.tolist()) / len(recall),
            "wf1": float(np.cumsum(support / n * f1)[-1])}


METRIC_NAMES = ("acc", "bacc", "wf1")
