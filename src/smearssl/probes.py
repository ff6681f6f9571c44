"""Shallow classifiers over frozen embeddings: a multinomial logistic probe
and an exact k-nearest-neighbor voter.

Both are deliberately plain: full-batch float64 math, no stochastic parts, so
results are deterministic on one machine and BLAS build. Another BLAS may
round a matrix product differently in the last bit.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingSet
from .errors import ParameterError, ProtocolError
from .metrics import compute_metrics

log = logging.getLogger("smearssl.probes")


def _classes(train: EmbeddingSet, test: EmbeddingSet) -> tuple[list[str], np.ndarray]:
    """The checks both classifiers make first: one dimension, and a label on
    every row. Returns the sorted train classes and each train row's index
    into them."""
    if train.dim != test.dim:
        raise ProtocolError(f"dimension mismatch: train {train.dim}, test {test.dim}")
    for role, emb in (("train", train), ("test", test)):
        if None in emb.labels:
            raise ProtocolError(f"{role} row {emb.labels.index(None)} has no label")
    classes = sorted(set(train.labels))
    cindex = {c: i for i, c in enumerate(classes)}
    return classes, np.array([cindex[c] for c in train.labels], dtype=np.int64)


def _standardize_stats(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    return mean, std


@dataclass
class ProbeResult:
    predictions: list[str]
    metrics: dict[str, float]
    epochs_run: int  # Newton iterations


def _fit_softmax(x: np.ndarray, y_index: np.ndarray, k: int, reg_lambda: float,
                 tol: float) -> tuple[np.ndarray, np.ndarray, int]:
    """Fits softmax regression with an L2 penalty on W to the standardized
    float64 rows of x [n, d], labels y_index in [0, k), by damped Newton on
    theta = [W | b], [k, d + 1], class-major: x becomes [d + 1, n] with a
    row of ones, the logits [k, n]. Softmax ignores a common bias shift, so
    the Hessian gets the projector onto common shifts of theta's rows, which
    changes no step: the iterates and gradients keep a zero class mean. The
    step halves from 1 until the Armijo test passes; the logits are linear in
    it. The fit stops once half the Newton decrement is within the rounding
    of f (taking that step: no comparison of f can judge it), once no step
    lowers f, or once the gradient norm is below tol. Returns W, b, iterations."""
    n, d = x.shape
    m = d + 1
    xa = np.vstack([x.T, np.ones((1, n))])
    label = y_index * n + np.arange(n)  # flat index of [y_index, rows] in [k, n]
    onehot = np.eye(k)[:, y_index]
    penalty = np.r_[np.full(d, reg_lambda), 0.0]  # per column of theta
    fixed = np.kron(np.full((k, k), 1.0 / k), np.eye(m)).reshape(k, m, k, m)
    fixed.flat[::k * m + 1] += np.tile(penalty, k)

    def forward(theta, logits):
        probs = np.exp(logits - logits.max(axis=0))
        probs /= probs.sum(axis=0)
        ce = -np.log(np.maximum(probs.take(label), 1e-300)).sum() / n
        grad = (probs - onehot) @ xa.T / n + penalty * theta
        return probs, ce + 0.5 * float((penalty * theta * theta).sum()), grad

    theta, logits = np.zeros((k, m)), np.zeros((k, n))
    probs, value, grad = forward(theta, logits)
    iters = 0
    while np.linalg.norm(grad) >= tol:
        # Block (c, c') is xa diag(p_c (delta_cc' - p_c') / n) xa^T; a diagonal
        # block is minus the sum of its row's others: k(k-1)/2 products A A^T.
        hess = fixed.copy()
        for c, c2 in itertools.combinations(range(k), 2):
            xs = xa * np.sqrt(probs[c] * probs[c2] / n)
            block = xs @ xs.T
            hess[[c, c2], :, [c2, c]] -= block
            hess[[c, c2], :, [c, c2]] += block
        step = np.linalg.solve(hess.reshape(k * m, -1), -grad.ravel()).reshape(k, m)
        slope = float(grad.ravel() @ step.ravel())
        iters += 1
        if -slope / 2 <= 4 * np.finfo(np.float64).eps * max(abs(value), 1.0):
            theta += step
            break
        dlogits = step @ xa
        for t in 0.5 ** np.arange(41):
            trial = forward(theta + t * step, logits + t * dlogits)
            if trial[1] <= value + 1e-4 * t * slope:
                break
        else:
            break
        theta += t * step
        logits += t * dlogits
        probs, value, grad = trial
    return theta[:, :d], theta[:, d], iters


def linear_probe(train: EmbeddingSet, test: EmbeddingSet,
                 reg_lambda: float = 1e-4, tol: float = 0.0) -> ProbeResult:
    """Softmax regression, L2 penalty on the weights (never the bias), on the
    train-set standardized features, fitted to its optimum by `_fit_softmax`.
    Raises ParameterError for a reg_lambda not finite and > 0 (unpenalized,
    a separable train set has no optimum) or a negative or non-finite tol."""
    classes, y_index = _classes(train, test)
    if not (np.isfinite(reg_lambda) and reg_lambda > 0):
        raise ParameterError(f"reg_lambda must be finite and > 0, got {reg_lambda}")
    if not (np.isfinite(tol) and tol >= 0):
        raise ParameterError(f"tol must be finite and >= 0, got {tol}")
    if len(classes) < 2:
        raise ProtocolError(f"train set has {len(classes)} class(es); need >= 2")
    unseen = sorted(set(test.labels) - set(classes))
    if unseen:
        log.warning("test classes absent from training: %s (always scored wrong)",
                    unseen)

    x = train.vectors.astype(np.float64)
    mean, std = _standardize_stats(x)
    x = (x - mean) / std
    w, b, iters = _fit_softmax(x, y_index, len(classes), reg_lambda, tol)

    z = (test.vectors.astype(np.float64) - mean) / std
    preds = [classes[i] for i in (w @ z.T + b[:, None]).argmax(axis=0)]
    return ProbeResult(predictions=preds, metrics=compute_metrics(test.labels, preds),
                       epochs_run=iters)


def _l2_rows(x: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    return x / np.maximum(norms, 1e-12)


# `knn` takes test rows in chunks of this many distances (32 MB of float64).
_CHUNK_DISTANCES = 1 << 22


@dataclass
class KnnResult:
    predictions: list[str]
    metrics: dict[str, float]


def _distances(x: np.ndarray, train_x: np.ndarray, metric: str) -> np.ndarray:
    """float64 distances from the rows of x to the rows of train_x, which is
    l2-normalized already under cosine."""
    x = x.astype(np.float64)
    if metric == "cosine":
        dist = _l2_rows(x) @ train_x.T
        return np.subtract(1.0, dist, out=dist)
    sq = (x * x).sum(1)[:, None] - 2 * x @ train_x.T + (train_x * train_x).sum(1)[None, :]
    return np.sqrt(np.maximum(sq, 0.0))


def _nearest(dist: np.ndarray, k: int) -> np.ndarray:
    """Columns of each row's k smallest distances, in ascending distance: the
    neighbors of ``np.argsort(row, kind="stable")[:k]``. Equal distances may
    come in another order, which changes no vote and no summed distance."""
    part = np.argpartition(dist, k - 1, axis=1)[:, :k].copy()  # frees the rest
    part_dist = np.take_along_axis(dist, part, axis=1)
    near = np.take_along_axis(part, np.argsort(part_dist, axis=1), axis=1)
    # Where equal distances straddle the k-th place, argpartition chose among
    # them arbitrarily; the stable sort takes the lowest train rows.
    kth = part_dist.max(axis=1, keepdims=True)
    straddle = np.flatnonzero(np.count_nonzero(dist <= kth, axis=1) > k)
    near[straddle] = np.argsort(dist[straddle], axis=1, kind="stable")[:, :k]
    return near


def knn(train: EmbeddingSet, test: EmbeddingSet, k: int = 20,
        metric: str = "cosine") -> KnnResult:
    """Exact brute-force k-NN. Cosine distance on l2-normalized rows by
    default. A row's k neighbors are its k smallest distances, equal ones in
    train-row order; most votes win, then the smaller summed distance among
    the tied classes, then the lexicographically smaller class name. Test
    rows go in chunks of about 2^22 distances, so memory is bounded in n_test."""
    classes, y_index = _classes(train, test)
    if len(train) == 0:
        raise ProtocolError("empty train set")
    if not 1 <= k <= len(train):
        raise ParameterError(f"k must lie in [1, {len(train)}], got {k}")
    if metric not in ("cosine", "euclidean"):
        raise ParameterError(f"unknown distance metric {metric!r}")

    xtr = train.vectors.astype(np.float64)
    if metric == "cosine":
        xtr = _l2_rows(xtr)
    preds: list[str] = []
    step = max(1, _CHUNK_DISTANCES // len(train))
    for lo in range(0, len(test), step):
        dist = _distances(test.vectors[lo:lo + step], xtr, metric)
        near = _nearest(dist, k)
        # One bin per (row, class), filled in neighbor order, so each summed
        # distance adds its terms in that order, starting from 0.0.
        bins = (np.arange(len(dist))[:, None] * len(classes) + y_index[near]).ravel()
        size = len(dist) * len(classes)
        votes = np.bincount(bins, minlength=size).reshape(-1, len(classes))
        dsum = np.bincount(bins, np.take_along_axis(dist, near, axis=1).ravel(),
                           size).reshape(votes.shape)
        tied = votes == votes.max(axis=1, keepdims=True)
        best = np.where(tied, dsum, np.inf).min(axis=1, keepdims=True)
        preds += [classes[i] for i in np.argmax(tied & (dsum == best), axis=1)]
    return KnnResult(predictions=preds, metrics=compute_metrics(test.labels, preds))
