"""Independent reference implementations used to pin expected values.

Everything here is deliberately naive: double loops, dense eigensolvers,
hand-rolled confusion matrices. Slow is fine; these only run in tests.
"""

import numpy as np

import smearssl.tensor as T


def finite_diff_grad(fn, tensors: list[T.Tensor], h: float = 1e-5,
                     max_coords: int | None = None,
                     seed: int = 0) -> list[np.ndarray]:
    """Central finite differences of a scalar-valued ``fn`` at 64-bit.

    ``fn`` takes the tensors and returns a T.Tensor scalar. Returns one
    gradient array per input tensor. When max_coords is given, only a random
    coordinate subset is evaluated per tensor (the rest stay zero); the
    corresponding analytic entries should be compared at the same subset.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    grads = []
    for t in tensors:
        flat = t.data.reshape(-1)
        n = flat.size
        coords = np.arange(n)
        if max_coords is not None and n > max_coords:
            coords = rng.choice(n, size=max_coords, replace=False)
        g = np.zeros(n, dtype=np.float64)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + h
            hi = float(fn(tensors).item())
            flat[c] = orig - h
            lo = float(fn(tensors).item())
            flat[c] = orig
            g[c] = (hi - lo) / (2.0 * h)
        grads.append(g.reshape(t.data.shape))
    return grads


def rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    a = np.asarray(analytic, dtype=np.float64).reshape(-1)
    n = np.asarray(numeric, dtype=np.float64).reshape(-1)
    return float(np.max(np.abs(a - n) / np.maximum(1.0, np.abs(n))))


def grad_check(fn, tensors: list[T.Tensor], h: float = 1e-5,
               max_coords: int | None = None, seed: int = 0) -> float:
    """Runs the tape backward and compares against central differences.

    Returns the max relative error over the checked coordinates.
    """
    for t in tensors:
        t.grad = None
    with T.Tape() as tape:
        out = fn(tensors)
        tape.backward(out)
    analytic = [t.grad if t.grad is not None else np.zeros_like(t.data)
                for t in tensors]
    numeric = finite_diff_grad(fn, tensors, h=h, max_coords=max_coords,
                               seed=seed)
    worst = 0.0
    rng = np.random.Generator(np.random.PCG64(seed))
    for t, a, nmr in zip(tensors, analytic, numeric):
        n = t.data.size
        if max_coords is not None and n > max_coords:
            coords = rng.choice(n, size=max_coords, replace=False)
            mask = np.zeros(n, dtype=bool)
            mask[coords] = True
            a = np.where(mask.reshape(t.data.shape), a, 0.0)
        worst = max(worst, rel_err(a, nmr))
    return worst


def naive_sinkhorn(logits: np.ndarray, temp: float, iters: int) -> np.ndarray:
    """Literal transcription of the normalization rounds."""
    q = np.exp((logits.astype(np.float64) - logits.max()) / temp)
    b, k = q.shape
    for _ in range(iters):
        q = q / q.sum(axis=0, keepdims=True) * (b / k)
        q = q / q.sum(axis=1, keepdims=True)
    return q


def naive_metrics(y_true: list[str], y_pred: list[str]) -> dict[str, float]:
    classes = sorted(set(y_true) | set(y_pred))
    idx = {c: i for i, c in enumerate(classes)}
    m = len(classes)
    conf = np.zeros((m, m), dtype=np.int64)
    for t, p in zip(y_true, y_pred):
        conf[idx[t], idx[p]] += 1
    acc = float(np.trace(conf)) / len(y_true)
    recalls, f1s, supports = [], [], []
    for i in range(m):
        support = conf[i].sum()
        tp = conf[i, i]
        fp = conf[:, i].sum() - tp
        fn = support - tp
        if support > 0:
            recalls.append(tp / support)
        prec = tp / (tp + fp) if tp + fp > 0 else 0.0
        rec = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec > 0 else 0.0
        f1s.append(f1)
        supports.append(support)
    bacc = float(np.mean(recalls))
    n = len(y_true)
    weighted = (np.array(supports, dtype=np.float64) / n) * np.array(f1s)
    wf1 = float(np.sum(weighted))
    return {"acc": acc, "bacc": bacc, "wf1": wf1}


def naive_knn(train_x: np.ndarray, train_y: list[str], test_x: np.ndarray,
              k: int, metric: str = "cosine") -> list[str]:
    """Double-loop reference with the same tie-break ladder as the package:
    most votes, then smallest summed distance among tied classes, then
    lexicographic class name. Under cosine a zero row stays zero (norms are
    clamped at 1e-12, as in the package), so its distance to any row is 1."""
    if metric == "cosine":
        tr = train_x / np.maximum(np.linalg.norm(train_x, axis=1, keepdims=True), 1e-12)
        te = test_x / np.maximum(np.linalg.norm(test_x, axis=1, keepdims=True), 1e-12)
    preds = []
    for i in range(len(test_x)):
        dists = []
        for j in range(len(train_x)):
            if metric == "cosine":
                d = 1.0 - float(np.dot(te[i], tr[j]))
            else:
                d = float(np.linalg.norm(test_x[i] - train_x[j]))
            dists.append((d, j))
        dists.sort(key=lambda p: (p[0], p[1]))
        top = dists[:k]
        votes: dict[str, int] = {}
        dsum: dict[str, float] = {}
        for d, j in top:
            c = train_y[j]
            votes[c] = votes.get(c, 0) + 1
            dsum[c] = dsum.get(c, 0.0) + d
        preds.append(min(votes, key=lambda c: (-votes[c], dsum[c], c)))
    return preds


def dense_pca(x: np.ndarray, n_components: int):
    """Eigendecomposition of the sample covariance, sign-fixed like the
    package (largest-magnitude entry positive)."""
    x = np.asarray(x, dtype=np.float64)
    mean = x.mean(axis=0)
    c = (x - mean).T @ (x - mean) / (x.shape[0] - 1)
    vals, vecs = np.linalg.eigh(c)
    order = np.argsort(vals)[::-1][:n_components]
    comps = vecs[:, order].T.copy()
    for r in range(comps.shape[0]):
        j = np.argmax(np.abs(comps[r]))
        if comps[r, j] < 0:
            comps[r] = -comps[r]
    return comps, vals[order], mean


def patch_count_formula(height: int, width: int, patch: int) -> int:
    if min(height, width) < patch:
        scale = patch / min(height, width)
        height = int(round(height * scale))
        width = int(round(width * scale))
    return (height // patch) * (width // patch)
