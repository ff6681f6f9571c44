"""Independent reference implementations used to pin expected values, and
the arithmetic and measurements only the tests need (parameter counts, the
eccentricity check of the synthetic generator).

Everything here is deliberately naive: double loops, dense eigensolvers,
hand-rolled confusion matrices. Slow is fine; these only run in tests.
"""

import io
import math
import struct
import tracemalloc
from collections import deque

import numpy as np

import smearssl.tensor as T
from smearssl.checkpoint import MAGIC, VERSION, _encode_config
from smearssl.errors import InputError
from smearssl.synthetic import (_BG_BASE, _CELL_BASE, _ECC_BANDS, _PIGMENT,
                                _RING_COLOR, CLASS_NAMES)
from smearssl.vit import VitConfig, VitEncoder, init_vit_params


def traced_memory(fn):
    """Runs ``fn()`` under tracemalloc; returns its result and the traced
    bytes it left allocated and at its peak, both above the start."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, now - base, peak - base


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


def reference_linear_probe(x: np.ndarray, y_index: np.ndarray, k: int,
                           reg_lambda: float, max_epochs: int, tol: float,
                           start=None):
    """The linear probe's objective minimized independently of the probe:
    row-major logits [n, k] = x @ w + b on the standardized float64 rows of
    x, an L2 penalty on w only, full-batch gradient descent with
    step-doubling Armijo backtracking from `start` = (w [d, k], b [k]), or
    from zero. Returns (w [d, k], b [k], epochs run, converged)."""
    n, d = x.shape
    rows = np.arange(n)
    onehot = np.eye(k)[y_index]
    if start is None:
        w, b = np.zeros((d, k)), np.zeros(k)
    else:
        w, b = (np.array(a, dtype=np.float64) for a in start)

    def forward(wm, bv):
        logits = x @ wm + bv
        logits -= logits.max(axis=1, keepdims=True)
        expz = np.exp(logits)
        probs = expz / expz.sum(axis=1, keepdims=True)
        ce = -np.log(np.maximum(probs[rows, y_index], 1e-300)).mean()
        return probs, ce + 0.5 * reg_lambda * float((wm * wm).sum())

    step = 1.0
    epochs = 0
    converged = False
    probs, value = forward(w, b)
    for epochs in range(1, max_epochs + 1):
        g = (probs - onehot) / n
        gw = x.T @ g + reg_lambda * w
        gb = g.sum(axis=0)
        gnorm_sq = float((gw * gw).sum() + (gb * gb).sum())
        if np.sqrt(gnorm_sq) < tol:
            converged = True
            break
        step = min(step * 2.0, 1e4)
        while step > 1e-12:
            w_new = w - step * gw
            b_new = b - step * gb
            probs_new, value_new = forward(w_new, b_new)
            if value_new <= value - 1e-4 * step * gnorm_sq:
                break
            step *= 0.5
        w, b, probs, value = w_new, b_new, probs_new, value_new
    return w, b, epochs, converged


def reference_kfold_assignments(labels: list[str], k: int, seed: int) -> np.ndarray:
    """Fold index per row, with a separate deal loop per branch: when every
    class has at least k members, each class in sorted order is shuffled and
    dealt round-robin; otherwise all rows are shuffled and dealt at once."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 11])))
    counts: dict[str, int] = {}
    for lab in labels:
        counts[lab] = counts.get(lab, 0) + 1
    folds = np.empty(len(labels), dtype=np.int64)
    if all(c >= k for c in counts.values()):
        for lab in sorted(counts):
            idx = np.array([i for i, l in enumerate(labels) if l == lab])
            rng.shuffle(idx)
            for pos, row in enumerate(idx):
                folds[row] = pos % k
    else:
        idx = np.arange(len(labels))
        rng.shuffle(idx)
        for pos, row in enumerate(idx):
            folds[row] = pos % k
    return folds


def reference_gelu(x: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GELU (tanh form) and its input gradient for upstream ``g``, written
    out as plain expressions: the float ops the in-place ``T.gelu`` must
    match bit for bit."""
    c = math.sqrt(2.0 / math.pi)  # a Python float, so float32 stays float32
    inner = c * (x + 0.044715 * (x * x * x))
    t = np.tanh(inner)
    y = 0.5 * x * (1.0 + t)
    dinner = c * (1.0 + 3 * 0.044715 * x**2)
    e = np.exp(-2.0 * np.abs(inner))
    sech2 = 4.0 * e / ((1.0 + e) * (1.0 + e))
    local = 0.5 * (1.0 + t) + 0.5 * x * sech2 * dinner
    return y, g * local


def reference_layernorm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray,
                        g: np.ndarray, eps: float = 1e-6) -> list[np.ndarray]:
    """Layernorm over the last axis, and its input, gain and bias gradients
    for upstream ``g``, written out as plain expressions: the float ops the
    in-place ``T.layernorm`` must match bit for bit."""
    d = x.shape[-1]
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    y = xhat * gain + bias
    gg = g * gain
    m1 = gg.mean(axis=-1, keepdims=True)
    m2 = (gg * xhat).mean(axis=-1, keepdims=True)
    gx = (gg - m1 - xhat * m2) * inv
    return [y, gx, (g * xhat).reshape(-1, d).sum(axis=0), g.reshape(-1, d).sum(axis=0)]


def reference_resize_bilinear(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resize by four fancy-index gathers per output pixel, one per
    corner: the float ops the separable ``augment.resize_bilinear`` must
    match byte for byte."""
    h, w = img.shape[:2]
    if (h, w) == (out_h, out_w):
        return img.copy()
    ys = (np.arange(out_h, dtype=np.float64) + 0.5) * (h / out_h) - 0.5
    xs = (np.arange(out_w, dtype=np.float64) + 0.5) * (w / out_w) - 0.5
    y0 = np.clip(np.floor(ys), 0, h - 1).astype(np.int64)
    x0 = np.clip(np.floor(xs), 0, w - 1).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = np.clip(ys - y0, 0.0, 1.0).astype(np.float32)[:, None, None]
    wx = np.clip(xs - x0, 0.0, 1.0).astype(np.float32)[None, :, None]
    a = img[y0[:, None], x0[None, :]]
    b = img[y0[:, None], x1[None, :]]
    c = img[y1[:, None], x0[None, :]]
    d = img[y1[:, None], x1[None, :]]
    top = a * (1 - wx) + b * wx
    bot = c * (1 - wx) + d * wx
    return (top * (1 - wy) + bot * wy).astype(np.float32)


def reference_write_checkpoint(path: str, cfg: VitConfig,
                               params: dict[str, np.ndarray]) -> None:
    """The RDCK file built whole in memory, then written in one call: the
    bytes the streaming ``checkpoint.write_checkpoint`` must reproduce."""
    buf = io.BytesIO()
    buf.write(MAGIC)
    buf.write(struct.pack("<H", VERSION))
    cfg_bytes = _encode_config(cfg)
    buf.write(struct.pack("<I", len(cfg_bytes)))
    buf.write(cfg_bytes)
    buf.write(struct.pack("<I", len(params)))
    for name in params:
        arr = np.ascontiguousarray(params[name], dtype=np.float32)
        nb = name.encode("utf-8")
        if len(nb) > 0xFFFF:
            raise InputError(f"parameter name too long: {name[:40]}...")
        buf.write(struct.pack("<H", len(nb)))
        buf.write(nb)
        buf.write(struct.pack("<B", arr.ndim))
        for ext in arr.shape:
            buf.write(struct.pack("<I", ext))
        buf.write(arr.tobytes(order="C"))
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


def reference_softmax(a: T.Tensor) -> T.Tensor:
    """Softmax over the last axis as one tape record: the generic step that
    ``T.attention`` fuses."""
    z = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=-1, keepdims=True)
    out = T.Tensor(s)

    def backward(g):
        a.cell.accumulate(s * (g - (g * s).sum(axis=-1, keepdims=True)))

    return T._maybe_record(out, (a,), backward)


def reference_dino_loss(student_logits: list[T.Tensor], targets: list[np.ndarray],
                        student_temp: float) -> T.Tensor:
    """The view-pair cross-entropy in its per-view list form: one [B, K]
    tensor and one target array per view, each view's mean taken on its
    own. ``objective.dino_loss`` on the stacked [2B, K] rows must match it
    bit for bit, forward and backward."""
    inv_temp = 1.0 / student_temp

    def ce(tgt: np.ndarray, slog: T.Tensor) -> T.Tensor:
        logp = T.log_softmax(slog * inv_temp, axis=-1)
        p = T.Tensor(tgt.astype(slog.dtype, copy=False))
        return T.neg(T.mean(T.tensor_sum(p * logp, axis=-1)))

    return (ce(targets[0], student_logits[1])
            + ce(targets[1], student_logits[0])) * 0.5


def reference_attention(tokens: T.Tensor, qkv_w: T.Tensor, qkv_b: T.Tensor,
                        proj_w: T.Tensor, proj_b: T.Tensor, heads: int,
                        queries: int | None = None) -> T.Tensor:
    """Multi-head self-attention over [B, T, D] tokens, composed from the
    generic primitives one step at a time: the form the fused
    ``T.linear``/``T.attention`` records must match bit for bit. With
    ``queries=n``, q is narrowed to the first n tokens: [B, n, D] out."""
    b, t, d = tokens.shape
    n = t if queries is None else queries
    dh = d // heads
    qkv = T.matmul(tokens, qkv_w) + qkv_b  # [B,T,3D]
    qkv = T.reshape(qkv, (b, t, 3, heads, dh))
    qkv = T.transpose(qkv, (2, 0, 3, 1, 4))  # [3,B,h,T,dh]
    q = T.reshape(T.narrow(qkv, 0, 0, 1), (b, heads, t, dh))
    if n < t:
        q = T.narrow(q, 2, 0, n)  # [B,h,n,dh]
    k = T.reshape(T.narrow(qkv, 0, 1, 1), (b, heads, t, dh))
    v = T.reshape(T.narrow(qkv, 0, 2, 1), (b, heads, t, dh))
    scores = T.matmul(q, T.transpose(k, (0, 1, 3, 2))) * (1.0 / np.sqrt(dh))
    attn = reference_softmax(scores)
    ctx = T.matmul(attn, v)  # [B,h,n,dh]
    ctx = T.reshape(T.transpose(ctx, (0, 2, 1, 3)), (b, n, d))
    return T.matmul(ctx, proj_w) + proj_b


def reference_render_cell(img: np.ndarray, mask: np.ndarray, overlay: np.ndarray,
                          label: int, cls: int, cx: float, cy: float, r: float,
                          rng: np.random.Generator) -> None:
    """One synthetic cell computed over the whole frame: the drop-in for
    ``synthetic._render_cell`` that its windowed form must match byte for
    byte, with the same RNG draws in the same order."""
    size = img.shape[0]
    lo, hi = _ECC_BANDS[cls]
    ecc = rng.uniform(lo, hi)
    theta = rng.uniform(0.0, np.pi)
    a = r
    b = r * np.sqrt(1.0 - ecc**2)
    ys, xs = np.mgrid[0:size, 0:size]
    dx, dy = xs - cx, ys - cy
    xr = np.cos(theta) * dx + np.sin(theta) * dy
    yr = -np.sin(theta) * dx + np.cos(theta) * dy
    rho = np.sqrt((xr / a) ** 2 + (yr / b) ** 2)
    rho_lim = np.ones_like(rho)
    if CLASS_NAMES[cls] == "echinocyte":
        phi = np.arctan2(yr / b, xr / a)
        rho_lim = 1.0 + 0.16 * np.cos(9 * phi + rng.uniform(0, 2 * np.pi))
    inside = rho <= rho_lim

    color = (_CELL_BASE + rng.uniform(-0.04, 0.04, size=3)) * _PIGMENT[cls]
    if CLASS_NAMES[cls] == "spherocyte":
        color = color - 0.10
    color = np.clip(color, 0.02, 0.95)
    cell = np.where(inside[..., None], color[None, None, :], img)

    name = CLASS_NAMES[cls]
    if name in ("disc", "parasite", "target", "ovalocyte", "echinocyte"):
        pallor = 0.35 * np.exp(-((rho / 0.45) ** 2))
        cell = cell + (inside * pallor)[..., None] * (_BG_BASE - color)[None, None, :]
    elif name == "stomatocyte":
        slit = inside & (np.abs(yr) < 0.22 * b) & (np.abs(xr) < 0.6 * a)
        cell = cell + slit[..., None] * 0.4 * (_BG_BASE - color)[None, None, :]
    if name == "target":
        dot = rho < 0.28
        cell = np.where(dot[..., None], color[None, None, :] * 0.7, cell)

    img[:] = cell
    mask[inside] = label

    if name == "parasite" and rng.random() < 0.9:
        off = 0.35 * r
        ang = rng.uniform(0, 2 * np.pi)
        rcx, rcy = cx + off * np.cos(ang), cy + off * np.sin(ang)
        rr = np.sqrt((xs - rcx) ** 2 + (ys - rcy) ** 2)
        ring = (rr >= 0.16 * r) & (rr <= 0.30 * r) & inside
        img[ring] = _RING_COLOR
        overlay |= ring


def vit_param_count(cfg: VitConfig) -> int:
    """Closed-form parameter count for an encoder built from ``cfg``."""
    d = cfg.embed_dim
    h = cfg.mlp_hidden
    stem = cfg.patch_size**2 * cfg.in_channels * d + d
    pos = (cfg.num_patches + 1) * d
    cls = d
    block = (
        2 * d  # ln1
        + d * 3 * d + 3 * d  # fused qkv
        + d * d + d  # attention output projection
        + 2 * d  # ln2
        + d * h + h + h * d + d  # mlp
    )
    return stem + pos + cls + cfg.depth * block + 2 * d


def seeded_encoder(cfg: VitConfig, seed: int = 0, dtype=np.float32) -> VitEncoder:
    """A fresh encoder whose parameters `init_vit_params` draws from PCG64(seed),
    cast to `dtype`."""
    params = init_vit_params(cfg, np.random.Generator(np.random.PCG64(seed)))
    return VitEncoder(cfg, {k: T.Tensor(v.data.astype(dtype), requires_grad=True)
                            for k, v in params.items()})


def encoder_param_count(enc: VitEncoder) -> int:
    """Parameters an instantiated encoder actually holds."""
    return sum(int(p.data.size) for p in enc.params.values())


def reference_size_configs() -> dict[str, VitConfig]:
    """The three published model sizes (224 px, patch 14, mlp ratio 4).

    Used only for parameter-count arithmetic; never instantiated.
    """
    return {
        "small": VitConfig(224, 14, 384, 12, 6, 4.0),
        "base": VitConfig(224, 14, 768, 12, 12, 4.0),
        "large": VitConfig(224, 14, 1024, 24, 16, 4.0),
    }


def label_components(binary: np.ndarray) -> np.ndarray:
    """4-connected component labeling by BFS; small images only."""
    h, w = binary.shape
    labels = np.zeros((h, w), dtype=np.int32)
    nxt = 0
    for sy in range(h):
        for sx in range(w):
            if not binary[sy, sx] or labels[sy, sx]:
                continue
            nxt += 1
            queue = deque([(sy, sx)])
            labels[sy, sx] = nxt
            while queue:
                y, x = queue.popleft()
                for ny, nx_ in ((y - 1, x), (y + 1, x), (y, x - 1), (y, x + 1)):
                    if 0 <= ny < h and 0 <= nx_ < w and binary[ny, nx_] \
                            and not labels[ny, nx_]:
                        labels[ny, nx_] = nxt
                        queue.append((ny, nx_))
    return labels


def component_eccentricity(ys: np.ndarray, xs: np.ndarray) -> float:
    """Eccentricity from the second moments of a pixel set."""
    if ys.size < 3:
        return 0.0
    pts = np.stack([ys - ys.mean(), xs - xs.mean()])
    cov = pts @ pts.T / ys.size
    evals = np.linalg.eigvalsh(cov)
    lo, hi = float(evals[0]), float(evals[1])
    if hi <= 0:
        return 0.0
    return float(np.sqrt(max(0.0, 1.0 - lo / hi)))


def eccentricity_feature(pixels: np.ndarray, min_pixels: int = 12) -> float:
    """Mean component eccentricity of the dark foreground; the hand-crafted
    feature that certifies the default classes are separable."""
    luma = pixels.astype(np.float64) @ np.array([0.299, 0.587, 0.114])
    fg = luma < (np.median(luma) - 20.0)
    labels = label_components(fg)
    eccs = []
    for lab in range(1, labels.max() + 1):
        ys, xs = np.nonzero(labels == lab)
        if ys.size >= min_pixels:
            eccs.append(component_eccentricity(ys, xs))
    if not eccs:
        return 0.0
    return float(np.mean(eccs))


def classify_by_eccentricity(pixels: np.ndarray) -> int:
    """Threshold rule for the default 3-class configuration: disc below 0.35,
    echinocyte between, sickle above 0.72."""
    ecc = eccentricity_feature(pixels)
    if ecc < 0.35:
        return 0
    if ecc < 0.72:
        return 2
    return 1
