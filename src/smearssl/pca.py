"""Top-3 PCA of the sample covariance, and the patch-token feature map
renderer."""

from __future__ import annotations

import numpy as np

from .errors import InputError, ProtocolError
from .vit import VitEncoder


def top_components(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows of `x` are observations. Returns (top three components [3,d] with
    orthonormal rows, explained variances descending, column mean [d]).

    One symmetric eigendecomposition of the explicit sample covariance.
    Component signs are fixed so the entry of largest magnitude is positive;
    variances below zero (rounding on rank-deficient data) read as 0.
    """
    x = np.asarray(x, dtype=np.float64)
    n, d = x.shape
    if n < 2 or d < 3:
        raise ProtocolError(f"cannot extract 3 components from {n}x{d} data")
    mean = x.mean(axis=0)
    xc = x - mean
    cov = xc.T @ xc / (n - 1)
    lam, vecs = np.linalg.eigh(cov)  # ascending
    top = slice(None, -4, -1)  # the last three, largest first
    comps = vecs[:, top].T
    peak = np.argmax(np.abs(comps), axis=1)
    comps = comps * np.sign(comps[np.arange(3), peak])[:, None]
    return comps, np.maximum(lam[top], 0.0), mean


def pca_map(encoder: VitEncoder,
            image: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Projects the encoder's patch tokens for one uint8 [H,W,3] image onto
    their top three principal components and renders them, one per channel, as
    an RGB map at input resolution, the way DINOv2 shows its patch features.

    Returns (rgb uint8 [H,W,3], components [3,d], explained variances [3]).
    """
    cfg = encoder.cfg
    if image.dtype != np.uint8:
        raise InputError(f"pca_map needs uint8 pixels, got {image.dtype}")
    img = image.astype(np.float32) / 255.0
    tokens = encoder.forward_tokens(img[None]).data[0].astype(np.float64)  # [N, d]
    comps, variances, mean = top_components(tokens)
    proj = (tokens - mean) @ comps.T  # [N, 3]

    g = cfg.grid
    channels = []
    for col in proj.T:
        lo, hi = float(col.min()), float(col.max())
        if hi - lo > 0:
            scaled = (col - lo) / (hi - lo) * 255.0
        else:
            scaled = np.zeros_like(col)
        channels.append(scaled.reshape(g, g))
    small = np.stack(channels, axis=-1)
    rgb = np.repeat(np.repeat(small, cfg.patch_size, axis=0), cfg.patch_size, axis=1)
    return np.clip(np.rint(rgb), 0, 255).astype(np.uint8), comps, variances
