"""View generation: two global random resized crops per image, each passed
through a small named augmentation chain (flip, color jitter, grayscale,
blur, solarize), all on float images in [0, 1]. Replaces the pixel-level
recipe of the upstream framework with a configurable ordered chain. There are
no local crops: the cells are small enough that they add nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError


@dataclass(frozen=True)
class CropSpec:
    global_size: int = 64
    global_scale: tuple[float, float] = (0.4, 1.0)
    flip_p: float = 0.5
    jitter_p: float = 0.8
    jitter_strength: float = 0.3
    grayscale_p: float = 0.1
    blur_p: float = 0.3
    blur_sigma: float = 1.0
    solarize_p: float = 0.1
    solarize_threshold: float = 0.5

    def __post_init__(self):
        lo, hi = self.global_scale
        if not (0.0 < lo <= hi <= 1.0):
            raise ParameterError(f"global_scale must satisfy 0 < lo <= hi <= 1, got ({lo}, {hi})")
        if self.global_size < 1:
            raise ParameterError("global_size must be >= 1")
        for name in ("flip_p", "jitter_p", "grayscale_p", "blur_p", "solarize_p"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ParameterError(f"{name} must lie in [0, 1], got {p}")
        for name in ("jitter_strength", "blur_sigma", "solarize_threshold"):
            if not np.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite, got {getattr(self, name)}")
        if self.jitter_strength < 0 or self.blur_sigma <= 0:
            raise ParameterError("jitter_strength must be >= 0 and blur_sigma > 0")
        # gaussian_blur stacks 2 * radius + 1 shifted copies of the view
        radius = _blur_radius(self.blur_sigma)
        if self.blur_p > 0 and radius >= self.global_size:
            raise ParameterError(f"blur_sigma {self.blur_sigma} gives blur radius {radius}, "
                                 f"not below the crop side {self.global_size}")


def _blur_radius(sigma: float) -> int:
    return max(1, int(round(3 * sigma)))


def _taps(n: int, out: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The two source indices and the float32 weight of the second, for
    each of `out` half-pixel-centre samples over `n` pixels."""
    pos = (np.arange(out, dtype=np.float64) + 0.5) * (n / out) - 0.5
    i0 = np.clip(np.floor(pos), 0, n - 1).astype(np.int64)
    i1 = np.minimum(i0 + 1, n - 1)
    return i0, i1, np.clip(pos - i0, 0.0, 1.0).astype(np.float32)


def resize_bilinear(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """[H,W,C] float32 -> [out_h,out_w,C], half-pixel-center sampling. The
    identity geometry returns the input unchanged so identity pipelines stay
    bit-exact. Separable: each source row is interpolated along x once, then
    rows are blended along y, with the float32 ops of the four-corner form."""
    h, w = img.shape[:2]
    if (h, w) == (out_h, out_w):
        return img.copy()
    y0, y1, wy = _taps(h, out_h)
    x0, x1, wx = _taps(w, out_w)
    wx, wy = wx[:, None], wy[:, None, None]
    rows = img[:, x0] * (1 - wx) + img[:, x1] * wx
    return rows[y0] * (1 - wy) + rows[y1] * wy


def random_resized_crop(img: np.ndarray, size: int, scale: tuple[float, float],
                        rng: np.random.Generator) -> np.ndarray:
    """Crop a random area fraction at the source aspect ratio, then resize.
    scale == (1, 1) selects the full frame, so the op reduces to a resize."""
    h, w = img.shape[:2]
    s = float(rng.uniform(scale[0], scale[1]))
    ch = max(1, int(round(h * np.sqrt(s))))
    cw = max(1, int(round(w * np.sqrt(s))))
    ch, cw = min(ch, h), min(cw, w)
    y0 = int(rng.integers(0, h - ch + 1))
    x0 = int(rng.integers(0, w - cw + 1))
    return resize_bilinear(img[y0:y0 + ch, x0:x0 + cw], size, size)


def color_jitter(img: np.ndarray, strength: float, rng: np.random.Generator) -> np.ndarray:
    fb = float(rng.uniform(1 - strength, 1 + strength))
    fc = float(rng.uniform(1 - strength, 1 + strength))
    fs = float(rng.uniform(1 - strength, 1 + strength))
    out = img * fb
    mean = out.mean(dtype=np.float64)
    out = (out - mean) * fc + mean
    luma = out @ np.array([0.299, 0.587, 0.114], dtype=np.float32)
    out = (out - luma[..., None]) * fs + luma[..., None]
    return np.clip(out, 0.0, 1.0).astype(np.float32)


def to_grayscale(img: np.ndarray) -> np.ndarray:
    luma = img @ np.array([0.299, 0.587, 0.114], dtype=np.float32)
    return np.repeat(luma[..., None], 3, axis=2)


def gaussian_blur(img: np.ndarray, sigma: float) -> np.ndarray:
    radius = _blur_radius(sigma)
    xs = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-0.5 * (xs / sigma) ** 2)
    kernel = (kernel / kernel.sum()).astype(np.float32)
    pad = [(radius, radius), (0, 0), (0, 0)]
    out = np.pad(img, pad, mode="reflect")
    out = np.einsum("k,khwc->hwc", kernel,
                    np.stack([out[i:i + img.shape[0]] for i in range(2 * radius + 1)]))
    out = np.pad(out, [(0, 0), (radius, radius), (0, 0)], mode="reflect")
    out = np.einsum("k,hkwc->hwc", kernel,
                    np.stack([out[:, i:i + img.shape[1]] for i in range(2 * radius + 1)], axis=1))
    return np.clip(out, 0.0, 1.0).astype(np.float32)


def solarize(img: np.ndarray, threshold: float) -> np.ndarray:
    return np.where(img >= threshold, 1.0 - img, img).astype(np.float32)


def _augment_chain(view: np.ndarray, spec: CropSpec, rng: np.random.Generator) -> np.ndarray:
    if spec.flip_p > 0 and rng.random() < spec.flip_p:
        view = view[:, ::-1].copy()
    if spec.jitter_p > 0 and rng.random() < spec.jitter_p:
        view = color_jitter(view, spec.jitter_strength, rng)
    if spec.grayscale_p > 0 and rng.random() < spec.grayscale_p:
        view = to_grayscale(view)
    if spec.blur_p > 0 and rng.random() < spec.blur_p:
        sigma = float(rng.uniform(0.1, spec.blur_sigma))
        view = gaussian_blur(view, sigma)
    if spec.solarize_p > 0 and rng.random() < spec.solarize_p:
        view = solarize(view, spec.solarize_threshold)
    return view


def multicrop(image: np.ndarray, spec: CropSpec, rng: np.random.Generator) -> list[np.ndarray]:
    """8-bit [H,W,3] image -> two global float32 views in [0,1]."""
    img = image.astype(np.float32) / 255.0
    views: list[np.ndarray] = []
    for _ in range(2):
        v = random_resized_crop(img, spec.global_size, spec.global_scale, rng)
        views.append(_augment_chain(v, spec, rng))
    return views
