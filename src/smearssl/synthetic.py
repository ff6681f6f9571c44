"""Deterministic synthetic blood-smear generator.

Stands in for the unavailable corpus: ellipsoidal red cells with
class-dependent morphology rendered on a per-source tinted background, with
per-source noise and illumination to emulate the acquisition batch effect.
Every image also carries its ground-truth cell mask (for the cell-crop path)
and, for the parasite class, the overlay-region mask used by the feature-map
smoke test.

Class eccentricity bands are deliberately disjoint for the first three
classes so a single threshold on measured component eccentricity recovers the
label; that keeps the corpus provably learnable (the tests check it).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .data import ManifestRecord, SmearImage, save_manifest
from .errors import ParameterError
from .netpbm import write_pgm16, write_ppm

CLASS_NAMES = ("disc", "sickle", "echinocyte", "parasite",
               "target", "ovalocyte", "spherocyte", "stomatocyte")

# (eccentricity lo, hi) per class; the first three are disjoint by design.
_ECC_BANDS = ((0.05, 0.20), (0.80, 0.95), (0.45, 0.60), (0.05, 0.20),
              (0.05, 0.20), (0.60, 0.75), (0.05, 0.15), (0.10, 0.25))

_BG_BASE = np.array([0.86, 0.74, 0.78])
_CELL_BASE = np.array([0.72, 0.32, 0.36])
_RING_COLOR = np.array([0.30, 0.16, 0.42])

# Per-class stain density. Hemoglobin concentration differs by morphology
# (dense in sickled cells, dilute in crenated ones), so each class scales the
# cell pigment by a fixed factor. Indexed by position in CLASS_NAMES.
_PIGMENT = (1.00, 0.74, 1.22, 0.94, 1.10, 0.84, 1.00, 1.06)


@dataclass(frozen=True)
class SynthConfig:
    n_images: int = 60
    sources: int = 2
    classes: int = 3
    image_size: int = 64
    cells_min: int = 3
    cells_max: int = 6
    cell_radius_lo: float = 0.09
    cell_radius_hi: float = 0.13
    tint_delta: float = 0.04
    noise_base: float = 0.012
    noise_step: float = 0.008
    illum: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.n_images < 0:
            raise ParameterError("n_images must be >= 0")
        if not 1 <= self.classes <= len(CLASS_NAMES):
            raise ParameterError(f"classes must lie in 1..{len(CLASS_NAMES)}")
        if self.sources < 1:
            raise ParameterError("sources must be >= 1")
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")
        if self.image_size < 16:
            raise ParameterError("image_size must be >= 16")
        if not 1 <= self.cells_min <= self.cells_max:
            raise ParameterError("need 1 <= cells_min <= cells_max")
        if not 0.0 < self.cell_radius_lo <= self.cell_radius_hi < 0.5:
            raise ParameterError("cell radii must satisfy 0 < lo <= hi < 0.5")
        for name in ("tint_delta", "illum"):
            if not np.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite, got {getattr(self, name)}")
        last_sigma = self.noise_base + self.noise_step * (self.sources - 1)
        if not (self.noise_base >= 0 and last_sigma >= 0):  # also refuses NaN
            raise ParameterError("noise sigma noise_base + noise_step * source "
                                 "must be >= 0 for every source")


@dataclass
class SynthSample:
    image: SmearImage
    label: str
    class_index: int
    mask: np.ndarray  # uint16 [H, W], 0 background, k per cell
    overlay_mask: np.ndarray | None  # bool [H, W] for the parasite class


def _source_background(source: int, tint_delta: float) -> np.ndarray:
    bg = _BG_BASE.copy()
    bg[1] += 2.0 * tint_delta * source
    bg[0] -= tint_delta * source
    return np.clip(bg, 0.05, 0.98)


def _render_cell(img: np.ndarray, mask: np.ndarray, overlay: np.ndarray,
                 label: int, cls: int, cx: float, cy: float, r: float,
                 rng: np.random.Generator) -> None:
    size = img.shape[0]
    lo, hi = _ECC_BANDS[cls]
    ecc = rng.uniform(lo, hi)
    theta = rng.uniform(0.0, np.pi)
    a = r
    b = r * np.sqrt(1.0 - ecc**2)
    # A pixel changes only where rho <= rho_lim <= 1.16 (the echinocyte rim),
    # and b <= a puts all of those within 1.16 * a of the centre.
    reach = 1.16 * a + 1
    y0, y1 = max(int(cy - reach), 0), min(int(cy + reach) + 1, size)
    x0, x1 = max(int(cx - reach), 0), min(int(cx + reach) + 1, size)
    win = np.s_[y0:y1, x0:x1]
    ys, xs = np.arange(y0, y1)[:, None], np.arange(x0, x1)
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
    cell = np.where(inside[..., None], color[None, None, :], img[win])

    name = CLASS_NAMES[cls]
    if name in ("disc", "parasite", "target", "ovalocyte", "echinocyte"):
        # central pallor of the biconcave profile
        pallor = 0.35 * np.exp(-((rho / 0.45) ** 2))
        cell = cell + (inside * pallor)[..., None] * (_BG_BASE - color)[None, None, :]
    elif name == "stomatocyte":
        slit = inside & (np.abs(yr) < 0.22 * b) & (np.abs(xr) < 0.6 * a)
        cell = cell + slit[..., None] * 0.4 * (_BG_BASE - color)[None, None, :]
    if name == "target":
        dot = rho < 0.28
        cell = np.where(dot[..., None], color[None, None, :] * 0.7, cell)

    img[win] = cell
    mask[win][inside] = label

    if name == "parasite" and rng.random() < 0.9:
        off = 0.35 * r
        ang = rng.uniform(0, 2 * np.pi)
        rcx, rcy = cx + off * np.cos(ang), cy + off * np.sin(ang)
        rr = np.sqrt((xs - rcx) ** 2 + (ys - rcy) ** 2)
        ring = (rr >= 0.16 * r) & (rr <= 0.30 * r) & inside
        img[win][ring] = _RING_COLOR
        overlay[win] |= ring


def _render_image(cfg: SynthConfig, index: int, source: int, cls: int) -> SynthSample:
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(
        [cfg.seed, 7919, index])))
    s = cfg.image_size
    bg = _source_background(source, cfg.tint_delta)
    img = np.empty((s, s, 3), dtype=np.float64)
    img[:] = bg

    mask = np.zeros((s, s), dtype=np.uint16)
    overlay = np.zeros((s, s), dtype=bool)
    n_cells = int(rng.integers(cfg.cells_min, cfg.cells_max + 1))
    placed: list[tuple[float, float, float]] = []
    label = 0
    for _ in range(n_cells):
        r = rng.uniform(cfg.cell_radius_lo, cfg.cell_radius_hi) * s
        spot = None
        for _ in range(40):
            cx = rng.uniform(r, s - r)
            cy = rng.uniform(r, s - r)
            if all((cx - ox) ** 2 + (cy - oy) ** 2 >= (1.1 * (r + orr)) ** 2
                   for ox, oy, orr in placed):
                spot = (cx, cy)
                break
        if spot is None:
            continue  # frame too crowded, drop this cell
        placed.append((spot[0], spot[1], r))
        label += 1
        _render_cell(img, mask, overlay, label, cls, spot[0], spot[1], r, rng)

    amp = cfg.illum * (0.6 + 0.4 * (source + 1) / cfg.sources)
    ang = rng.uniform(0, 2 * np.pi)
    ys, xs = np.arange(s)[:, None], np.arange(s)
    proj = (np.cos(ang) * xs + np.sin(ang) * ys) / s
    ramp = 1.0 + amp * (proj - proj.mean()) * 2.0
    img = img * ramp[..., None]

    sigma = cfg.noise_base + cfg.noise_step * source
    img = img + rng.normal(0.0, sigma, size=img.shape)
    pixels = np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)

    image = SmearImage(pixels=pixels, source_id=f"src{source}",
                       image_id=f"img{index:05d}_src{source}")
    return SynthSample(image=image, label=CLASS_NAMES[cls], class_index=cls,
                       mask=mask, overlay_mask=overlay if CLASS_NAMES[cls] == "parasite" else None)


def gen_synthetic(cfg: SynthConfig) -> list[SynthSample]:
    """Renders n_images samples, cycling sources fastest then classes, so
    every (source, class) pair is covered as evenly as the count allows."""
    samples = []
    for i in range(cfg.n_images):
        source = i % cfg.sources
        cls = (i // cfg.sources) % cfg.classes
        samples.append(_render_image(cfg, i, source, cls))
    return samples


def write_dataset(out_dir: str, samples: list[SynthSample],
                  with_masks: bool = True) -> str:
    """Writes PPM images (plus PGM masks) and a manifest; returns the
    manifest path."""
    os.makedirs(out_dir, exist_ok=True)
    records = []
    for sample in samples:
        name = f"{sample.image.image_id}.ppm"
        write_ppm(os.path.join(out_dir, name), sample.image.pixels)
        if with_masks:
            write_pgm16(os.path.join(out_dir, sample.image.image_id + "_mask.pgm"),
                        sample.mask)
        records.append(ManifestRecord(path=name, kind="patch",
                                      source_id=sample.image.source_id,
                                      label=sample.label))
    manifest = os.path.join(out_dir, "manifest.csv")
    save_manifest(manifest, records)
    return manifest
