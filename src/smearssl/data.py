"""Sample extraction, manifests, and the one reader and writer of text tables.

Two ways to turn a stained smear micrograph into training units: disjoint
fixed-size patches of the whole field, or tight single-cell crops cut out
along a labeled mask. Both return 8-bit RGB arrays of the configured size.
"""

from __future__ import annotations

import csv
import io
import logging
import os
from dataclasses import dataclass

import numpy as np

from .augment import resize_bilinear
from .errors import DimensionError, InputError, ParameterError
from .netpbm import read_ppm

log = logging.getLogger("smearssl.data")

MIN_CELL_PIXELS = 16
BBOX_MARGIN = 0.12


@dataclass
class SmearImage:
    pixels: np.ndarray  # uint8 [H, W, 3]
    source_id: str
    image_id: str

    def __post_init__(self):
        px = np.asarray(self.pixels)
        if px.ndim != 3 or px.shape[2] != 3 or px.dtype != np.uint8:
            raise InputError(f"SmearImage needs uint8 [H,W,3] pixels, got "
                             f"{px.dtype} {px.shape}")
        if px.shape[0] < 1 or px.shape[1] < 1:
            raise InputError("SmearImage must have positive dimensions")
        if not self.source_id:
            raise InputError("SmearImage.source_id must be nonempty")
        self.pixels = px


def _check_resize_fits(what: str, out_h: int, out_w: int) -> None:
    """Refuses, before anything is allocated, a resize to out_h x out_w
    whose float32 working set -- three RGB arrays of that size at its peak --
    exceeds the machine's physical memory."""
    need = 3 * out_h * out_w * 3 * 4
    try:
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):  # no sysconf or no such name
        return
    if need > have:
        raise InputError(f"{what} needs a {out_h} x {out_w} resize: "
                         f"{need / 2**30:.1f} GiB of float32 working memory, more "
                         f"than this machine's {have / 2**30:.1f} GiB")


def _resize_uint8(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    out = resize_bilinear(img.astype(np.float32), out_h, out_w)
    return np.clip(np.rint(out), 0, 255).astype(np.uint8)


def patchify(img: SmearImage, patch: int) -> list[np.ndarray]:
    """Disjoint patch×patch tiles. Images smaller than the patch on either
    side are first scaled up by one uniform factor (no distortion) so the
    short side equals the patch; remainder margins are discarded."""
    if patch < 1:
        raise ParameterError(f"patch side must be >= 1, got {patch}")
    h, w = img.pixels.shape[:2]
    if h * w == 0:
        raise InputError("degenerate image with zero area")
    pixels = img.pixels
    if min(h, w) < patch:
        factor = patch / min(h, w)
        nh, nw = int(round(h * factor)), int(round(w * factor))
        _check_resize_fits(f"patch side {patch}", nh, nw)
        pixels = _resize_uint8(pixels, nh, nw)
        h, w = nh, nw
    rows, cols = h // patch, w // patch
    out = []
    for r in range(rows):
        for c in range(cols):
            tile = pixels[r * patch:(r + 1) * patch, c * patch:(c + 1) * patch]
            out.append(np.ascontiguousarray(tile))
    return out


def _median_border_color(pixels: np.ndarray) -> np.ndarray:
    h, w = pixels.shape[:2]
    ring = np.concatenate([
        pixels[0].reshape(-1, 3), pixels[h - 1].reshape(-1, 3),
        pixels[:, 0].reshape(-1, 3), pixels[:, w - 1].reshape(-1, 3),
    ])
    return np.median(ring, axis=0).astype(np.uint8)


def extract_cells(img: SmearImage, mask: np.ndarray,
                  out_size: int) -> tuple[list[np.ndarray], int]:
    """One crop per nonzero mask label: tight box, 12% margin per side,
    clamped, square-padded with the image's median border color, resized.

    Returns (crops, skipped) where skipped counts labels under
    MIN_CELL_PIXELS pixels.
    """
    if out_size < 1:
        raise ParameterError(f"crop side must be >= 1, got {out_size}")
    _check_resize_fits(f"crop side {out_size}", out_size, out_size)
    mask = np.asarray(mask)
    if mask.shape != img.pixels.shape[:2]:
        raise DimensionError(
            f"mask shape {mask.shape} does not match image {img.pixels.shape[:2]}")
    labels = np.unique(mask)
    labels = labels[labels > 0]
    crops: list[np.ndarray] = []
    skipped = 0
    pad_color = _median_border_color(img.pixels)
    h, w = img.pixels.shape[:2]
    for lab in labels:
        ys, xs = np.nonzero(mask == lab)
        if ys.size < MIN_CELL_PIXELS:
            skipped += 1
            continue
        y0, y1 = int(ys.min()), int(ys.max())
        x0, x1 = int(xs.min()), int(xs.max())
        my = int(round(BBOX_MARGIN * (y1 - y0 + 1)))
        mx = int(round(BBOX_MARGIN * (x1 - x0 + 1)))
        y0, y1 = max(0, y0 - my), min(h - 1, y1 + my)
        x0, x1 = max(0, x0 - mx), min(w - 1, x1 + mx)
        crop = img.pixels[y0:y1 + 1, x0:x1 + 1]
        ch, cw = crop.shape[:2]
        side = max(ch, cw)
        canvas = np.empty((side, side, 3), dtype=np.uint8)
        canvas[:] = pad_color
        oy, ox = (side - ch) // 2, (side - cw) // 2
        canvas[oy:oy + ch, ox:ox + cw] = crop
        crops.append(_resize_uint8(canvas, out_size, out_size))
    if skipped:
        log.warning("extract_cells: skipped %d label(s) under %d pixels",
                    skipped, MIN_CELL_PIXELS)
    return crops, skipped


@dataclass(frozen=True)
class ManifestRecord:
    path: str
    kind: str  # "patch" or "cell"
    source_id: str
    label: str | None = None


def read_text(path: str, what: str) -> str:
    """The UTF-8 text of the file at `path`; refuses a missing file, or a
    byte that is not UTF-8, naming its line. `what` names the file's role."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except FileNotFoundError:
        raise InputError(f"{what} not found: {path}") from None
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise InputError(f"{path}: line {line} is not UTF-8") from None


def read_table(path: str, what: str,
               columns: tuple[str, ...]) -> list[tuple[int, list[str]]]:
    """Each row of the UTF-8 CSV file at `path`, whose header names `columns`
    in any order, as its line number and its fields in `columns` order. Blank
    lines are skipped; a row without one field per column is refused."""
    reader = csv.reader(io.StringIO(read_text(path, what), newline=""))
    header = next(reader, [])
    if sorted(header) != sorted(columns):
        raise InputError(f"{path}: {what} header must be {','.join(columns)}, "
                         f"got {header}")
    order = [header.index(c) for c in columns]
    rows = []
    for fields in filter(None, reader):  # skips blank lines
        if len(fields) != len(columns):
            raise InputError(f"{path}: line {reader.line_num} does not have the "
                             f"{len(columns)} fields {','.join(columns)}")
        rows.append((reader.line_num, [fields[i] for i in order]))
    return rows


def write_table(path: str, columns: tuple[str, ...], rows) -> None:
    """Writes `columns` as the header, then `rows`, as UTF-8 CSV."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


MANIFEST_COLUMNS = ("path", "kind", "source_id", "label")


def save_manifest(path: str, records: list[ManifestRecord]) -> None:
    write_table(path, MANIFEST_COLUMNS,
                ([r.path, r.kind, r.source_id, r.label or ""] for r in records))


def load_manifest(path: str) -> list[ManifestRecord]:
    base = os.path.dirname(os.path.abspath(path))
    records: list[ManifestRecord] = []
    for line, (rel, kind, source_id, label) in read_table(path, "manifest",
                                                          MANIFEST_COLUMNS):
        p = os.path.join(base, rel)  # an absolute `rel` stays as it is
        if not os.path.isfile(p):
            raise InputError(f"{path}: line {line}: file not found: {rel!r}")
        if kind not in ("patch", "cell"):
            raise InputError(f"{path}: line {line}: bad kind {kind!r}")
        records.append(ManifestRecord(p, kind, source_id, label or None))
    kinds = {r.kind for r in records}
    if len(kinds) > 1:
        raise InputError(f"{path}: mixed sample kinds in one manifest: {sorted(kinds)}")
    return records


def load_images(records: list[ManifestRecord]) -> list[np.ndarray]:
    return [read_ppm(r.path) for r in records]
