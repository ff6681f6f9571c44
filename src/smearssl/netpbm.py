"""Minimal netpbm codecs: binary PPM (P6, 8-bit RGB) for images and binary
PGM (P5, 16-bit big-endian) for integer label masks."""

from __future__ import annotations

import numpy as np

from .errors import InputError


def _read_header_tokens(raw: bytes, count: int) -> tuple[list[int], int]:
    """Parse `count` whitespace-separated integer tokens after the magic,
    honoring '#' comments. Returns (tokens, offset past final whitespace)."""
    tokens: list[int] = []
    i = 2  # past the 2-byte magic
    n = len(raw)
    while len(tokens) < count:
        while i < n and raw[i:i + 1].isspace():
            i += 1
        if i < n and raw[i:i + 1] == b"#":
            while i < n and raw[i] not in (0x0A, 0x0D):
                i += 1
            continue
        start = i
        while i < n and not raw[i:i + 1].isspace():
            i += 1
        if start == i:
            raise InputError("truncated netpbm header")
        try:
            tokens.append(int(raw[start:i]))
        except ValueError:
            raise InputError(f"bad netpbm header token {raw[start:i]!r}") from None
    if i >= n:
        raise InputError("truncated netpbm header")
    return tokens, i + 1  # single whitespace byte after maxval


def _check_size(path: str, w: int, h: int) -> None:
    if w < 1 or h < 1:
        raise InputError(f"{path}: bad image size {w}x{h}")


def write_ppm(path: str, image: np.ndarray) -> None:
    img = np.asarray(image)
    if img.ndim != 3 or img.shape[2] != 3:
        raise InputError(f"PPM writer needs [H,W,3], got shape {img.shape}")
    if img.dtype != np.uint8:
        raise InputError(f"PPM writer needs uint8 pixels, got {img.dtype}")
    h, w = img.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(np.ascontiguousarray(img).tobytes())


def read_ppm(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:2] != b"P6":
        raise InputError(f"{path}: not a binary PPM (magic {raw[:2]!r})")
    (w, h, maxval), off = _read_header_tokens(raw, 3)
    _check_size(path, w, h)
    if maxval != 255:
        raise InputError(f"{path}: only 8-bit PPM supported (maxval {maxval})")
    need = w * h * 3
    data = np.frombuffer(raw, dtype=np.uint8, offset=off)
    if data.size < need:
        raise InputError(f"{path}: truncated pixel data")
    return data[:need].reshape(h, w, 3).copy()


def write_pgm16(path: str, mask: np.ndarray) -> None:
    m = np.asarray(mask)
    if m.ndim != 2:
        raise InputError(f"PGM writer needs [H,W], got shape {m.shape}")
    if m.dtype != np.uint16:
        raise InputError(f"PGM writer needs uint16 labels, got {m.dtype}")
    h, w = m.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n65535\n".encode("ascii"))
        fh.write(m.astype(">u2").tobytes())


def read_pgm(path: str) -> np.ndarray:
    """Reads P5 masks; 1 byte per sample for maxval < 256, else 2 bytes
    big-endian (the netpbm convention). Always returns uint16."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:2] != b"P5":
        raise InputError(f"{path}: not a binary PGM (magic {raw[:2]!r})")
    (w, h, maxval), off = _read_header_tokens(raw, 3)
    _check_size(path, w, h)
    if not 0 < maxval < 65536:
        raise InputError(f"{path}: bad maxval {maxval}")
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype(np.uint8)
    need = w * h
    body = raw[off:]
    if len(body) < need * dtype.itemsize:
        raise InputError(f"{path}: truncated pixel data")
    data = np.frombuffer(body, dtype=dtype, count=need)
    return data.reshape(h, w).astype(np.uint16)
