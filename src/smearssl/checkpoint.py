"""Binary checkpoint container.

Layout, all integers little-endian:

    magic   4 bytes  b"RDCK"
    version u16      currently 1
    config  u32 byte length, then UTF-8 "key=value" lines (one per field)
    count   u32      number of parameter blobs
    blob    u16 name length + UTF-8 name
            u8 ndim, then ndim * u32 extents
            float32 row-major data

float32 payloads round-trip bit-exactly. The same container stores both the
exported teacher encoder (config + encoder params) and the full training
state (params plus optimizer moments and counters under prefixed names).

A write streams each blob straight from its array to a temp file beside the
target, then replaces the target atomically: it holds no copy of the
payload, and a failed or killed write leaves the old file whole.
"""

from __future__ import annotations

import contextlib
import os
import struct
from dataclasses import fields

import numpy as np

from .errors import InputError, ValidationError
from .vit import VitConfig

MAGIC = b"RDCK"
VERSION = 1

_CONFIG_FIELDS = fields(VitConfig)


def _encode_config(cfg: VitConfig) -> bytes:
    return "".join(f"{f.name}={getattr(cfg, f.name)!r}\n"
                   for f in _CONFIG_FIELDS).encode("utf-8")


def _decode_config(raw: bytes) -> VitConfig:
    """Each field is cast to the type of its default; lines that name no
    field are ignored."""
    pairs = (line.partition("=") for line in raw.decode("utf-8").splitlines())
    kv = {key.strip(): val.strip() for key, _, val in pairs}
    missing = [f.name for f in _CONFIG_FIELDS if f.name not in kv]
    if missing:
        raise InputError(f"checkpoint config missing fields: {missing}")
    return VitConfig(**{f.name: type(f.default)(kv[f.name])
                        for f in _CONFIG_FIELDS})


def write_checkpoint(path: str, cfg: VitConfig, params: dict[str, np.ndarray]) -> None:
    """Streams the file to `path + ".tmp"`, then renames it onto `path`, so a
    failed or killed write leaves any old file at `path` as it was."""
    names = [name.encode("utf-8") for name in params]  # insertion order
    for name, nb in zip(params, names):
        if len(nb) > 0xFFFF:
            raise InputError(f"parameter name too long: {name[:40]}...")
    cfg_bytes = _encode_config(cfg)
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC + struct.pack("<HI", VERSION, len(cfg_bytes)))
            fh.write(cfg_bytes + struct.pack("<I", len(params)))
            for nb, arr in zip(names, params.values()):
                arr = np.ascontiguousarray(arr, dtype="<f4")
                fh.write(struct.pack("<H", len(nb)) + nb
                         + struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape))
                fh.write(memoryview(arr.reshape(-1)).cast("B"))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def read_checkpoint(path: str) -> tuple[VitConfig, dict[str, np.ndarray]]:
    """Reads each blob straight into the array it returns: the payload is
    never held twice."""
    with open(path, "rb") as fh:
        end = os.fstat(fh.fileno()).st_size

        def unpack(fmt: str) -> tuple:
            return struct.unpack(fmt, fh.read(struct.calcsize(fmt)))

        try:
            magic = fh.read(4)
            if magic != MAGIC:
                raise InputError(f"{path}: not a checkpoint file (bad magic {magic!r})")
            (version,) = unpack("<H")
            if version != VERSION:
                raise InputError(f"{path}: unsupported checkpoint version {version}")
            (cfg_len,) = unpack("<I")
            try:
                cfg = _decode_config(fh.read(cfg_len))
            except ValidationError as exc:  # missing field or out-of-range value
                raise InputError(f"{path}: {exc}") from None
            (count,) = unpack("<I")
            params: dict[str, np.ndarray] = {}
            for _ in range(count):
                (nlen,) = unpack("<H")
                name = fh.read(nlen).decode("utf-8")
                (ndim,) = unpack("<B")
                shape = unpack(f"<{ndim}I")
                nbytes = 4 * int(np.prod(shape, dtype=np.int64))
                if nbytes > end - fh.tell():
                    raise InputError(f"{path}: truncated blob {name!r}")
                arr = np.empty(shape, dtype="<f4")
                fh.readinto(memoryview(arr.reshape(-1)).cast("B"))
                params[name] = arr
            if fh.tell() != end:
                raise InputError(f"{path}: {end - fh.tell()} trailing bytes after last blob")
            return cfg, params
        except (struct.error, ValueError) as exc:  # short field or bad config text
            raise InputError(f"{path}: corrupt checkpoint: {exc}") from None
