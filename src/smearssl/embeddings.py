"""Embedding extraction and the EMB1 on-disk format.

EMB1 layout: ASCII magic ``EMB1``, u32-LE row count, u32-LE dim, then the
row-major float32 matrix. Row metadata travels in a sidecar CSV
(``<path>.csv``) with columns row,id,source_id,label.
"""

from __future__ import annotations

import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .data import ManifestRecord, load_images, read_table, write_table
from .errors import DimensionError, InputError, ParameterError
from .trainer import keep_freed_memory, load_encoder
from .vit import check_image_shape

MAGIC = b"EMB1"
SIDECAR_COLUMNS = ("row", "id", "source_id", "label")


@dataclass
class EmbeddingSet:
    vectors: np.ndarray  # float32 [n, d]
    ids: list[str]
    sources: list[str]
    labels: list[str | None]

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=np.float32)
        if v.ndim != 2:
            raise DimensionError(f"embedding matrix must be 2-d, got {v.ndim}-d")
        n = v.shape[0]
        if not (len(self.ids) == len(self.sources) == len(self.labels) == n):
            raise DimensionError("metadata length does not match row count")
        if n and not np.isfinite(v).all():
            raise InputError("embedding matrix contains non-finite values")
        self.vectors = v

    def __len__(self) -> int:
        return int(self.vectors.shape[0])

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[1])

    def subset(self, indices) -> "EmbeddingSet":
        idx = np.asarray(indices, dtype=np.int64)
        return EmbeddingSet(
            vectors=self.vectors[idx],  # integer indexing copies
            ids=[self.ids[i] for i in idx],
            sources=[self.sources[i] for i in idx],
            labels=[self.labels[i] for i in idx],
        )


def sidecar_path(path: str) -> str:
    return path + ".csv"


def write_embeddings(path: str, emb: EmbeddingSet) -> None:
    n, d = emb.vectors.shape
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", n, d))
        fh.write(memoryview(np.ascontiguousarray(emb.vectors, dtype="<f4")))
    write_table(sidecar_path(path), SIDECAR_COLUMNS,
                ([i, emb.ids[i], emb.sources[i], emb.labels[i] or ""] for i in range(n)))


def read_embeddings(path: str) -> EmbeddingSet:
    """Reads the matrix straight into the array the set keeps, once the
    file's size is checked against its header: it is never held twice."""
    with open(path, "rb") as fh:
        head = fh.read(12)
        if head[:4] != MAGIC:
            raise InputError(f"{path}: not an embedding file (magic {head[:4]!r})")
        if len(head) < 12:
            raise InputError(f"{path}: truncated header ({len(head)} bytes)")
        n, d = struct.unpack_from("<II", head, 4)
        need, size = 12 + 4 * n * d, os.fstat(fh.fileno()).st_size
        if size != need:
            raise InputError(f"{path}: expected {need} bytes for {n}x{d}, got {size}")
        vectors = np.empty((n, d), dtype="<f4")
        fh.readinto(memoryview(vectors.reshape(-1)).cast("B"))
    side = sidecar_path(path)
    ids, sources, labels = [], [], []
    for i, (line, (row, id_, source_id, label)) in enumerate(
            read_table(side, "embedding sidecar", SIDECAR_COLUMNS)):
        if row != str(i):
            raise InputError(f"{side}: line {line}: row {row!r} is not its index {i}")
        ids.append(id_)
        sources.append(source_id)
        labels.append(label or None)
    if len(ids) != n:
        raise InputError(f"{side}: {len(ids)} metadata rows for {n} vectors")
    return EmbeddingSet(vectors=vectors, ids=ids, sources=sources, labels=labels)


def embed(checkpoint_path: str, records: list[ManifestRecord],
          batch_size: int = 64) -> EmbeddingSet:
    """One teacher-encoder CLS row per manifest record, in manifest order.
    Images are read one batch at a time. The calling thread forwards the
    first half of each batch while one worker thread forwards the second;
    numpy releases the GIL inside BLAS and large ufuncs, so the halves run
    on two cores. A batch of one stays on the calling thread. On one BLAS
    build the rows are byte for byte those of a forward of the whole
    batch, and memory follows one batch, not the corpus. An error in
    either half reaches the caller once the worker has stopped; an image
    the encoder cannot take is refused, by its path, before stacking."""
    if batch_size < 1:
        raise ParameterError(f"batch_size must be >= 1, got {batch_size}")
    encoder = load_encoder(checkpoint_path)
    d = encoder.cfg.embed_dim
    if not records:
        return EmbeddingSet(np.zeros((0, d), dtype=np.float32), [], [], [])
    keep_freed_memory()
    rows = []
    with ThreadPoolExecutor(1) as worker:
        for start in range(0, len(records), batch_size):
            chunk = records[start:start + batch_size]
            images = load_images(chunk)
            for r, img in zip(chunk, images):
                check_image_shape(encoder.cfg, img.shape, f"{r.path}: ")
            batch = np.stack(images).astype(np.float32) / 255.0
            half = (len(batch) + 1) // 2
            second = (worker.submit(encoder.forward, batch[half:])
                      if half < len(batch) else None)
            rows.append(encoder.forward(batch[:half]).data.astype(np.float32))
            if second is not None:
                rows.append(second.result().data.astype(np.float32))
    vectors = np.concatenate(rows, axis=0)
    return EmbeddingSet(
        vectors=vectors,
        ids=[os.path.basename(r.path) for r in records],
        sources=[r.source_id for r in records],
        labels=[r.label for r in records],
    )
