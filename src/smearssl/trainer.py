"""Student-teacher training loop.

One loop, `steps`, mutates TrainState and yields one `loss_log.csv` row per
iteration. Per-iteration randomness comes from fresh generators keyed by
(seed, iteration, stream), which makes batch order a pure function of the
seed and lets a resumed run replay the exact tail of a straight run.
"""

from __future__ import annotations

import ctypes
import logging
import math
import os
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from . import tensor as T
from .augment import CropSpec, multicrop
from .checkpoint import read_checkpoint, write_checkpoint
from .errors import DimensionError, InputError, ParameterError
from .objective import (CenteringState, SslConfig, _check_view_rows, head_forward,
                        head_param_shapes, init_head_params, renormalize_prototypes,
                        teacher_targets_multiview, total_loss)
from .vit import VitConfig, VitEncoder, init_vit_params, vit_param_shapes

log = logging.getLogger("smearssl.trainer")

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

_STREAM_BATCH = 1
_STREAM_AUG = 2

# state.rdck keeps the iteration in a float32 blob, exact up to 2**24
MAX_ITERATIONS = 2**24


@dataclass(frozen=True)
class TrainConfig:
    iterations: int = 300
    batch_size: int = 32
    base_lr: float = 1e-3  # desk default, tuned for batch 32; scale linearly
    final_lr: float = 1e-5
    warmup_frac: float = 0.1
    weight_decay: float = 0.04
    teacher_momentum_start: float = 0.992
    teacher_momentum_end: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.iterations <= MAX_ITERATIONS:
            raise ParameterError(f"iterations must lie in [0, {MAX_ITERATIONS}]")
        if self.batch_size < 2:
            raise ParameterError("batch_size must be >= 2")
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")
        if not (0 < self.base_lr < math.inf and 0 <= self.final_lr < math.inf):
            raise ParameterError("base_lr must be finite and > 0, final_lr finite and >= 0")
        if not 0 <= self.weight_decay < math.inf:
            raise ParameterError("weight_decay must be finite and >= 0")
        if not 0.0 <= self.warmup_frac < 1.0:
            raise ParameterError("warmup_frac must lie in [0, 1)")
        for name in ("teacher_momentum_start", "teacher_momentum_end"):
            m = getattr(self, name)
            if not 0.0 <= m <= 1.0:
                raise ParameterError(f"{name} must lie in [0, 1]")

    @property
    def warmup_iters(self) -> int:
        return int(self.warmup_frac * self.iterations)


def schedule(iteration: int, cfg: TrainConfig) -> dict[str, float]:
    """Linear warmup to base_lr then cosine to final_lr; cosine teacher
    momentum across the whole run."""
    if not 0 <= iteration < cfg.iterations:
        raise ParameterError(
            f"iteration {iteration} outside [0, {cfg.iterations})")
    warm = cfg.warmup_iters
    if warm > 0 and iteration < warm:
        lr = cfg.base_lr * iteration / warm
    else:
        span = cfg.iterations - 1 - warm
        t = (iteration - warm) / span if span > 0 else 1.0
        lr = cfg.final_lr + 0.5 * (cfg.base_lr - cfg.final_lr) * (1 + math.cos(math.pi * t))
    tspan = cfg.iterations - 1
    tt = iteration / tspan if tspan > 0 else 1.0
    m_start, m_end = cfg.teacher_momentum_start, cfg.teacher_momentum_end
    m_t = m_end + 0.5 * (m_start - m_end) * (1 + math.cos(math.pi * tt))
    return {"lr": lr, "m_t": m_t}


def ema_update(teacher: dict[str, T.Tensor], student: dict[str, T.Tensor],
               m_t: float) -> None:
    """t' = m_t * t + (1 - m_t) * s per scalar, in place as
    t += (1 - m_t) * (s - t), one block at a time. The endpoints are
    special-cased so m_t of exactly 0 (a copy, never an alias) or 1 is
    bit-exact."""
    if teacher.keys() != student.keys():
        raise DimensionError("teacher/student parameter names differ")
    scratch = np.empty(T._BLOCK, dtype=np.float32)
    for name, t in teacher.items():
        s = student[name]
        if t.data.shape != s.data.shape:
            raise DimensionError(f"shape mismatch for {name}: "
                                 f"{t.data.shape} vs {s.data.shape}")
        if m_t == 1.0:
            continue
        if m_t == 0.0:
            t.data = s.data.copy()
            continue
        for tb, sb in T._blocks(t.data, s.data):
            step = np.subtract(sb, tb, out=scratch[:tb.size])
            step *= 1.0 - m_t
            tb += step


@dataclass
class TrainState:
    vit_cfg: VitConfig
    ssl_cfg: SslConfig
    train_cfg: TrainConfig
    student_enc: VitEncoder
    student_head: dict[str, T.Tensor]
    teacher_enc: VitEncoder
    teacher_head: dict[str, T.Tensor]
    moments_m: dict[str, np.ndarray]
    moments_v: dict[str, np.ndarray]
    centering: CenteringState
    iteration: int = 0

    def student_params(self) -> dict[str, T.Tensor]:
        return _tower(self.student_enc.params, self.student_head)

    def teacher_params(self) -> dict[str, T.Tensor]:
        return _tower(self.teacher_enc.params, self.teacher_head)


def _tower(encoder: dict, head: dict) -> dict:
    """One tower's parameters by full name: `encoder.*`, then `head.*`."""
    return {**{f"encoder.{k}": v for k, v in encoder.items()},
            **{f"head.{k}": v for k, v in head.items()}}


def init_train_state(vit_cfg: VitConfig, ssl_cfg: SslConfig,
                     train_cfg: TrainConfig) -> TrainState:
    """A state at iteration 0: freshly drawn student parameters, a teacher
    that is a copy of them, zero moments and a zero center."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(
        [train_cfg.seed, 0])))
    student_params = init_vit_params(vit_cfg, rng)
    student_head = init_head_params(ssl_cfg, vit_cfg.embed_dim, rng)
    teacher_params = {k: T.Tensor(v.data.copy()) for k, v in student_params.items()}
    teacher_head = {k: T.Tensor(v.data.copy()) for k, v in student_head.items()}
    student = _tower(student_params, student_head)
    return TrainState(
        vit_cfg=vit_cfg, ssl_cfg=ssl_cfg, train_cfg=train_cfg,
        student_enc=VitEncoder(vit_cfg, params=student_params),
        student_head=student_head,
        teacher_enc=VitEncoder(vit_cfg, params=teacher_params),
        teacher_head=teacher_head,
        moments_m={k: np.zeros_like(p.data) for k, p in student.items()},
        moments_v={k: np.zeros_like(p.data) for k, p in student.items()},
        centering=CenteringState.fresh(ssl_cfg.num_prototypes),
    )


def _iteration_rng(seed: int, iteration: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([seed, iteration, stream])))


def sample_batch(images: list[np.ndarray], crop: CropSpec, train_cfg: TrainConfig,
                 iteration: int) -> np.ndarray:
    """Draw batch_size images and crop each twice: one [2B, S, S, 3] float32
    array, the first global view of every image, then the second."""
    if not images:
        raise InputError("empty training set")
    brng = _iteration_rng(train_cfg.seed, iteration, _STREAM_BATCH)
    n = len(images)
    replace = n < train_cfg.batch_size
    idx = brng.choice(n, size=train_cfg.batch_size, replace=replace)
    arng = _iteration_rng(train_cfg.seed, iteration, _STREAM_AUG)
    per_image = [multicrop(images[int(i)], crop, arng) for i in idx]
    return np.stack([crops[v] for v in range(2) for crops in per_image])


def _adamw_step(state: TrainState, lr: float) -> None:
    """AdamW with decay on matrices only, in place, one block at a time: the
    float32 ops of m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g and
    p = p - lr*((m/bc1) / (sqrt(v/bc2) + eps) + wd*p), in that order, so the
    result is bit-identical to that form. Consumes and clears the grads."""
    cfg = state.train_cfg
    t = state.iteration + 1
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    scratch = np.empty(T._BLOCK, dtype=np.float32)
    for name, p in state.student_params().items():
        g = p.grad
        if g is None:
            continue
        p.grad = None
        decay = cfg.weight_decay > 0 and p.data.ndim >= 2
        for pb, gb, m, v in T._blocks(p.data, g, state.moments_m[name],
                                      state.moments_v[name]):
            buf = np.multiply(gb, 1 - ADAM_BETA1, out=scratch[:gb.size])
            m *= ADAM_BETA1
            m += buf
            np.multiply(gb, 1 - ADAM_BETA2, out=buf)
            buf *= gb
            v *= ADAM_BETA2
            v += buf
            update = np.divide(m, bc1, out=gb)
            np.divide(v, bc2, out=buf)
            np.sqrt(buf, out=buf)
            buf += ADAM_EPS
            update /= buf
            if decay:
                np.multiply(pb, cfg.weight_decay, out=buf)
                update += buf
            update *= np.float32(lr)
            pb -= update


def teacher_targets(state: TrainState, views: np.ndarray) -> np.ndarray:
    """The teacher pass, values only, no tape: targets [2B, K] for the two
    views [2B, ...]. Under ema centering it updates the center once."""
    teacher_logits = head_forward(state.teacher_head,
                                  state.teacher_enc.forward(views))[0].data
    return teacher_targets_multiview(teacher_logits, state.ssl_cfg, state.centering)


def train_step(state: TrainState, views: np.ndarray) -> float:
    """One optimization step on the two global views of a batch, [2B, ...]
    as `sample_batch` lays them out. Each tower runs once on all 2B rows;
    Sinkhorn balances each view's half on its own, and each student view
    learns against the other view's teacher targets."""
    _check_view_rows(views.shape[0])
    sched = schedule(state.iteration, state.train_cfg)
    targets = teacher_targets(state, views)

    with T.Tape() as tape:
        logits, z = head_forward(state.student_head, state.student_enc.forward(views))
        loss = total_loss(logits, targets, state.ssl_cfg, z)
        loss.check_finite("total loss")
        tape.backward(loss)

    _adamw_step(state, sched["lr"])
    renormalize_prototypes(state.student_head)
    ema_update(state.teacher_params(), state.student_params(), sched["m_t"])

    state.iteration += 1
    return float(loss.item())


class Step(NamedTuple):
    """One iteration of `steps`; its fields are the `loss_log.csv` columns."""
    iter: int
    loss: float
    lr: float
    teacher_momentum: float


def steps(state: TrainState, images: list[np.ndarray], crop: CropSpec) -> Iterator[Step]:
    """Trains `state` up to `train_cfg.iterations`, yielding each iteration's `Step`."""
    cfg = state.train_cfg
    while (it := state.iteration) < cfg.iterations:
        sched = schedule(it, cfg)
        loss = train_step(state, sample_batch(images, crop, cfg, it))
        if (it + 1) % 50 == 0 or it == 0:
            log.info("iter %d loss %.4f lr %.2e", it, loss, sched["lr"])
        yield Step(it, loss, sched["lr"], sched["m_t"])


# ---------------------------------------------------------------------------
# persistence

_STATE_META = "meta.counters"


def _state_blobs(state: TrainState) -> dict[str, np.ndarray]:
    """`state.rdck`'s blobs in write order, the state's own arrays; the
    names and order are the ones `load_train_state` checks for."""
    blobs: dict[str, np.ndarray] = {}
    for name, p in state.student_params().items():
        blobs[f"student.{name}"] = p.data
    for name, p in state.teacher_params().items():
        blobs[f"teacher.{name}"] = p.data
    for name, m in state.moments_m.items():
        blobs[f"adam.m.{name}"] = m
    for name, v in state.moments_v.items():
        blobs[f"adam.v.{name}"] = v
    blobs["center"] = state.centering.center
    blobs[_STATE_META] = np.array([state.iteration], dtype=np.float32)
    return blobs


def save_train_state(path: str, state: TrainState) -> None:
    write_checkpoint(path, state.vit_cfg, _state_blobs(state))


def load_train_state(path: str, ssl_cfg: SslConfig,
                     train_cfg: TrainConfig) -> TrainState:
    """Raises InputError unless the file holds every blob that a state
    built from these configs has, each in that state's shape. The state
    adopts the arrays the file was read into."""
    vit_cfg, blobs = read_checkpoint(path)
    encoder = vit_param_shapes(vit_cfg)
    head = head_param_shapes(ssl_cfg, vit_cfg.embed_dim)
    params = _tower(encoder, head)
    want = {f"{group}.{k}": s for group in ("student", "teacher", "adam.m", "adam.v")
            for k, s in params.items()}
    want["center"] = (ssl_cfg.num_prototypes,)
    want[_STATE_META] = (1,)
    for name, shape in want.items():
        if name not in blobs:
            raise InputError(f"{path}: not a training state for this config: "
                             f"blob {name!r} is missing")
        if blobs[name].shape != shape:
            raise InputError(f"{path}: blob {name!r} has shape {blobs[name].shape}, "
                             f"this config expects {shape}")

    def tensors(prefix: str, shapes, requires_grad: bool = False) -> dict[str, T.Tensor]:
        return {k: T.Tensor(blobs[prefix + k], requires_grad) for k in shapes}

    return TrainState(
        vit_cfg=vit_cfg, ssl_cfg=ssl_cfg, train_cfg=train_cfg,
        student_enc=VitEncoder(vit_cfg, params=tensors("student.encoder.", encoder, True)),
        student_head=tensors("student.head.", head, True),
        teacher_enc=VitEncoder(vit_cfg, params=tensors("teacher.encoder.", encoder)),
        teacher_head=tensors("teacher.head.", head),
        moments_m={k: blobs[f"adam.m.{k}"] for k in params},
        moments_v={k: blobs[f"adam.v.{k}"] for k in params},
        centering=CenteringState(blobs["center"]),
        iteration=int(blobs[_STATE_META][0]),
    )


def export_teacher(path: str, state: TrainState) -> None:
    """The evaluation artifact: teacher encoder weights only."""
    write_checkpoint(path, state.vit_cfg,
                     {k: p.data for k, p in state.teacher_enc.params.items()})


def load_encoder(path: str) -> VitEncoder:
    cfg, blobs = read_checkpoint(path)
    if {k: v.shape for k, v in blobs.items()} != vit_param_shapes(cfg):
        raise InputError(f"{path}: not an encoder checkpoint "
                         f"(unexpected parameter names or shapes)")
    return VitEncoder(cfg, params={k: T.Tensor(v) for k, v in blobs.items()})


def keep_freed_memory() -> None:
    """Pins glibc's malloc thresholds (trim 256 MB, mmap 32 MB) so a step's
    freed temporaries are reused by the next step instead of going back to
    the kernel and faulting in again page by page. glibc's defaults move
    with the allocation history: without this, one small-head step (batch
    8, 2 vCPUs) took 80 ms with 12k page faults or 50 ms with none, by heap
    layout alone. It also caps glibc at one arena, so the temporaries of
    a worker thread (`embeddings.embed`'s second half-batch) reuse the
    main heap instead of growing an arena of their own; call it before
    starting the thread. A no-op where libc has no mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-8, 1)  # M_ARENA_MAX


def _truncate_log(path: str, iteration: int) -> None:
    """Rewrites `loss_log.csv` as its header and its rows 0 to iteration - 1,
    the complete ones in order, through a temp file and `os.replace`. A row
    past them, from a run killed after its last save, is dropped."""
    rows: list[str] = []
    if iteration and os.path.exists(path):
        with open(path) as fh:
            for row in fh:
                if (len(rows) < iteration and row.startswith(f"{len(rows)},")
                        and row.endswith("\n")):
                    rows.append(row)
    if len(rows) < iteration:
        log.warning("%s: rows %d to %d are missing", path, len(rows), iteration - 1)
    with open(path + ".tmp", "w") as fh:
        fh.write(",".join(Step._fields) + "\n")
        fh.writelines(rows)
    os.replace(path + ".tmp", path)


def train(images: list[np.ndarray], vit_cfg: VitConfig, ssl_cfg: SslConfig,
          train_cfg: TrainConfig, crop: CropSpec, out_dir: str,
          resume: bool = False) -> TrainState:
    """Full run: optimize, then write `checkpoint.rdck` (teacher encoder),
    `state.rdck` (resumable full state), and `loss_log.csv`, one row per
    `Step`. A resume refuses a `vit_cfg` other than its state's, and keeps
    only the log rows before its state's iteration; a refused run writes
    nothing."""
    if not images:
        raise InputError("empty training set")
    if crop.global_size != vit_cfg.image_size:
        raise DimensionError(f"crop side {crop.global_size} is not vit.image_size "
                             f"{vit_cfg.image_size}")
    keep_freed_memory()
    state_path = os.path.join(out_dir, "state.rdck")

    if resume:
        if not os.path.exists(state_path):
            raise InputError(f"cannot resume: {state_path} not found")
        state = load_train_state(state_path, ssl_cfg, train_cfg)
        differ = [f"vit.{k} is {v} there, {getattr(vit_cfg, k)} here"
                  for k, v in vars(state.vit_cfg).items() if getattr(vit_cfg, k) != v]
        if differ:
            raise InputError(f"{state_path}: another encoder: " + "; ".join(differ))
        log.info("resuming at iteration %d", state.iteration)
    else:
        state = init_train_state(vit_cfg, ssl_cfg, train_cfg)

    if state.iteration > train_cfg.iterations:
        raise ParameterError(
            f"saved state is at iteration {state.iteration}, past the "
            f"requested {train_cfg.iterations}")

    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "loss_log.csv")
    _truncate_log(log_path, state.iteration)
    with open(log_path, "a") as fh:
        for record in steps(state, images, crop):
            fh.write(",".join(map(repr, record)) + "\n")

    save_train_state(state_path, state)
    export_teacher(os.path.join(out_dir, "checkpoint.rdck"), state)
    return state
