"""Self-distillation objective: projection head, teacher target production,
view-pair cross-entropy, and the optional nearest-neighbor spread regularizer.

The teacher side is plain numpy (no gradients ever flow through it); the
student side builds on the tape primitives. Three centering modes are
supported for the teacher targets:

* ``ema``      classic moving-average center subtracted before the softmax
* ``sinkhorn`` balanced-assignment normalization of exp(logits / temp)
* ``none``     bare softmax, kept for the collapse ablation
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ParameterError
from .vit import truncated_normal

CENTERING_MODES = ("ema", "sinkhorn", "none")


@dataclass(frozen=True)
class SslConfig:
    head_hidden: int = 2048
    bottleneck: int = 256
    num_prototypes: int = 256
    student_temp: float = 0.1
    teacher_temp: float = 0.04
    centering: str = "sinkhorn"
    center_momentum: float = 0.9
    sinkhorn_iters: int = 3
    koleo_weight: float = 0.0  # the spread regularizer runs when > 0

    def __post_init__(self):
        for name in ("student_temp", "teacher_temp"):
            if not 0 < getattr(self, name) < math.inf:
                raise ParameterError(f"{name} must be finite and > 0")
        if self.centering not in CENTERING_MODES:
            raise ParameterError(
                f"centering must be one of {CENTERING_MODES}, got {self.centering!r}")
        for name in ("head_hidden", "bottleneck", "sinkhorn_iters"):
            if getattr(self, name) < 1:
                raise ParameterError(f"{name} must be >= 1")
        if self.num_prototypes < 2:
            raise ParameterError("need at least 2 prototypes")
        if not 0.0 <= self.center_momentum < 1.0:
            raise ParameterError("center_momentum must lie in [0, 1)")
        if not 0 <= self.koleo_weight < math.inf:
            raise ParameterError("koleo_weight must be finite and >= 0")


def head_param_shapes(cfg: SslConfig, embed_dim: int) -> dict[str, tuple[int, ...]]:
    """Every head parameter's shape, by name, in the order
    `init_head_params` draws them."""
    h, b = cfg.head_hidden, cfg.bottleneck
    return {"fc1.weight": (embed_dim, h), "fc1.bias": (h,),
            "fc2.weight": (h, h), "fc2.bias": (h,),
            "fc3.weight": (h, b), "fc3.bias": (b,),
            "prototypes": (cfg.num_prototypes, b)}


def init_head_params(cfg: SslConfig, embed_dim: int,
                     rng: np.random.Generator) -> dict[str, T.Tensor]:
    """Three linear layers with GELU between, a normalized bottleneck, and a
    unit-row prototype matrix."""
    w = {name: np.zeros(shape, dtype=np.float32) if name.endswith(".bias")
         else truncated_normal(rng, shape)
         for name, shape in head_param_shapes(cfg, embed_dim).items()}
    params = {k: T.Tensor(v, requires_grad=True) for k, v in w.items()}
    renormalize_prototypes(params)
    return params


def head_forward(params: dict[str, T.Tensor], x: T.Tensor) -> tuple[T.Tensor, T.Tensor]:
    """Embedding [B,D] -> (prototype logits [B,K], bottleneck z [B,bottleneck])."""
    h = T.gelu(T.linear(x, params["fc1.weight"], params["fc1.bias"]))
    h = T.gelu(T.linear(h, params["fc2.weight"], params["fc2.bias"]))
    z = T.linear(h, params["fc3.weight"], params["fc3.bias"])
    zn = T.l2_normalize(z, axis=-1)
    logits = T.matmul(zn, T.transpose(params["prototypes"], (1, 0)))
    return logits, z


def renormalize_prototypes(params: dict[str, T.Tensor]) -> None:
    """Project prototype rows back onto the unit sphere, in place (run after
    each optimizer step)."""
    p = params["prototypes"].data
    norms = np.linalg.norm(p.astype(np.float64), axis=1, keepdims=True)
    np.divide(p, np.maximum(norms, 1e-12), out=p, casting="same_kind")


@dataclass
class CenteringState:
    """Moving-average center for the ``ema`` mode; float32, as stored."""
    center: np.ndarray

    @classmethod
    def fresh(cls, num_prototypes: int) -> "CenteringState":
        return cls(np.zeros(num_prototypes, dtype=np.float32))

    def update(self, teacher_logits: np.ndarray, momentum: float) -> None:
        batch_mean = teacher_logits.astype(np.float64).mean(axis=0)
        self.center[...] = momentum * self.center + (1.0 - momentum) * batch_mean


def softmax_np(x: np.ndarray, temp: float = 1.0, axis: int = -1) -> np.ndarray:
    z = x.astype(np.float64) / temp
    z = z - z.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def sinkhorn_targets(logits: np.ndarray, temp: float, iters: int) -> np.ndarray:
    """Balanced soft assignments: rows sum to 1, columns pulled toward B/K.

    Alternates prototype-marginal and sample-marginal normalization, ending
    on the sample side so every returned row is a distribution.
    """
    if iters < 1:
        raise ParameterError("sinkhorn iters must be >= 1")
    b, k = logits.shape
    z = logits.astype(np.float64) / temp
    q = np.exp(z - z.max())
    for _ in range(iters):
        col = q.sum(axis=0, keepdims=True)
        q = q / np.maximum(col, 1e-300) * (b / k)
        row = q.sum(axis=1, keepdims=True)
        q = q / np.maximum(row, 1e-300)
    return q


def ema_targets(logits: np.ndarray, center: np.ndarray, temp: float) -> np.ndarray:
    return softmax_np(logits.astype(np.float64) - center[None, :], temp)


def _check_view_rows(rows: int) -> None:
    """Rows must hold two views of a batch of >= 2 images, [2B, ...]."""
    if rows % 2 or rows < 4:
        raise ParameterError(f"need two views of a batch of >= 2 images, "
                             f"[2B, ...], got {rows} rows")


def teacher_targets_multiview(logits: np.ndarray, cfg: SslConfig,
                              state: CenteringState) -> np.ndarray:
    """Targets for teacher logits [2B, K], the first view's rows then the
    second's, dispatched on the configured centering mode. Sinkhorn balances
    each view's half separately; the ema center is read once for all rows
    and then updated once from them, matching the one-update-per-step
    convention."""
    _check_view_rows(logits.shape[0])
    if cfg.centering == "sinkhorn":
        return np.concatenate([sinkhorn_targets(half, cfg.teacher_temp, cfg.sinkhorn_iters)
                               for half in np.split(logits, 2)])
    if cfg.centering == "ema":
        out = ema_targets(logits, state.center, cfg.teacher_temp)
        state.update(logits, cfg.center_momentum)
        return out
    return softmax_np(logits, cfg.teacher_temp)


def dino_loss(student_logits: T.Tensor, targets: np.ndarray,
              student_temp: float) -> T.Tensor:
    """Cross-entropy of each student view against the other view's teacher
    targets, averaged over the two ordered pairs; logits and targets are
    [2B, K], the first view's rows then the second's."""
    _check_view_rows(student_logits.shape[0])
    b = student_logits.shape[0] // 2
    swapped = np.roll(targets, b, axis=0).astype(student_logits.dtype, copy=False)
    logp = T.log_softmax(student_logits * (1.0 / student_temp), axis=-1)
    rows = T.tensor_sum(T.Tensor(swapped) * logp, axis=-1)
    per_view = T.mean(T.reshape(rows, (2, b)), axis=-1)
    return T.tensor_sum(T.neg(per_view)) * 0.5


def koleo_loss(z: T.Tensor, eps: float = 1e-8) -> T.Tensor:
    """Differential-entropy style spread term: mean of -log(nearest-neighbor
    distance) over l2-normalized rows. Minimized by pushing each point away
    from its closest sibling."""
    b = z.shape[0]
    if b < 2:
        raise ParameterError("spread regularizer needs a batch of at least 2")
    zn = T.l2_normalize(z, axis=-1)
    # Neighbor choice is a discrete decision; make it on values, then let the
    # gradient flow through the chosen pair only.
    g = zn.data @ zn.data.T
    sq = np.clip(2.0 - 2.0 * g, 0.0, None)
    np.fill_diagonal(sq, np.inf)
    nn = np.argmin(sq, axis=1).astype(np.int64)
    zj = T.gather_rows(zn, nn)
    diff = zn - zj
    dist = T.sqrt(T.tensor_sum(diff * diff, axis=-1) + 1e-20)
    return T.neg(T.mean(T.log(dist + eps)))


def total_loss(student_logits: T.Tensor, targets: np.ndarray, cfg: SslConfig,
               student_z: T.Tensor) -> T.Tensor:
    """The view-pair cross-entropy, plus the spread term of each view's
    bottleneck rows of `student_z` [2B, bottleneck] when koleo_weight > 0."""
    loss = dino_loss(student_logits, targets, cfg.student_temp)
    if cfg.koleo_weight > 0:
        b = student_z.shape[0] // 2
        reg = (koleo_loss(T.narrow(student_z, 0, 0, b))
               + koleo_loss(T.narrow(student_z, 0, b, b)))
        loss = loss + (cfg.koleo_weight / 2) * reg
    return loss


def mean_assignment_entropy(targets: np.ndarray) -> float:
    """Entropy of the batch-averaged assignment distribution. ln(K) means the
    prototypes are used uniformly; near 0 means collapse onto a few."""
    p = targets.astype(np.float64).mean(axis=0)
    p = p / p.sum()
    nz = p[p > 0]
    return float(-(nz * np.log(nz)).sum())


def marginal_deviation(targets: np.ndarray) -> float:
    """Largest gap between a prototype's batch-averaged assignment and the
    uniform 1/K; Sinkhorn balancing drives it to 0."""
    return float(np.abs(targets.mean(axis=0) - 1 / targets.shape[1]).max())
