"""Small Vision Transformer producing one CLS embedding per image view.

Parameters live in a flat ``{name: Tensor}`` dict so the trainer, the EMA
teacher update, and the checkpoint writer all see the same handles. Patch
tokens stay reachable for the PCA feature-map path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import DimensionError, ParameterError


@dataclass(frozen=True)
class VitConfig:
    image_size: int = 64
    patch_size: int = 8
    embed_dim: int = 64
    depth: int = 2
    heads: int = 4
    mlp_ratio: float = 4.0
    in_channels: int = 3

    def __post_init__(self):
        for field in ("image_size", "patch_size", "embed_dim", "depth", "heads", "in_channels"):
            if getattr(self, field) < 1:
                raise ParameterError(f"{field} must be >= 1")
        if self.image_size % self.patch_size != 0:
            raise ParameterError(
                f"image_size {self.image_size} not divisible by patch_size {self.patch_size}"
            )
        if self.embed_dim % self.heads != 0:
            raise ParameterError(
                f"embed_dim {self.embed_dim} not divisible by heads {self.heads}"
            )
        if not (math.isfinite(self.mlp_ratio) and self.mlp_hidden >= 1):
            raise ParameterError("mlp_ratio must be finite and give mlp_hidden >= 1")

    @property
    def grid(self) -> int:
        return self.image_size // self.patch_size

    @property
    def num_patches(self) -> int:
        return self.grid * self.grid

    @property
    def mlp_hidden(self) -> int:
        return int(self.embed_dim * self.mlp_ratio)


def truncated_normal(rng: np.random.Generator, shape, std: float = 0.02) -> np.ndarray:
    """N(0, std^2) samples rejected outside +-2 std."""
    out = rng.normal(0.0, std, size=shape)
    bad = np.abs(out) > 2 * std
    while np.any(bad):
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > 2 * std
    return out.astype(np.float32)


def check_image_shape(cfg: VitConfig, shape, origin: str = "") -> None:
    """Refuses an image shape [H, W, C] the encoder cannot take; the message
    starts with ``origin``."""
    h, w, c = shape
    if h != cfg.image_size or w != cfg.image_size:
        raise DimensionError(
            f"{origin}expected {cfg.image_size}x{cfg.image_size} images, got {h}x{w}"
        )
    if c != cfg.in_channels:
        raise DimensionError(f"{origin}expected {cfg.in_channels} channels, got {c}")


def images_to_patches(images: np.ndarray, cfg: VitConfig) -> np.ndarray:
    """[B,H,W,C] float array -> [B, N, patch*patch*C] row-major patch rows."""
    b, h, w, c = images.shape
    check_image_shape(cfg, (h, w, c))
    p, g = cfg.patch_size, cfg.grid
    x = images.reshape(b, g, p, g, p, c)
    x = x.transpose(0, 1, 3, 2, 4, 5)
    return np.ascontiguousarray(x.reshape(b, g * g, p * p * c))


def vit_param_shapes(cfg: VitConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter's shape, by name, in the order the checkpoint writes
    them and `init_vit_params` draws them."""
    d, hidden = cfg.embed_dim, cfg.mlp_hidden
    shapes = {"patch_proj.weight": (cfg.patch_size**2 * cfg.in_channels, d),
              "patch_proj.bias": (d,), "pos_embed": (cfg.num_patches + 1, d),
              "cls_token": (d,)}
    for i in range(cfg.depth):
        pre = f"blocks.{i}."
        shapes.update({
            pre + "ln1.gain": (d,), pre + "ln1.bias": (d,),
            pre + "attn.qkv.weight": (d, 3 * d), pre + "attn.qkv.bias": (3 * d,),
            pre + "attn.proj.weight": (d, d), pre + "attn.proj.bias": (d,),
            pre + "ln2.gain": (d,), pre + "ln2.bias": (d,),
            pre + "mlp.fc1.weight": (d, hidden), pre + "mlp.fc1.bias": (hidden,),
            pre + "mlp.fc2.weight": (hidden, d), pre + "mlp.fc2.bias": (d,)})
    shapes.update({"final_ln.gain": (d,), "final_ln.bias": (d,)})
    return shapes


def init_vit_params(cfg: VitConfig, rng: np.random.Generator) -> dict[str, T.Tensor]:
    """Fresh parameter dict: truncated normal (std 0.02) projections and
    position embedding, zero biases, unit layernorm gains,
    CLS ~ N(0, 0.02^2)."""
    params = {}
    for name, shape in vit_param_shapes(cfg).items():
        if name == "cls_token":
            arr = rng.normal(0.0, 0.02, size=shape).astype(np.float32)
        elif name.endswith((".weight", "pos_embed")):
            arr = truncated_normal(rng, shape)
        else:
            arr = np.full(shape, name.endswith(".gain"), dtype=np.float32)
        params[name] = T.Tensor(arr, requires_grad=True)
    return params


class VitEncoder:
    """Pre-norm ViT. `forward` returns the CLS embedding after the final
    layernorm and runs the last block on the CLS query only: that block's
    k and v still come from every token, but its attention asks for token 0
    alone and its projection, MLP and the final layernorm see one row per
    image. `forward_tokens` runs every block on every token and returns the
    patch tokens, for the feature-map path. The two share all earlier work;
    the CLS row of the all-token path equals `forward` to float32 rounding,
    not bit for bit, since BLAS rounds a one-row product differently from
    the same row inside a longer one."""

    def __init__(self, cfg: VitConfig, params: dict[str, T.Tensor]):
        self.cfg = cfg
        self.params = params

    def _tokens(self, images: np.ndarray, cls_only: bool) -> T.Tensor:
        """Tokens after the final layernorm, CLS first: all of them,
        [B, 1+N, D], or with `cls_only` the CLS row alone, [B, 1, D], the
        last block dropping the patch rows once its keys and values are
        made."""
        cfg, p = self.cfg, self.params
        patches = images_to_patches(np.asarray(images), cfg)
        x = T.Tensor(patches.astype(p["patch_proj.weight"].dtype, copy=False))
        x = T.linear(x, p["patch_proj.weight"], p["patch_proj.bias"])  # [B,N,D]
        # CLS onto every row as one broadcast add: -0.0 + c is c bit for bit,
        # and the gradient sums over the batch in row order
        cls = T.add(np.full((x.shape[0], 1, cfg.embed_dim), -0.0, x.dtype), p["cls_token"])
        x = T.concat([cls, x], axis=1)  # [B,1+N,D]
        x = x + p["pos_embed"]
        for i in range(cfg.depth):
            pre = f"blocks.{i}."
            queries = 1 if cls_only and i == cfg.depth - 1 else None
            h = T.layernorm(x, p[pre + "ln1.gain"], p[pre + "ln1.bias"])
            h = T.attention(T.linear(h, p[pre + "attn.qkv.weight"], p[pre + "attn.qkv.bias"]),
                            cfg.heads, queries)
            if queries:
                x = T.narrow(x, 1, 0, queries)  # [B,1,D] from here on
            x = x + T.linear(h, p[pre + "attn.proj.weight"], p[pre + "attn.proj.bias"])
            h = T.layernorm(x, p[pre + "ln2.gain"], p[pre + "ln2.bias"])
            h = T.gelu(T.linear(h, p[pre + "mlp.fc1.weight"], p[pre + "mlp.fc1.bias"]))
            h = T.linear(h, p[pre + "mlp.fc2.weight"], p[pre + "mlp.fc2.bias"])
            x = x + h
            x.check_finite(f"encoder block {i} output")
        x = T.layernorm(x, p["final_ln.gain"], p["final_ln.bias"])
        x.check_finite("final layernorm output")
        return x

    def forward(self, images: np.ndarray) -> T.Tensor:
        """CLS embeddings [B, D]."""
        x = self._tokens(images, cls_only=True)
        return T.reshape(x, (x.shape[0], self.cfg.embed_dim))

    def forward_tokens(self, images: np.ndarray) -> T.Tensor:
        """Patch tokens [B, N, D] after the final layernorm."""
        return T.narrow(self._tokens(images, cls_only=False), 1, 1, self.cfg.num_patches)
