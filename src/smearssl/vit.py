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


def images_to_patches(images: np.ndarray, cfg: VitConfig) -> np.ndarray:
    """[B,H,W,C] float array -> [B, N, patch*patch*C] row-major patch rows."""
    b, h, w, c = images.shape
    if h != cfg.image_size or w != cfg.image_size:
        raise DimensionError(
            f"expected {cfg.image_size}x{cfg.image_size} images, got {h}x{w}"
        )
    if c != cfg.in_channels:
        raise DimensionError(f"expected {cfg.in_channels} channels, got {c}")
    p, g = cfg.patch_size, cfg.grid
    x = images.reshape(b, g, p, g, p, c)
    x = x.transpose(0, 1, 3, 2, 4, 5)
    return np.ascontiguousarray(x.reshape(b, g * g, p * p * c))


def vit_param_names(cfg: VitConfig) -> list[str]:
    names = ["patch_proj.weight", "patch_proj.bias", "pos_embed", "cls_token"]
    for i in range(cfg.depth):
        pre = f"blocks.{i}."
        names += [pre + n for n in (
            "ln1.gain", "ln1.bias", "attn.qkv.weight", "attn.qkv.bias",
            "attn.proj.weight", "attn.proj.bias", "ln2.gain", "ln2.bias",
            "mlp.fc1.weight", "mlp.fc1.bias", "mlp.fc2.weight", "mlp.fc2.bias")]
    names += ["final_ln.gain", "final_ln.bias"]
    return names


def init_vit_params(cfg: VitConfig, rng: np.random.Generator) -> dict[str, T.Tensor]:
    """Fresh parameter dict: truncated normal (std 0.02) projections, zero
    biases, unit layernorm gains, CLS ~ N(0, 0.02^2)."""
    d = cfg.embed_dim
    params: dict[str, np.ndarray] = {}
    params["patch_proj.weight"] = truncated_normal(rng, (cfg.patch_size**2 * cfg.in_channels, d))
    params["patch_proj.bias"] = np.zeros(d, dtype=np.float32)
    params["pos_embed"] = truncated_normal(rng, (cfg.num_patches + 1, d))
    params["cls_token"] = rng.normal(0.0, 0.02, size=d).astype(np.float32)
    for i in range(cfg.depth):
        pre = f"blocks.{i}."
        params[pre + "ln1.gain"] = np.ones(d, dtype=np.float32)
        params[pre + "ln1.bias"] = np.zeros(d, dtype=np.float32)
        params[pre + "attn.qkv.weight"] = truncated_normal(rng, (d, 3 * d))
        params[pre + "attn.qkv.bias"] = np.zeros(3 * d, dtype=np.float32)
        params[pre + "attn.proj.weight"] = truncated_normal(rng, (d, d))
        params[pre + "attn.proj.bias"] = np.zeros(d, dtype=np.float32)
        params[pre + "ln2.gain"] = np.ones(d, dtype=np.float32)
        params[pre + "ln2.bias"] = np.zeros(d, dtype=np.float32)
        params[pre + "mlp.fc1.weight"] = truncated_normal(rng, (d, cfg.mlp_hidden))
        params[pre + "mlp.fc1.bias"] = np.zeros(cfg.mlp_hidden, dtype=np.float32)
        params[pre + "mlp.fc2.weight"] = truncated_normal(rng, (cfg.mlp_hidden, d))
        params[pre + "mlp.fc2.bias"] = np.zeros(d, dtype=np.float32)
    params["final_ln.gain"] = np.ones(d, dtype=np.float32)
    params["final_ln.bias"] = np.zeros(d, dtype=np.float32)
    return {k: T.Tensor(v, requires_grad=True) for k, v in params.items()}


class VitEncoder:
    """Pre-norm ViT; forward returns the CLS embedding after the final
    layernorm and copies out no patch tokens; forward_tokens also returns
    them, for the feature-map path."""

    LN_EPS = 1e-6

    def __init__(self, cfg: VitConfig, params: dict[str, T.Tensor]):
        self.cfg = cfg
        self.params = params

    def _tokens(self, images: np.ndarray) -> T.Tensor:
        """All tokens [B, 1+N, D] after the final layernorm, CLS first."""
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
            h = T.layernorm(x, p[pre + "ln1.gain"], p[pre + "ln1.bias"], self.LN_EPS)
            h = T.attention(T.linear(h, p[pre + "attn.qkv.weight"], p[pre + "attn.qkv.bias"]),
                            cfg.heads)
            x = x + T.linear(h, p[pre + "attn.proj.weight"], p[pre + "attn.proj.bias"])
            h = T.layernorm(x, p[pre + "ln2.gain"], p[pre + "ln2.bias"], self.LN_EPS)
            h = T.gelu(T.linear(h, p[pre + "mlp.fc1.weight"], p[pre + "mlp.fc1.bias"]))
            h = T.linear(h, p[pre + "mlp.fc2.weight"], p[pre + "mlp.fc2.bias"])
            x = x + h
            x.check_finite(f"encoder block {i} output")
        x = T.layernorm(x, p["final_ln.gain"], p["final_ln.bias"], self.LN_EPS)
        x.check_finite("final layernorm output")
        return x

    def forward(self, images: np.ndarray) -> T.Tensor:
        """CLS embeddings [B, D]."""
        x = self._tokens(images)
        return T.reshape(T.narrow(x, 1, 0, 1), (x.shape[0], self.cfg.embed_dim))

    def forward_tokens(self, images: np.ndarray) -> tuple[T.Tensor, T.Tensor]:
        """Returns (cls [B,D], patch tokens [B,N,D]) after the final layernorm."""
        x = self._tokens(images)
        cls_out = T.reshape(T.narrow(x, 1, 0, 1), (x.shape[0], self.cfg.embed_dim))
        return cls_out, T.narrow(x, 1, 1, self.cfg.num_patches)
