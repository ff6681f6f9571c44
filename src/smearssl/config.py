"""Line-based run configuration.

Format: UTF-8 lines ``section.key = value`` with ``#`` comments. Unknown keys
are rejected; every run writes back the fully resolved configuration so any
result can be reproduced from that single file. One ``run.seed`` feeds every
random choice in the pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .augment import CropSpec
from .errors import InputError
from .objective import SslConfig
from .synthetic import SynthConfig
from .trainer import TrainConfig
from .vit import VitConfig

# key -> default; the default's type is the key's type.
DEFAULTS: dict[str, object] = {
    "run.seed": 0,

    "vit.image_size": 64,
    "vit.patch_size": 8,
    "vit.embed_dim": 64,
    "vit.depth": 2,
    "vit.heads": 4,
    "vit.mlp_ratio": 4.0,

    "ssl.head_hidden": 2048,
    "ssl.bottleneck": 256,
    "ssl.num_prototypes": 256,
    "ssl.student_temp": 0.1,
    "ssl.teacher_temp": 0.04,
    "ssl.centering": "sinkhorn",
    "ssl.center_momentum": 0.9,
    "ssl.sinkhorn_iters": 3,
    "ssl.koleo_enabled": False,
    "ssl.koleo_weight": 0.1,
    "ssl.koleo_eps": 1e-8,

    "train.iterations": 300,
    "train.batch_size": 32,
    "train.base_lr": 1e-3,
    "train.final_lr": 1e-5,
    "train.warmup_frac": 0.1,
    "train.weight_decay": 0.04,
    "train.teacher_momentum_start": 0.992,
    "train.teacher_momentum_end": 1.0,

    "crop.global_size": 64,
    "crop.global_scale_lo": 0.4,
    "crop.global_scale_hi": 1.0,
    "crop.flip_p": 0.5,
    "crop.jitter_p": 0.8,
    "crop.jitter_strength": 0.3,
    "crop.grayscale_p": 0.1,
    "crop.blur_p": 0.3,
    "crop.blur_sigma": 1.0,
    "crop.solarize_p": 0.1,
    "crop.solarize_threshold": 0.5,

    "synth.n_images": 60,
    "synth.sources": 2,
    "synth.classes": 3,
    "synth.image_size": 64,
    "synth.cells_min": 3,
    "synth.cells_max": 6,
    "synth.cell_radius_lo": 0.09,
    "synth.cell_radius_hi": 0.13,
    "synth.tint_delta": 0.04,
    "synth.noise_base": 0.012,
    "synth.noise_step": 0.008,
    "synth.illum": 0.05,

    "data.patch_size": 224,
    "data.cell_size": 224,

    "embed.batch_size": 64,

    "eval.classifier": "knn",
    "eval.k": 20,
    "eval.metric": "cosine",
    "eval.reg_lambda": 1e-4,
    "eval.max_epochs": 500,
    "eval.tol": 1e-6,
    "eval.folds": 5,

    "pca.components": 3,
}


def _parse_value(key: str, raw: str) -> object:
    default = DEFAULTS[key]
    raw = raw.strip()
    if isinstance(default, bool):
        low = raw.lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise InputError(f"{key}: expected a boolean, got {raw!r}")
    try:
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            return float(raw)
    except ValueError:
        raise InputError(f"{key}: cannot parse {raw!r} as "
                         f"{type(default).__name__}") from None
    return raw


def _format_value(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


@dataclass
class RunConfig:
    values: dict[str, object] = field(default_factory=lambda: dict(DEFAULTS))

    def get(self, key: str):
        if key not in self.values:
            raise InputError(f"unknown config key: {key}")
        return self.values[key]

    def set(self, key: str, raw: str) -> None:
        if key not in DEFAULTS:
            raise InputError(f"unknown config key: {key}")
        self.values[key] = _parse_value(key, raw)

    def set_typed(self, key: str, value: object) -> None:
        if key not in DEFAULTS:
            raise InputError(f"unknown config key: {key}")
        self.values[key] = value

    # section builders -----------------------------------------------------

    def vit_config(self) -> VitConfig:
        g = self.get
        return VitConfig(image_size=g("vit.image_size"), patch_size=g("vit.patch_size"),
                         embed_dim=g("vit.embed_dim"), depth=g("vit.depth"),
                         heads=g("vit.heads"), mlp_ratio=g("vit.mlp_ratio"))

    def ssl_config(self) -> SslConfig:
        g = self.get
        return SslConfig(
            head_hidden=g("ssl.head_hidden"), bottleneck=g("ssl.bottleneck"),
            num_prototypes=g("ssl.num_prototypes"),
            student_temp=g("ssl.student_temp"), teacher_temp=g("ssl.teacher_temp"),
            centering=g("ssl.centering"), center_momentum=g("ssl.center_momentum"),
            sinkhorn_iters=g("ssl.sinkhorn_iters"),
            koleo_enabled=g("ssl.koleo_enabled"), koleo_weight=g("ssl.koleo_weight"),
            koleo_eps=g("ssl.koleo_eps"))

    def train_config(self) -> TrainConfig:
        g = self.get
        return TrainConfig(
            iterations=g("train.iterations"), batch_size=g("train.batch_size"),
            base_lr=g("train.base_lr"), final_lr=g("train.final_lr"),
            warmup_frac=g("train.warmup_frac"), weight_decay=g("train.weight_decay"),
            teacher_momentum_start=g("train.teacher_momentum_start"),
            teacher_momentum_end=g("train.teacher_momentum_end"),
            seed=g("run.seed"))

    def crop_spec(self) -> CropSpec:
        g = self.get
        return CropSpec(
            global_size=g("crop.global_size"),
            global_scale=(g("crop.global_scale_lo"), g("crop.global_scale_hi")),
            flip_p=g("crop.flip_p"), jitter_p=g("crop.jitter_p"),
            jitter_strength=g("crop.jitter_strength"),
            grayscale_p=g("crop.grayscale_p"), blur_p=g("crop.blur_p"),
            blur_sigma=g("crop.blur_sigma"), solarize_p=g("crop.solarize_p"),
            solarize_threshold=g("crop.solarize_threshold"))

    def synth_config(self) -> SynthConfig:
        g = self.get
        return SynthConfig(
            n_images=g("synth.n_images"), sources=g("synth.sources"),
            classes=g("synth.classes"), image_size=g("synth.image_size"),
            cells_min=g("synth.cells_min"), cells_max=g("synth.cells_max"),
            cell_radius_lo=g("synth.cell_radius_lo"),
            cell_radius_hi=g("synth.cell_radius_hi"),
            tint_delta=g("synth.tint_delta"), noise_base=g("synth.noise_base"),
            noise_step=g("synth.noise_step"), illum=g("synth.illum"),
            seed=g("run.seed"))

    def classifier_spec(self) -> dict:
        g = self.get
        kind = g("eval.classifier")
        if kind not in ("knn", "linear"):
            raise InputError(f"eval.classifier must be knn or linear, got {kind!r}")
        return {"kind": kind, "k": g("eval.k"), "metric": g("eval.metric"),
                "reg_lambda": g("eval.reg_lambda"),
                "max_epochs": g("eval.max_epochs"), "tol": g("eval.tol")}

    def resolved_text(self) -> str:
        lines = ["# resolved configuration (reproduces this run when passed"
                 " via --config)"]
        section = None
        for key in sorted(self.values):
            sec = key.split(".", 1)[0]
            if sec != section:
                lines.append("")
                section = sec
            lines.append(f"{key} = {_format_value(self.values[key])}")
        return "\n".join(lines) + "\n"


def parse_config_text(text: str, origin: str = "<config>") -> RunConfig:
    cfg = RunConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"{origin}:{lineno}: expected 'section.key = value', "
                             f"got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in DEFAULTS:
            raise InputError(f"{origin}:{lineno}: unknown config key: {key}")
        cfg.set(key, value)
    return cfg


def load_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_config_text(fh.read(), origin=path)
    except FileNotFoundError:
        raise InputError(f"config file not found: {path}") from None


def apply_overrides(cfg: RunConfig, overrides: list[str]) -> None:
    """--set key=value pairs, applied in order after the file."""
    for item in overrides:
        if "=" not in item:
            raise InputError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        cfg.set(key.strip(), value)


def write_resolved(cfg: RunConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(cfg.resolved_text())
