"""Line-based run configuration.

Format: UTF-8 lines ``section.key = value`` with ``#`` comments. Unknown keys
are rejected; every run writes back the fully resolved configuration so any
result can be reproduced from that single file. One ``run.seed`` feeds every
random choice in the pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from .augment import CropSpec
from .data import read_text
from .errors import InputError
from .objective import SslConfig
from .synthetic import SynthConfig
from .trainer import TrainConfig
from .vit import VitConfig

# Each section's keys are its dataclass's fields, with their defaults, except
# that run.seed sets `seed`, vit.image_size sets `global_size`, the two ends of
# `global_scale` are crop.global_scale_lo/hi, and `in_channels` is not a key.
_SECTIONS = {"vit": VitConfig, "ssl": SslConfig, "train": TrainConfig,
             "crop": CropSpec, "synth": SynthConfig}


def _section_defaults() -> dict[str, object]:
    out: dict[str, object] = {}
    for section, cls in _SECTIONS.items():
        for f in fields(cls):
            if f.name == "global_scale":
                out["crop.global_scale_lo"], out["crop.global_scale_hi"] = f.default
            elif f.name not in ("seed", "in_channels", "global_size"):
                out[f"{section}.{f.name}"] = f.default
    return out


# key -> default; the default's type is the key's type.
DEFAULTS: dict[str, object] = {
    "run.seed": 0,
    **_section_defaults(),

    # crops come out at the side the encoder takes
    "data.patch_size": VitConfig.image_size,
    "data.cell_size": VitConfig.image_size,

    "embed.batch_size": 64,

    "eval.classifier": "knn",
    "eval.k": 20,
    "eval.metric": "cosine",
    "eval.reg_lambda": 1e-4,
    "eval.folds": 5,
}


def _parse_value(key: str, raw: str) -> object:
    default = DEFAULTS[key]
    raw = raw.strip()
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

    def _build(self, section: str):
        cls = _SECTIONS[section]
        kw = {k.split(".", 1)[1]: v for k, v in self.values.items()
              if k.startswith(section + ".")}
        if section == "crop":
            kw["global_scale"] = (kw.pop("global_scale_lo"), kw.pop("global_scale_hi"))
            kw["global_size"] = self.get("vit.image_size")
        if "seed" in {f.name for f in fields(cls)}:
            kw["seed"] = self.get("run.seed")
        return cls(**kw)

    def vit_config(self) -> VitConfig:
        return self._build("vit")

    def ssl_config(self) -> SslConfig:
        return self._build("ssl")

    def train_config(self) -> TrainConfig:
        return self._build("train")

    def crop_spec(self) -> CropSpec:
        return self._build("crop")

    def synth_config(self) -> SynthConfig:
        return self._build("synth")

    def classifier_spec(self) -> dict:
        g = self.get
        return {"kind": g("eval.classifier"), "k": g("eval.k"), "metric": g("eval.metric"),
                "reg_lambda": g("eval.reg_lambda")}

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
    return parse_config_text(read_text(path, "config file"), origin=path)


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
