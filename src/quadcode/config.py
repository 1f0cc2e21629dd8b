"""Flat `key = value` run settings with documented precedence.

Resolution order is defaults < config file < --set overrides < dedicated
command-line flags; the fully resolved settings land in the run manifest so
a run can be replayed from it. Keys use dots for grouping ("word.frames")
and every key is validated against the schema below.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path
from typing import Mapping

from .errors import InputError, read_text, text_lines
from .models import CharCnnConfig, ConvSpec, WordCnnConfig
from .train_eval import TrainConfig


class ConfigError(InputError):
    pass


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_int_tuple(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part.strip())


def _parse_convs(text: str) -> tuple[ConvSpec, ...]:
    """Compact conv-stack syntax: '256x7p3,256x3,256x3,256x3p3'."""
    specs = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        frames_text, _, rest = part.partition("x")
        if not rest:
            raise ValueError(f"conv spec {part!r} needs FRAMESxKERNEL[pPOOL]")
        kernel_text, pool_sep, pool_text = rest.partition("p")
        if pool_sep and not pool_text:
            raise ValueError(f"conv spec {part!r} has a dangling 'p'")
        specs.append(ConvSpec(int(frames_text), int(kernel_text), int(pool_text) if pool_text else None))
    if not specs:
        raise ValueError("empty conv stack")
    return tuple(specs)


def _render_convs(convs: tuple[ConvSpec, ...]) -> str:
    return ",".join(
        f"{s.frames}x{s.kernel}" + (f"p{s.pool}" if s.pool is not None else "") for s in convs
    )


def _file_key(field_name: str) -> str:
    # word_frames <-> "word.frames"; ungrouped names pass through unchanged
    prefix = field_name.split("_", 1)[0]
    return field_name.replace("_", ".", 1) if prefix in ("word", "char") else field_name


@dataclass
class Settings:
    """Every tunable of the train pipeline, flat. A field that feeds a config
    dataclass takes that dataclass's default, so each default is written once."""

    model: str = "word"
    seed: int = TrainConfig.seed
    batch_size: int = TrainConfig.batch_size
    epochs: int = TrainConfig.epochs
    patience: int = TrainConfig.patience
    shuffle: bool = TrainConfig.shuffle
    optimizer: str = TrainConfig.optimizer
    lr: float = TrainConfig.lr
    momentum: float = TrainConfig.momentum
    beta1: float = TrainConfig.beta1
    beta2: float = TrainConfig.beta2
    eps: float = TrainConfig.eps
    word_embed_dim: int = WordCnnConfig.embed_dim
    word_length: int = WordCnnConfig.length
    word_frames: int = WordCnnConfig.frames
    word_kernels: tuple[int, ...] = WordCnnConfig.kernels
    word_pool: int = WordCnnConfig.pool
    word_hidden: int = WordCnnConfig.hidden
    word_dropout: float = WordCnnConfig.dropout
    word_vocab_max_size: int = 20000
    word_vocab_min_count: int = 1
    word_embeddings: str = ""
    word_embeddings_trainable: bool = WordCnnConfig.embeddings_trainable
    char_embed_dim: int = CharCnnConfig.embed_dim
    char_length: int = CharCnnConfig.length
    char_convs: tuple[ConvSpec, ...] = CharCnnConfig.convs
    char_hidden: tuple[int, ...] = CharCnnConfig.hidden
    char_dropout: float = CharCnnConfig.dropout
    char_alphabet_max_size: int = 256
    char_one_hot: bool = CharCnnConfig.one_hot

    def apply(self, mapping: Mapping[str, str], source: str) -> None:
        """Coerce and set string values from a file or --set overrides."""
        by_key = {_file_key(f.name): f.name for f in fields(self)}
        for key, text in mapping.items():
            name = by_key.get(key)
            if name is None:
                known = ", ".join(sorted(by_key))
                raise ConfigError(f"{source}: unknown setting {key!r} (known: {known})")
            current = getattr(self, name)
            try:
                if name == "char_convs":
                    value = _parse_convs(text)
                elif isinstance(current, tuple):
                    value = _parse_int_tuple(text)
                elif isinstance(current, bool):
                    value = _parse_bool(text)
                elif isinstance(current, int):
                    value = int(text)
                elif isinstance(current, float):
                    value = float(text)
                else:
                    value = text.strip()
            except ValueError as exc:
                raise ConfigError(f"{source}: bad value for {key}: {exc}") from None
            setattr(self, name, value)
        if self.model not in ("word", "char"):
            raise ConfigError(f"{source}: model must be 'word' or 'char', got {self.model!r}")

    def to_json_obj(self) -> dict:
        obj = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "char_convs":
                value = _render_convs(value)
            elif isinstance(value, tuple):
                value = list(value)
            obj[f.name] = value
        return obj

    def _config(self, cls, prefix: str, **data):
        """cls built field by field: `data` supplies the sizes the data decides,
        the setting `prefix + name` every other field but `classes` (always 4)."""
        names = [f.name for f in fields(cls) if f.name not in data and f.name != "classes"]
        return cls(**data, **{name: getattr(self, prefix + name) for name in names})

    def train_config(self) -> TrainConfig:
        return self._config(TrainConfig, "")

    def word_config(self, vocab_size: int) -> WordCnnConfig:
        return self._config(WordCnnConfig, "word_", vocab_size=vocab_size)

    def char_config(self, alphabet_size: int) -> CharCnnConfig:
        one_hot = {"embed_dim": alphabet_size} if self.char_one_hot else {}
        return self._config(CharCnnConfig, "char_", alphabet_size=alphabet_size, **one_hot)


def parse_config_file(path: str | Path) -> dict[str, str]:
    """`key = value` lines; blank lines and full-line '#' comments skipped."""
    mapping: dict[str, str] = {}
    for line_no, raw in enumerate(text_lines(read_text(path)), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{line_no}: expected 'key = value', got {raw!r}")
        key = key.strip()
        if not key:
            raise ConfigError(f"{path}:{line_no}: empty key")
        if key in mapping:
            raise ConfigError(f"{path}:{line_no}: duplicate key {key!r}")
        mapping[key] = value.strip()
    return mapping


def parse_overrides(pairs: list[str]) -> dict[str, str]:
    """--set KEY=VALUE arguments."""
    mapping: dict[str, str] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key.strip():
            raise ConfigError(f"--set needs KEY=VALUE, got {pair!r}")
        mapping[key.strip()] = value.strip()
    return mapping


def resolve_settings(
    config_path: str | Path | None = None, overrides: list[str] | None = None
) -> Settings:
    settings = Settings()
    if config_path is not None:
        settings.apply(parse_config_file(config_path), source=str(config_path))
    if overrides:
        settings.apply(parse_overrides(overrides), source="--set")
    return settings
