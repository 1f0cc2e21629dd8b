"""Flat `key = value` run settings with documented precedence.

Resolution order is defaults < config file < --set overrides < dedicated
command-line flags; the fully resolved settings land in the run manifest so
a run can be replayed from it. Keys use dots for grouping ("word.frames")
and every key is validated against the schema below.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Mapping

from .errors import InputError, read_text
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
    """Every tunable of the train pipeline, flat, with desk-scale defaults."""

    model: str = "word"
    seed: int = 0
    batch_size: int = 32
    epochs: int = 30
    patience: int = 5
    shuffle: bool = True
    optimizer: str = "adam"
    lr: float = 1e-3
    momentum: float = 0.0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    word_embed_dim: int = 128
    word_length: int = 64
    word_frames: int = 256
    word_kernels: tuple[int, ...] = (3, 4, 5)
    word_pool: int = 2
    word_hidden: int = 150
    word_dropout: float = 0.5
    word_vocab_max_size: int = 20000
    word_vocab_min_count: int = 1
    word_embeddings: str = ""
    word_embeddings_trainable: bool = True
    char_embed_dim: int = 32
    char_length: int = 512
    char_convs: tuple[ConvSpec, ...] = field(
        default=(ConvSpec(256, 7, 3), ConvSpec(256, 3), ConvSpec(256, 3), ConvSpec(256, 3, 3))
    )
    char_hidden: tuple[int, ...] = (1024, 1024)
    char_dropout: float = 0.5
    char_alphabet_max_size: int = 256
    char_one_hot: bool = False

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
                elif name in ("word_kernels", "char_hidden"):
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

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            batch_size=self.batch_size, epochs=self.epochs, patience=self.patience,
            shuffle=self.shuffle, optimizer=self.optimizer, lr=self.lr,
            momentum=self.momentum, beta1=self.beta1, beta2=self.beta2, eps=self.eps,
            seed=self.seed,
        )

    def word_config(self, vocab_size: int) -> WordCnnConfig:
        return WordCnnConfig(
            vocab_size=vocab_size, embed_dim=self.word_embed_dim, length=self.word_length,
            frames=self.word_frames, kernels=self.word_kernels, pool=self.word_pool,
            hidden=self.word_hidden, dropout=self.word_dropout,
            embeddings_trainable=self.word_embeddings_trainable,
        )

    def char_config(self, alphabet_size: int) -> CharCnnConfig:
        embed_dim = alphabet_size if self.char_one_hot else self.char_embed_dim
        return CharCnnConfig(
            alphabet_size=alphabet_size, embed_dim=embed_dim, length=self.char_length,
            convs=self.char_convs, hidden=self.char_hidden, dropout=self.char_dropout,
            one_hot=self.char_one_hot,
        )


def parse_config_file(path: str | Path) -> dict[str, str]:
    """`key = value` lines; blank lines and full-line '#' comments skipped."""
    mapping: dict[str, str] = {}
    for line_no, raw in enumerate(read_text(path).splitlines(), start=1):
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
