"""Flat key-value experiment configuration.

The config file format is one ``section.key = value`` per line, ``#`` starts
a comment, values are scalars or comma-separated lists. The same format is
echoed into every run manifest, so a manifest can be fed back to ``conal run``
to reproduce a run (``meta.*`` keys are informational and ignored on load).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .data import SHIFT_KINDS, DatasetSpec, full_shift_suite
from .errors import ConfigError
from .io import FORMATS
from .loop import LoopConfig
from .model import ModelConfig
from .strategies import get_strategy

# Every config key with its type and preset default; [int] and [str] are
# comma-separated lists. The model defaults are the desk-scale preset (the
# ModelConfig class carries the method's reference defaults instead).
_KEYS = {
    "data.source": (str, "synthetic"),
    "data.k": (int, 10),
    "data.d": (int, 32),
    "data.n_per_class": (int, 5000),
    "data.imbalance_ratio": (float, 50.0),
    "data.class_separation": (float, 4.5),
    "data.noise_sigma": (float, 1.0),
    "data.seed": (int, 0),
    "data.test_n_per_class": (int, 200),
    "data.ood_n": (int, 1000),
    "data.train_path": (str, None),
    "data.test_path": (str, None),
    "data.ood_path": (str, None),
    "data.format": (str, "binary"),
    "model.d_hidden": (int, 64),
    "model.d_feat": (int, 32),
    "model.d_proj": (int, 16),
    "model.temperature": (float, 0.2),
    "model.lr": (float, 0.1),
    "model.weight_decay": (float, 0.01),
    "model.epochs": (int, 60),
    "model.batch_size": (int, 64),
    "model.aug_sigma": (float, 0.2),
    "model.dropout_rate": (float, 0.3),
    "loop.budget": (int, 1000),
    "loop.acquisition_size": (int, 100),
    "loop.subset_size": (int, 2000),
    "loop.tau": (int, LoopConfig.tau),
    "loop.force_per_class": (bool, False),
    "loop.loss_override": (str, None),
    "shift.kinds": ([str], SHIFT_KINDS),
    "shift.intensities": ([int], (1, 2, 3, 4, 5)),
    "run.strategies": ([str], ("featuresim", "random")),
    "run.seeds": ([int], (0, 1, 2, 3, 4)),
    "run.out": (str, "runs"),
}

# Where a key's value lives in ExperimentConfig, for the keys that are not
# the same-named field of DatasetSpec (data.*), ModelConfig (model.*) or
# LoopConfig (loop.*). data.k and data.d also size the DatasetSpec.
_ATTRS = {
    "data.source": "source", "data.k": "model.n_classes", "data.d": "model.d_in",
    "data.test_n_per_class": "test_n_per_class", "data.ood_n": "ood_n",
    "data.train_path": "train_path", "data.test_path": "test_path",
    "data.ood_path": "ood_path", "data.format": "file_format",
    "shift.kinds": "shift_kinds", "shift.intensities": "shift_intensities",
    "run.strategies": "strategies", "run.seeds": "seeds", "run.out": "out",
}


def _attr(key: str) -> tuple[str, str]:
    """(owner, field) holding a key's value; owner "" is ExperimentConfig itself."""
    owner, _, name = _ATTRS.get(key, key.replace("data.", "dataset.", 1)).rpartition(".")
    return owner, name


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key.startswith("meta."):
            continue
        if key not in _KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown config key {key!r}")
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        values[key] = value
    return values


def load_config_file(path: str | Path) -> dict[str, str]:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})") from None
    return parse_config_text(text, source=str(path))


def _parse(key: str, raw: str):
    kind = _KEYS[key][0]
    cast = kind[0] if isinstance(kind, list) else kind
    try:
        if isinstance(kind, list):
            return [cast(part.strip()) for part in raw.split(",") if part.strip()]
        if kind is bool:
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        return kind(raw)
    except ValueError:
        what = f"{cast.__name__} list" if isinstance(kind, list) else cast.__name__
        raise ConfigError(f"config key {key}: cannot parse {raw!r} as {what}") from None


@dataclass
class ExperimentConfig:
    """Fully resolved experiment: data + model + loop + sweep settings."""

    source: str
    dataset: DatasetSpec | None
    test_n_per_class: int
    ood_n: int
    train_path: str | None
    test_path: str | None
    ood_path: str | None
    file_format: str
    model: ModelConfig
    loop: LoopConfig
    shift_kinds: list[str]
    shift_intensities: list[int]
    strategies: list[str] = field(default_factory=list)
    seeds: list[int] = field(default_factory=list)
    out: str = "runs"

    def validate(self) -> None:
        if not self.seeds:
            raise ConfigError("seed list must be nonempty")
        if not self.strategies:
            raise ConfigError("strategy list must be nonempty")
        for key, values in (("run.strategies", self.strategies), ("run.seeds", self.seeds),
                            ("shift.kinds", self.shift_kinds),
                            ("shift.intensities", self.shift_intensities)):
            repeated = next((v for i, v in enumerate(values) if v in values[:i]), None)
            if repeated is not None:
                raise ConfigError(f"{key} lists {repeated} more than once")
        for name in self.strategies:
            get_strategy(name)
        full_shift_suite(self.shift_kinds, self.shift_intensities)
        if self.file_format not in FORMATS:
            raise ConfigError(f"data.format must be one of {', '.join(FORMATS)}")
        if self.source == "files":
            for label, p in (("train", self.train_path), ("test", self.test_path)):
                if p is None:
                    raise ConfigError(f"data.source=files requires data.{label}_path")
                if not Path(p).exists():
                    raise ConfigError(f"data.{label}_path does not exist: {p}")
            if self.ood_path is not None and not Path(self.ood_path).exists():
                raise ConfigError(f"data.ood_path does not exist: {self.ood_path}")
        elif self.source == "synthetic":
            self.dataset.validate()
            if self.test_n_per_class < 1:
                raise ConfigError("data.test_n_per_class must be >= 1")
            if self.ood_n < 0:
                raise ConfigError("data.ood_n must be >= 0")
        else:
            raise ConfigError("data.source must be 'synthetic' or 'files'")
        self.model.validate()
        self.loop.validate()


def build_experiment(values: dict[str, str]) -> ExperimentConfig:
    # the loop's strategy is replaced per sweep cell
    parts = {"": {}, "dataset": {}, "model": {}, "loop": {"strategy": "random"}}
    for key, (kind, default) in _KEYS.items():
        owner, name = _attr(key)
        if key in values:
            parts[owner][name] = _parse(key, values[key])
        else:
            parts[owner][name] = list(default) if isinstance(kind, list) else default
    model = ModelConfig(**parts["model"])
    dataset = None
    if parts[""]["source"] == "synthetic":
        dataset = DatasetSpec(k=model.n_classes, d=model.d_in, **parts["dataset"])
    config = ExperimentConfig(dataset=dataset, model=model, loop=LoopConfig(**parts["loop"]),
                              **parts[""])
    config.validate()
    return config


def echo_config(config: ExperimentConfig, extra_meta: dict | None = None) -> str:
    """Render a config back into the flat file format (a reusable manifest).

    Keys whose value is None are left out: unset optional keys, and the
    dataset keys of a file-backed config.
    """
    lines = [f"meta.{key} = {value}" for key, value in sorted((extra_meta or {}).items())]
    for key, (kind, _) in _KEYS.items():
        owner, name = _attr(key)
        holder = getattr(config, owner) if owner else config
        value = None if holder is None else getattr(holder, name)
        if value is not None:
            text = ",".join(str(v) for v in value) if isinstance(kind, list) else value
            lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"
