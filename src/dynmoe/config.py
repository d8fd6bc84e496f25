"""Run configuration files: a versioned JSON document mapped onto the
harness dataclasses, with errors that point at the offending place.

Each section is read against its dataclass (``task`` -> :class:`TaskSpec`,
``train`` -> ``TrainConfig``, ``adapt`` -> ``AdaptConfig``, ``router`` ->
:class:`RouterSpec`, ``sweep`` -> :class:`SweepSpec`):
a key the section omits keeps the dataclass default, and a key it sets must
have the JSON type of the field.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

from .adaptive import AdaptConfig
from .harness import TrainConfig, check_adapt_bounds, check_task_args
from .numerics import ConfigurationError

CONFIG_SCHEMA = "dynmoe-config/1"


class ConfigError(Exception):
    """Unreadable or invalid run configuration."""


@dataclass
class TaskSpec:
    n_skills: int = 4
    d: int = 16
    n_samples: int = 8000
    seed: int = 7

    def __post_init__(self) -> None:
        check_task_args(self.n_skills, self.d, self.n_samples, self.seed)
        if self.n_samples < 2:  # the split holds out one row and trains on the rest
            raise ConfigurationError("n_samples must be at least 2")


@dataclass
class RouterSpec:
    kind: str = "dynmoe"          # "dynmoe" or "topk"
    n_experts: int | None = None  # the top-k router's K
    top_k: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("dynmoe", "topk"):
            raise ConfigurationError(f"kind must be 'dynmoe' or 'topk', got {self.kind!r}")
        if self.kind == "topk":
            if self.n_experts is None or self.top_k is None:
                raise ConfigurationError("kind 'topk' requires n_experts and top_k")
            if not 1 <= self.top_k <= self.n_experts:
                raise ConfigurationError(f"top_k {self.top_k} not in [1, {self.n_experts}]")


@dataclass
class SweepSpec:
    n_experts_grid: tuple[int, ...] = (2, 4, 8)
    top_k_grid: tuple[int, ...] = (1, 2)

    def __post_init__(self) -> None:
        bad = [(n, k) for n in self.n_experts_grid for k in self.top_k_grid if not 1 <= k <= n]
        if bad:
            raise ConfigurationError(f"(n_experts, top_k) pairs outside 1 <= top_k <= n_experts: {bad}")


@dataclass
class RunSpec:
    task: TaskSpec
    train: TrainConfig
    router: RouterSpec
    sweep: SweepSpec

    def snapshot(self) -> dict:
        """The normalized document: every key, defaults filled in. Parsing it
        gives this spec back."""
        train = asdict(self.train)
        adapt = train.pop("adapt")
        return {
            "schema": CONFIG_SCHEMA,
            "task": asdict(self.task),
            "train": train,
            "adapt": adapt,
            "router": asdict(self.router),
            "sweep": asdict(self.sweep),
        }


def _is_number(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    return isinstance(value, int) and not isinstance(value, bool)


# Python type -> (what the JSON value must be, test of the JSON value)
_SCALARS = {
    int: ("an integer", lambda v: _is_number(v) and (isinstance(v, int) or v.is_integer())),
    float: ("a number", _is_number),
    str: ("a string", lambda v: isinstance(v, str)),
}


def _value(value, hint, where: str):
    """``value`` converted to the field type ``hint``, checked strictly."""
    if get_origin(hint) is UnionType:  # "X | None"
        if value is None:
            return None
        (hint,) = [arg for arg in get_args(hint) if arg is not type(None)]
    if value is None:
        raise ConfigError(f"{where} must not be null")
    if is_dataclass(hint):
        return _section(hint, value, where)
    if get_origin(hint) is tuple:
        args = get_args(hint)
        if not isinstance(value, list):
            raise ConfigError(f"{where} must be a list, got {value!r}")
        hints = [args[0]] * len(value) if args[-1] is Ellipsis else args
        if len(value) != len(hints):
            raise ConfigError(f"{where} must hold {len(hints)} values, got {value!r}")
        return tuple(_value(v, h, f"{where}[{i}]") for i, (v, h) in enumerate(zip(value, hints)))
    what, valid = _SCALARS[hint]
    if not valid(value):
        raise ConfigError(f"{where} must be {what}, got {value!r}")
    return hint(value)


def _section(cls, raw, where: str, **given):
    """Dataclass ``cls`` from the JSON object ``raw``. A field takes its value
    from ``given`` (never from ``raw``), else from ``raw``, else its default."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be an object, got {raw!r}")
    names = [f.name for f in fields(cls) if f.name not in given]
    unknown = sorted(set(raw) - set(names))
    if unknown:
        raise ConfigError(f"unknown key(s): {[f'{where}.{key}' for key in unknown]}")
    for f in fields(cls):
        if f.name in names and f.name not in raw and f.default is f.default_factory is MISSING:
            raise ConfigError(f"{where}.{f.name} is required")
    hints = get_type_hints(cls)
    values = {key: _value(value, hints[key], f"{where}.{key}") for key, value in raw.items()}
    try:
        return cls(**values, **given)
    except ConfigurationError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def parse_config_doc(doc, origin: str = "<config>") -> RunSpec:
    try:
        if not isinstance(doc, dict):
            raise ConfigError("top level must be an object")
        schema = doc.get("schema", CONFIG_SCHEMA)
        if schema != CONFIG_SCHEMA:
            raise ConfigError(f"unsupported schema {schema!r}, expected {CONFIG_SCHEMA!r}")
        unknown = sorted(set(doc) - {"schema", "task", "train", "adapt", "router", "sweep"})
        if unknown:
            raise ConfigError(f"unknown top-level key(s): {unknown}")
        train = _section(TrainConfig, doc.get("train", {}), "train",
                         adapt=_value(doc.get("adapt", {}), AdaptConfig | None, "adapt"))
        if train.adapt is not None:
            try:
                check_adapt_bounds(train.init_experts, train.adapt)
            except ConfigurationError as exc:
                raise ConfigError(f"adapt: {exc}") from exc
        return RunSpec(
            task=_section(TaskSpec, doc.get("task", {}), "task"),
            train=train,
            router=_section(RouterSpec, doc.get("router", {}), "router"),
            sweep=_section(SweepSpec, doc.get("sweep", {}), "sweep"),
        )
    except ConfigError as exc:
        raise ConfigError(f"{origin}: {exc}") from exc


def read_config(path) -> dict:
    """The raw JSON document of a config file."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc


def load_config(path) -> RunSpec:
    return parse_config_doc(read_config(path), origin=str(path))
