"""Run configuration documents: YAML sections to validated run settings.

A run document has up to six top-level keys::

    mode: balanced                # model-only | experiment-only | balanced
    seed: 3                       # optimizer initialization seed
    output_dir: runs/bell         # where the CLI writes artifacts
    model:
      g_hz: 217.4
    experiment:                   # required for the measured modes
      true_g_hz: 219.574
      amplitude_scale: [0.98, 1.0, 0.98, 1.0]
      distortion_tau_s: 50.0e-6
      noise_sigma: 1.0e-3
      t1_s: [0.730, 0.096]
      t2_s: [0.0965, 0.0425]
    optimizer:
      d1_init: 1.0e+3
      max_iterations: 2000

The config dataclasses are the schema: the top level maps onto
``RunConfig``, each section onto ``SystemModel``, ``ExperimentConfig`` or
``OptimizerConfig``, whose annotations type every field and whose
defaults fill anything omitted.  Every section must be a mapping; unknown
keys are rejected by name, and every invariant violation is reported with
its section path.  ``RunConfig.replace``, and the CLI overrides through
it, are checked by the same builder.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import typing
from dataclasses import dataclass
from typing import Optional

import yaml

from .dynamics import SystemModel, as_integer
from .experiment import ExperimentConfig
from .optimizer import MODES, OptimizerConfig

__all__ = ["ConfigError", "RunConfig", "parse_config", "load_config"]


class ConfigError(ValueError):
    """A run document that cannot be parsed or validated."""


_field_types = functools.cache(typing.get_type_hints)  # the schema of one config class


def _coerce(where: str, kind, value, default):
    """Convert one document value to the annotated field type ``kind``.

    Numbers may also be numeric strings, since YAML reads 1e-3 as text.
    """
    if typing.get_origin(kind) is typing.Union:  # Optional[X]
        if value is None:
            return None
        kind = next(k for k in typing.get_args(kind) if k is not type(None))
    if dataclasses.is_dataclass(kind):
        if isinstance(value, kind):
            return value
        return _build(where, value, kind() if default is None else default)
    if kind is int or kind is str:
        if isinstance(value, kind) and not isinstance(value, bool):
            return value
        article = "an integer" if kind is int else "a string"
        raise ConfigError(f"{where}: expected {article}, got {value!r}")
    if typing.get_origin(kind) is tuple:
        kinds = typing.get_args(kind)
        if not isinstance(value, (list, tuple)) or len(value) != len(kinds):
            raise ConfigError(f"{where}: expected a list of {len(kinds)} numbers, got {value!r}")
        return tuple(_coerce(where, k, v, None) for k, v in zip(kinds, value))
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        try:
            return float(value)
        except (ValueError, OverflowError):
            pass
    raise ConfigError(f"{where}: expected a number, got {value!r}")


def _build(path: str, section, default):
    """``default`` with the fields one document section names replaced."""
    if section is None:
        section = {}
    if not isinstance(section, dict):
        raise ConfigError(f"{path or 'top level'}: expected a mapping, got {section!r}")
    kinds = _field_types(type(default))
    changes = {}
    for name, value in section.items():
        where = f"{path}.{name}" if path else str(name)
        if name not in kinds:
            raise ConfigError(f"unknown key {where!r}")
        changes[name] = _coerce(where, kinds[name], value, getattr(default, name))
    try:
        return dataclasses.replace(default, **changes)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


@dataclass(frozen=True)
class RunConfig:
    """A fully validated run: mode, system model, backend, optimizer."""

    mode: str = "model-only"
    seed: int = 0
    output_dir: Optional[str] = None
    model: SystemModel = dataclasses.field(default_factory=lambda: SystemModel(217.4))
    experiment: Optional[ExperimentConfig] = None
    optimizer: OptimizerConfig = dataclasses.field(default_factory=OptimizerConfig)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode: expected one of {MODES}, got {self.mode!r}")
        if self.mode != "model-only" and self.experiment is None:
            raise ConfigError(f"mode {self.mode!r} requires an experiment section")
        object.__setattr__(self, "seed", as_integer(self.seed, "seed"))
        if self.seed < 0:
            raise ConfigError(f"seed: expected a non-negative integer, got {self.seed}")

    def replace(self, **changes) -> "RunConfig":
        """A copy with ``changes`` validated as the keys of a run document.

        A section may be given as a mapping of the fields to change, which
        are merged into the current section, or as a whole config object.
        """
        return _build("", changes, self)

    def as_document_dict(self) -> dict:
        """The resolved settings as a plain JSON-friendly mapping."""
        def scrub(value):
            if isinstance(value, dict):
                return {k: scrub(v) for k, v in value.items()}
            if isinstance(value, tuple):
                return [scrub(v) for v in value]
            if isinstance(value, float) and not math.isfinite(value):
                return repr(value)
            return value

        return scrub(dataclasses.asdict(self))


def parse_config(text: str) -> RunConfig:
    """Parse and validate one YAML run document."""
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        if mark is not None:
            raise ConfigError(f"parse error at line {mark.line + 1}: {exc}") from exc
        raise ConfigError(f"parse error: {exc}") from exc
    return _build("", doc, RunConfig())


def load_config(path) -> RunConfig:
    """Read and parse a run document from disk."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)
