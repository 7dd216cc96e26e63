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
defaults fill anything omitted.  The ``model`` section is the design
model, so its keys are the fields it knows, ``dynamics.DESIGN_FIELDS``:
the other ``SystemModel`` fields keep their ideal defaults, and a section
that names one is rejected by its path (``model.distortion_tau_s``, say)
as an unknown key.  Every section must be a mapping; unknown
keys and keys given twice are rejected by name, and every invariant
violation is reported with its section path.  ``RunConfig.replace``, and
the CLI overrides through it, are checked by the same builder.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import typing
from dataclasses import dataclass
from typing import Optional

import yaml

from .dynamics import DESIGN_FIELDS, SystemModel, as_integer, read_number
from .experiment import ExperimentConfig
from .optimizer import MODES, OptimizerConfig

__all__ = ["ConfigError", "RunConfig", "parse_config", "load_config"]


class ConfigError(ValueError):
    """A run document that cannot be parsed or validated."""


@functools.cache
def _field_types(cls) -> dict:
    """The schema of one config class: its document keys and their types.

    The ``model`` section's keys are the fields the design model knows.
    """
    kinds = typing.get_type_hints(cls)
    return {name: kinds[name] for name in DESIGN_FIELDS} if cls is SystemModel else kinds


def _coerce(where: str, kind, value, default):
    """Convert one document value to the annotated field type ``kind``.

    A real field also takes a string, since YAML reads 1e-3 as text and
    ``RunConfig.as_document_dict`` writes an infinity as ``inf``.  The
    string is read by ``dynamics.read_number``, which takes ASCII
    decimals and ``inf`` or ``-inf`` alone.  Numbers that YAML types
    itself (``1.0e-3``, ``.inf``, an unquoted ``1_000``) arrive typed.
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
            return read_number(value) if isinstance(value, str) else float(value)
        except (ValueError, OverflowError):  # a spelling read_number refuses, or a huge int
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
    model: SystemModel = dataclasses.field(default_factory=SystemModel)
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
        """The resolved settings as a plain JSON-friendly mapping.

        The model is written as its section's keys; a run refuses a model
        whose other fields leave their defaults (``require_ideal``).
        """
        def scrub(value):
            if isinstance(value, dict):
                return {k: scrub(v) for k, v in value.items()}
            if isinstance(value, tuple):
                return [scrub(v) for v in value]
            if isinstance(value, float) and not math.isfinite(value):
                return repr(value)
            return value

        model = {name: getattr(self.model, name) for name in DESIGN_FIELDS}
        return scrub({**dataclasses.asdict(self), "model": model})


class _RunDocumentLoader(yaml.SafeLoader):
    """``yaml.SafeLoader`` that rejects a key given twice in one mapping.

    PyYAML keeps a repeated key's last value, so a document that says
    ``mode`` twice, or holds two ``optimizer`` sections, would run on the
    last one without a word.  The composed document's mappings are
    checked, breadth first, before anything is constructed, and the
    first repeated key is named by its path and line.

    PyYAML's own constructors raise a bare ValueError, LookupError or
    AttributeError on a scalar that its tag does not fit (``!!float x``,
    ``!!bool maybe``, ``2001-13-45`` read as a date).  Each becomes the
    YAMLError that every other malformed document raises, marked at the
    scalar, so ``parse_config`` names its line.
    """

    def construct_object(self, node, deep=False):
        try:
            return super().construct_object(node, deep)
        except (ValueError, LookupError, AttributeError) as exc:
            raise yaml.constructor.ConstructorError(
                None, None, f"cannot read {node.value!r} as {node.tag}", node.start_mark) from exc

    def construct_document(self, node):
        mappings, seen = [(node, "")], set()
        for mapping, path in mappings:  # the list grows as it is walked
            if not isinstance(mapping, yaml.MappingNode) or id(mapping) in seen:
                continue  # an alias can lead back to a mapping already checked
            seen.add(id(mapping))
            keys = [key.value for key, _ in mapping.value]
            for i, (key, value) in enumerate(mapping.value):
                where = f"{path}.{key.value}" if path else str(key.value)
                if key.value in keys[:i]:
                    raise ConfigError(f"repeated key {where!r} at line {key.start_mark.line + 1}")
                mappings.append((value, where))
        return super().construct_document(node)


def parse_config(text: str) -> RunConfig:
    """Parse and validate one YAML run document."""
    try:
        doc = yaml.load(text, Loader=_RunDocumentLoader)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        if mark is not None:
            raise ConfigError(f"parse error at line {mark.line + 1}: {exc}") from exc
        raise ConfigError(f"parse error: {exc}") from exc
    return _build("", doc, RunConfig())


def load_config(path) -> RunConfig:
    """Read and parse a run document from disk, as UTF-8."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)
