"""Experiment configuration: YAML parsing with unit resolution and line-aware errors.

Every config key is declared once, as schema metadata on the matching
:class:`ExperimentConfig` field; that schema drives the allowed and required
keys, the defaults, the per-key parse and :func:`serialize_config`.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields
from itertools import groupby

import yaml

from .focusing import _MIN_AXIAL_SAMPLES, _MIN_STRIP_RESOLUTION
from .model import (
    ArraySpec, ElementPattern, FocusScenario, Wave, _finite_positive, _int_at_least, _require_finite, wave_from_frequency,
)

EXPERIMENTS = ("dof-sweep", "gain-profile", "scan", "axial", "optimal-spacing")

_FREQUENCY_UNITS = {"hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9}
_LENGTH_UNITS = {"m": 1.0, "cm": 1e-2, "mm": 1e-3, "km": 1e3}
_WAVELENGTH_UNITS = ("lambda", "wavelength", "wavelengths", "wl")
# quantity kind -> (base unit of bare numbers, accepted unit spellings)
_UNIT_HINTS = {"frequency": ("Hz", "Hz, kHz, MHz, or GHz"), "length": ("meters", "m, cm, mm, km, or lambda")}
_QUANTITY_RE = re.compile(r"^\s*([+-]?[\d.]+(?:[eE][+-]?\d+)?)\s*([a-zA-Z]+)\s*$")

_REQUIRED = object()


class ConfigError(ValueError):
    """Configuration problem, reported with the offending key and line number."""

    def __init__(self, key: str, line: int, message: str):
        self.key = key
        self.line = line
        super().__init__(f"{key} (line {line}): {message}")


def _key(path: str, kind: str, default=_REQUIRED, *, minimum: int = 1, choices: tuple[str, ...] = ()):
    """Declare the YAML key of an :class:`ExperimentConfig` field in the field's metadata.

    ``path`` is the key, "section.key" when nested. ``kind`` is one of
    frequency, length, int, choice, pattern, path or targets. ``default`` is
    a constant, a function of the fields parsed before it, or ``_REQUIRED``.
    ``minimum`` bounds an int; ``choices`` lists the values of a choice or
    pattern, or the keyword that selects the default targets.
    """
    section, _, key = path.rpartition(".")
    return field(metadata={
        "path": path, "section": section, "key": key, "kind": kind,
        "default": default, "minimum": minimum, "choices": choices,
    })


def _wavelength(values: dict) -> float:
    return wave_from_frequency(values["frequency"]).wavelength


def _length_units(values: dict) -> dict[str, float]:
    return {**_LENGTH_UNITS, **dict.fromkeys(_WAVELENGTH_UNITS, _wavelength(values))}


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment description; lengths in meters, frequency in hertz."""

    frequency: float = _key("frequency", "frequency")
    num_elements: int = _key("num_elements", "int")
    spacing: float = _key("spacing", "length")
    focal_distance: float = _key("focal_distance", "length")
    pattern: ElementPattern = _key(
        "pattern", "pattern", ElementPattern.ISOTROPIC, choices=tuple(p.value for p in ElementPattern)
    )
    experiment: str | None = _key("experiment", "choice", None, choices=EXPERIMENTS)
    rx_num: int = _key("rx.num_elements", "int", lambda v: v["num_elements"])
    rx_spacing: float = _key("rx.spacing", "length", lambda v: v["spacing"])
    sweep_start: float = _key("sweep.start", "length", lambda v: 0.1 * _wavelength(v))
    sweep_stop: float = _key("sweep.stop", "length", lambda v: 4.0 * _wavelength(v))
    sweep_step: float = _key("sweep.step", "length", lambda v: 0.01 * _wavelength(v))
    gain_span: float = _key("gain.span", "length", lambda v: 3.0 * v["spacing"])
    gain_step: float = _key("gain.step", "length", lambda v: _wavelength(v) / 100.0)
    # default layout: five focal points at multiples of the strip spacing
    scan_targets: tuple[float, ...] = _key(
        "scan.targets", "targets", lambda v: tuple(m * v["rx_spacing"] for m in (-10, -5, 0, 5, 10)),
        choices=("paper-default",),
    )
    scan_resolution: int = _key("scan.resolution", "int", 16, minimum=_MIN_STRIP_RESOLUTION)
    axial_z_min: float = _key("axial.z_min", "length", lambda v: 0.1 * v["focal_distance"])
    axial_z_max: float = _key("axial.z_max", "length", lambda v: 2.0 * v["focal_distance"])
    axial_samples: int = _key("axial.samples", "int", 2001, minimum=_MIN_AXIAL_SAMPLES)
    output_dir: str = _key("output.directory", "path", "out")
    output_format: str = _key("output.format", "choice", "csv", choices=("csv", "json"))
    seed: int | None = _key("seed", "int", None, minimum=0)

    @property
    def wave(self) -> Wave:
        return wave_from_frequency(self.frequency)

    def scenario(self) -> FocusScenario:
        """Build the focusing scenario described by this configuration."""
        tx = ArraySpec(
            wave=self.wave,
            num_elements=self.num_elements,
            spacing=self.spacing,
            pattern=self.pattern,
        )
        return FocusScenario(
            tx=tx,
            focal_distance=self.focal_distance,
            rx_num=self.rx_num,
            rx_spacing=self.rx_spacing,
        )


# section -> (lower field, upper field, message); checked only when the section is given
_ORDER_CHECKS = {
    "sweep": ("sweep_start", "sweep_stop", "start {:.6g} must be below stop {:.6g}"),
    "gain": ("gain_step", "gain_span", "step {:.6g} must be below span {:.6g}"),
    "axial": ("axial_z_min", "axial_z_max", "z_min {:.6g} must be below z_max {:.6g}"),
}


def _compose(text: str):
    loader = yaml.SafeLoader(text)
    try:
        node = loader.get_single_node()
    except yaml.YAMLError as exc:
        raise ConfigError("config", getattr(getattr(exc, "problem_mark", None), "line", 0) + 1, f"not valid YAML: {exc}")
    finally:
        loader.dispose()
    return node


def _construct(node):
    loader = yaml.SafeLoader("")
    try:
        return loader.construct_object(node, deep=True)
    finally:
        loader.dispose()


def _line(node) -> int:
    return node.start_mark.line + 1


def _mapping_items(node, context: str, allowed: list[str]) -> dict[str, tuple[int, object]]:
    """Mapping node to {key: (line, value node)}, rejecting duplicate and unknown keys."""
    if not isinstance(node, yaml.MappingNode):
        raise ConfigError(context, _line(node), "expected a mapping of keys to values")
    out: dict[str, tuple[int, object]] = {}
    for key_node, value_node in node.value:
        if not isinstance(key_node, yaml.ScalarNode):
            raise ConfigError(context, _line(key_node), "keys must be plain scalars")
        key = str(key_node.value)
        label = key if context == "config" else f"{context}.{key}"
        if key in out:
            raise ConfigError(label, _line(key_node), "duplicate key")
        if key not in allowed:
            raise ConfigError(label, _line(key_node), f"unknown key; allowed keys are {', '.join(allowed)}")
        out[key] = (_line(key_node), value_node)
    return out


def _check(key: str, line: int, validate, *args) -> None:
    """Run a model validator; its ValueError becomes a ConfigError at ``key`` and ``line``."""
    try:
        validate(*args)
    except ValueError as exc:
        raise ConfigError(key, line, str(exc)) from None


def _parse_quantity(raw, key: str, line: int, kind: str, units: dict, *, positive: bool = True) -> float:
    """A finite ``kind`` quantity: a bare number in base units, or 'value unit' with a unit in ``units``."""
    base, spellings = _UNIT_HINTS[kind]
    if isinstance(raw, str) and (match := _QUANTITY_RE.match(raw)):
        unit = match.group(2).lower()
        if unit not in units:
            raise ConfigError(key, line, f"unknown {kind} unit {match.group(2)!r}; use {spellings}")
        try:
            value = float(match.group(1)) * units[unit]
        except ValueError:
            raise ConfigError(key, line, f"cannot parse number in {raw!r}")
    elif type(raw) in (int, float, str):
        # exact types keep bool out; YAML 1.1 leaves exponents like 6.0e9 unresolved, read in base units
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(key, line, f"cannot parse {kind} {raw!r}; use a number in {base} or 'value unit'")
        except OverflowError:
            value = math.inf
    else:
        raise ConfigError(key, line, f"expected a {kind}, got {type(raw).__name__}")
    _check(key, line, _finite_positive if positive else _require_finite, key, value)
    return value


def _parse_value(spec, node, line: int, values: dict):
    """Parse the value node of one schema entry; ``values`` holds the fields parsed before it."""
    key, kind = spec["path"], spec["kind"]
    if kind == "targets" and isinstance(node, yaml.SequenceNode):
        if not node.value:
            raise ConfigError(key, line, "target list must not be empty")
        return tuple(
            _parse_quantity(_construct(item), f"{key}[{i}]", _line(item), "length", _length_units(values), positive=False)
            for i, item in enumerate(node.value)
        )
    if kind == "targets" and not isinstance(node, yaml.ScalarNode):
        raise ConfigError(key, line, "expected 'paper-default' or a list of positions")
    raw = _construct(node)
    if kind == "frequency":
        value = _parse_quantity(raw, key, line, kind, _FREQUENCY_UNITS)
        _check(key, line, wave_from_frequency, value)
        return value
    if kind == "length":
        return _parse_quantity(raw, key, line, kind, _length_units(values))
    if kind == "int":
        _check(key, line, _int_at_least, key, raw, spec["minimum"])
        return raw
    if kind == "path":
        if not isinstance(raw, str) or not raw:
            raise ConfigError(key, line, f"expected a non-empty path, got {raw!r}")
        return raw
    if not isinstance(raw, str) or raw not in spec["choices"]:
        raise ConfigError(key, line, f"expected one of {', '.join(spec['choices'])}, got {raw!r}")
    if kind == "pattern":
        return ElementPattern(raw)
    return spec["default"](values) if kind == "targets" else raw


def parse_config(text: str) -> ExperimentConfig:
    """Parse a YAML experiment document into a resolved :class:`ExperimentConfig`.

    Length values accept meters (bare numbers or m/cm/mm/km suffixes) and
    wavelength multiples ('2.27 lambda'); frequencies accept Hz through GHz.
    Quantities must be finite. Unknown or duplicate keys, malformed units,
    and out-of-range values raise :class:`ConfigError` naming the key and line.
    """
    root = _compose(text)
    if root is None:
        raise ConfigError("config", 1, "document is empty")
    schema = [(f.name, f.metadata) for f in fields(ExperimentConfig)]
    top = _mapping_items(root, "config", list(dict.fromkeys(spec["section"] or spec["key"] for _, spec in schema)))

    values: dict[str, object] = {}
    for section, group in groupby(schema, lambda entry: entry[1]["section"]):
        group = list(group)
        items: dict = {} if section else top
        if section in top:
            items = _mapping_items(top[section][1], section, [spec["key"] for _, spec in group])
        for name, spec in group:
            default = spec["default"]
            if spec["key"] in items:
                line, value_node = items[spec["key"]]
                values[name] = _parse_value(spec, value_node, line, values)
            elif default is _REQUIRED:
                raise ConfigError(spec["path"], _line(root), "required key is missing")
            else:
                values[name] = default(values) if callable(default) else default
        if section in _ORDER_CHECKS and section in top:
            low, high, message = _ORDER_CHECKS[section]
            if not values[low] < values[high]:
                raise ConfigError(section, _line(top[section][1]), message.format(values[low], values[high]))
    return ExperimentConfig(**values)


def serialize_config(config: ExperimentConfig) -> str:
    """Canonical YAML for a resolved configuration; parse_config inverts it exactly.

    All quantities are written in base SI units, so the output is unit-free
    and reproducible byte for byte. Fields set to None are omitted.
    """
    doc: dict[str, object] = {}
    for f in fields(config):
        spec, value = f.metadata, getattr(config, f.name)
        if value is None:
            continue
        if spec["kind"] == "pattern":
            value = value.value
        elif spec["kind"] == "targets":
            value = list(value)
        section = doc.setdefault(spec["section"], {}) if spec["section"] else doc
        section[spec["key"]] = value
    return yaml.safe_dump(doc, sort_keys=False, default_flow_style=False)
