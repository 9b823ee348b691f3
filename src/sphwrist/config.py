"""Configuration file loading and validation.

The format is flat ``key = value`` text with dotted section names; values are
numbers or comma-separated number lists.  Validation failures always name the
offending key.  The link and motor keys are required; a geometry, gravity or
run-default key left out takes the value in code (``WristGeometry``'s field
defaults, ``dynamics.GRAVITY``, ``trajectory.DEFAULT_*``).
"""

import functools
import importlib.resources
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .dynamics import BODY_NAMES, FORCE_POINT_NAMES, GRAVITY, BodyParams, MotorSpec
from .errors import ConfigError, WristError, finite_scalar
from .rotation import WristGeometry
from .trajectory import DEFAULT_SAMPLE_COUNT, DEFAULT_TOOL_SPEED, MAX_SAMPLE_COUNT


@dataclass(frozen=True, eq=False)
class Config:
    """Fully validated run configuration, read-only all the way down."""

    geometry: WristGeometry
    bodies: tuple
    motors: tuple
    gravity: np.ndarray
    sample_count: int
    tool_speed: float


def parse_config_text(text: str) -> dict:
    """Parse ``key = value`` lines into a dict of float lists."""
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            entries[key] = [float(part) for part in value.split(",")]
        except ValueError:
            raise ConfigError(f"line {lineno}: key {key!r} has a non-numeric value {value.strip()!r}") from None
    return entries


def _build(cls, section, **values):
    """``cls(**values)``, a value-type error prefixed with its config section."""
    try:
        return cls(**values)
    except WristError as exc:
        # "max_speed must be at least nominal_speed": either key may hold the bad value, so both get the prefix.
        raise ConfigError(f"{section}.{exc}".replace(" at least ", f" at least {section}.")) from exc


def config_from_text(text: str) -> Config:
    entries = parse_config_text(text)

    def take(key, length=1, default=None):
        # Each key is read once, out of entries: a number for length 1, else a
        # list.  An absent key takes the default, or is required if there is none.
        if key not in entries:
            if default is None:
                raise ConfigError(f"missing required key {key!r}")
            return default
        values = entries.pop(key)
        if len(values) != length:
            raise ConfigError(f"key {key!r} must hold {length} value(s), got {len(values)}")
        return values[0] if length == 1 else values

    preset = WristGeometry()
    geometry = _build(WristGeometry, "geometry", alpha=take("geometry.alpha", 5, preset.alpha),
                      home_thetas=take("geometry.home_thetas", 4, preset.home_thetas),
                      tool_length=take("geometry.tool_length", 1, preset.tool_length),
                      mount_yaw=take("geometry.mount_yaw", 1, preset.mount_yaw))
    bodies = []
    for name in BODY_NAMES:
        prefix = f"body.{name}"
        ixx, iyy, izz, ixy, ixz, iyz = take(f"{prefix}.inertia", 6)
        inertia = np.array([[ixx, ixy, ixz], [ixy, iyy, iyz], [ixz, iyz, izz]])
        points = {point: take(f"{prefix}.point.{point}", 3)
                  for point in FORCE_POINT_NAMES[name] if f"{prefix}.point.{point}" in entries}
        bodies.append(_build(BodyParams, "body", name=name, mass=take(f"{prefix}.mass"),
                             com_offset=take(f"{prefix}.com_offset", 3), inertia=inertia, force_points=points))
    motors = tuple(_build(MotorSpec, f"motor.{i}", **{f.name: take(f"motor.{i}.{f.name}") for f in fields(MotorSpec)})
                   for i in (1, 2))

    gravity = np.array(take("gravity", 3, GRAVITY), dtype=float)
    if not np.all(np.isfinite(gravity)):
        raise ConfigError("key 'gravity' must be finite")
    gravity.setflags(write=False)
    sample_count = take("defaults.sample_count", 1, DEFAULT_SAMPLE_COUNT)
    if not (np.isfinite(sample_count) and sample_count == int(sample_count) and 3 <= sample_count <= MAX_SAMPLE_COUNT):
        raise ConfigError(f"key 'defaults.sample_count' must be an integer from 3 to {MAX_SAMPLE_COUNT}")
    tool_speed = take("defaults.tool_speed", 1, DEFAULT_TOOL_SPEED)
    tool_speed = finite_scalar("key 'defaults.tool_speed'", tool_speed, 0.0, closed=False, error=ConfigError)
    if entries:
        raise ConfigError(f"unknown key(s): {', '.join(sorted(entries))}")
    return Config(geometry, tuple(bodies), motors, gravity, int(sample_count), tool_speed)


def default_config_text() -> str:
    return importlib.resources.files("sphwrist").joinpath("default.cfg").read_text()


@functools.cache
def default_config() -> Config:
    """The shipped parameter set, parsed once: one shared, read-only ``Config``."""
    return config_from_text(default_config_text())


def load_config(path) -> Config:
    """Load and validate a configuration file (UTF-8 text)."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    # A directory, FIFO or device is refused before it is opened: reading
    # /dev/zero, say, would never end.
    if not path.is_file():
        raise ConfigError(f"cannot read config file {path}: not a regular file")
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text: byte {exc.object[exc.start]:#04x}"
                          f" at offset {exc.start}") from exc
    return config_from_text(text)
