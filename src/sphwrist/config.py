"""Configuration file loading and validation.

The format is flat ``key = value`` text with dotted section names; values are
numbers or comma-separated number lists.  Validation failures always name the
offending key.
"""

import functools
import importlib.resources
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .dynamics import BODY_NAMES, FORCE_POINT_NAMES, GRAVITY, BodyParams, MotorSpec
from .errors import ConfigError, WristError
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


class _Entries:
    def __init__(self, entries):
        self.entries = dict(entries)
        self.used = set()

    def take(self, key, length=None, default=None):
        if key not in self.entries:
            if default is not None:
                return list(default)
            raise ConfigError(f"missing required key {key!r}")
        self.used.add(key)
        values = self.entries[key]
        if length is not None and len(values) != length:
            raise ConfigError(f"key {key!r} must hold {length} value(s), got {len(values)}")
        return values

    def scalar(self, key, default=None):
        return self.take(key, 1, None if default is None else [default])[0]

    def unused(self):
        return sorted(set(self.entries) - self.used)


def _build_body(entries: _Entries, name: str) -> BodyParams:
    prefix = f"body.{name}"
    ixx, iyy, izz, ixy, ixz, iyz = entries.take(f"{prefix}.inertia", 6)
    inertia = np.array([[ixx, ixy, ixz], [ixy, iyy, iyz], [ixz, iyz, izz]])
    points = {
        point: entries.take(f"{prefix}.point.{point}", 3)
        for point in FORCE_POINT_NAMES[name]
        if f"{prefix}.point.{point}" in entries.entries
    }
    try:
        return BodyParams(
            name=name,
            mass=entries.scalar(f"{prefix}.mass"),
            com_offset=entries.take(f"{prefix}.com_offset", 3),
            inertia=inertia,
            force_points=points,
        )
    except WristError as exc:
        raise ConfigError(f"body.{exc}") from exc


def _build_motor(entries: _Entries, index: int) -> MotorSpec:
    prefix = f"motor.{index}"
    try:
        return MotorSpec(**{f.name: entries.scalar(f"{prefix}.{f.name}") for f in fields(MotorSpec)})
    except WristError as exc:
        # "max_speed must be at least nominal_speed": either key may hold the bad value, so both get the prefix.
        raise ConfigError(f"{prefix}.{exc}".replace(" at least ", f" at least {prefix}.")) from exc


def config_from_text(text: str) -> Config:
    entries = _Entries(parse_config_text(text))
    try:
        geometry = WristGeometry(
            alpha=entries.take("geometry.alpha", 5),
            home_thetas=entries.take("geometry.home_thetas", 4),
            tool_length=entries.scalar("geometry.tool_length", WristGeometry.tool_length),
            mount_yaw=entries.scalar("geometry.mount_yaw", WristGeometry.mount_yaw),
        )
    except WristError as exc:
        raise ConfigError(f"geometry.{exc}") from exc

    bodies = tuple(_build_body(entries, name) for name in BODY_NAMES)
    motors = (_build_motor(entries, 1), _build_motor(entries, 2))
    gravity = np.asarray(entries.take("gravity", 3, GRAVITY), dtype=float)
    if not np.all(np.isfinite(gravity)):
        raise ConfigError("key 'gravity' must be finite")
    gravity.setflags(write=False)

    sample_count = entries.scalar("defaults.sample_count", DEFAULT_SAMPLE_COUNT)
    if not (np.isfinite(sample_count) and sample_count == int(sample_count) and 3 <= sample_count <= MAX_SAMPLE_COUNT):
        raise ConfigError(f"key 'defaults.sample_count' must be an integer from 3 to {MAX_SAMPLE_COUNT}")
    tool_speed = entries.scalar("defaults.tool_speed", DEFAULT_TOOL_SPEED)
    if not (np.isfinite(tool_speed) and tool_speed > 0.0):
        raise ConfigError("key 'defaults.tool_speed' must be positive")

    unused = entries.unused()
    if unused:
        raise ConfigError(f"unknown key(s): {', '.join(unused)}")
    return Config(geometry, bodies, motors, gravity, int(sample_count), tool_speed)


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
