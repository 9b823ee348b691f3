"""Generators for the two benchmark tool-orientation paths.

Both paths move the tool tip at constant speed, so the path angle advances at
``tool_speed / radius``.  Each generator returns one ``OrientationPath``:
sample times and world-frame tool directions as arrays.
"""

import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpecError, finite_scalar, frozen_rows
from .kinematics import ToolOrientation, _index_label, _unchecked, _unit_directions

KIND_SEMICIRCLE = "semicircle-YZ"
KIND_CIRCLE = "circle-XY"

DEFAULT_SAMPLE_COUNT = 1001
DEFAULT_TOOL_SPEED = 1.0
# A thousand times the paper's sample count.  A run peaks at about 0.92 kB
# per sample over its memory before the path (the traj command at 50,001
# samples: 74.7 MB against 30.0 MB, ru_maxrss; the peak falls in the profile
# stage), so this bound keeps one path under about 1 GB.
MAX_SAMPLE_COUNT = 1_000_000


@dataclass(frozen=True)
class TrajectorySpec:
    """Parameters of one benchmark path."""

    kind: str
    radius: float
    tool_speed: float = DEFAULT_TOOL_SPEED
    gamma: float | None = None
    sample_count: int = DEFAULT_SAMPLE_COUNT

    def __post_init__(self):
        if not (isinstance(self.kind, str) and self.kind in (KIND_SEMICIRCLE, KIND_CIRCLE)):
            raise InvalidSpecError(f"unknown trajectory kind {self.kind!r}")
        for name in ("radius", "tool_speed"):
            value = finite_scalar(name, getattr(self, name), 0.0, closed=False, error=InvalidSpecError)
            object.__setattr__(self, name, value)
        # A full circle spans 2 pi of path angle; its duration must be finite.
        if not (math.isfinite(self.rate) and self.rate > 0.0 and math.isfinite(2.0 * math.pi / self.rate)):
            raise InvalidSpecError(f"path rate tool_speed / radius = {self.rate:.6g} rad/s"
                                   " overflows or underflows double precision")
        if not (isinstance(self.sample_count, numbers.Integral) and 3 <= self.sample_count <= MAX_SAMPLE_COUNT):
            raise InvalidSpecError(f"sample_count must be an integer from 3 to {MAX_SAMPLE_COUNT}")
        if self.kind == KIND_CIRCLE:
            if self.gamma is None:
                raise InvalidSpecError("circle-XY requires a cone angle gamma")
            gamma = finite_scalar("gamma", self.gamma, error=lambda message: InvalidSpecError(
                f"{message}, got {self.gamma}"))
            if not 0.0 < gamma < math.pi / 2.0:
                raise InvalidSpecError("gamma must lie strictly between 0 and pi/2")
            object.__setattr__(self, "gamma", gamma)

    @property
    def rate(self) -> float:
        """Path-angle rate ``tool_speed / radius``, rad/s."""
        return self.tool_speed / self.radius


@dataclass(frozen=True)
class TimedOrientation:
    t: float
    orientation: ToolOrientation


@dataclass(frozen=True, eq=False)
class OrientationPath:
    """Tool orientations along a sampled path, as arrays: times ``t`` (N,) and
    unit world-frame directions ``v`` (N, 3), read-only.

    Indexing and iteration yield one ``TimedOrientation`` per sample, whose
    direction is a read-only view of its row.
    """

    t: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        v = _unit_directions(self.v)
        object.__setattr__(self, "t", frozen_rows("path times", self.t, (len(v),), _index_label))
        object.__setattr__(self, "v", v)

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, i) -> TimedOrientation:
        i = operator.index(i)
        return _unchecked(TimedOrientation, t=float(self.t[i]), orientation=_unchecked(ToolOrientation, v=self.v[i]))

    def __iter__(self):
        for t, v in zip(self.t.tolist(), self.v):
            # As JointProfile._row sets its JointAngles.
            orientation = object.__new__(ToolOrientation)
            object.__setattr__(orientation, "v", v)
            yield _unchecked(TimedOrientation, t=t, orientation=orientation)


def traj_semicircle(spec: TrajectorySpec) -> OrientationPath:
    """Semicircular sweep in the vertical YZ plane.

    The path angle runs from pi/6 to 5*pi/6; total duration is
    (2*pi/3) * radius / tool_speed.
    """
    if spec.kind != KIND_SEMICIRCLE:
        raise InvalidSpecError(f"expected {KIND_SEMICIRCLE!r}, got {spec.kind!r}")
    delta = np.linspace(math.pi / 6.0, 5.0 * math.pi / 6.0, spec.sample_count)
    v = np.column_stack([np.zeros_like(delta), -np.sin(delta), -np.cos(delta)])
    return OrientationPath((delta - delta[0]) / spec.rate, v)


def traj_circle(spec: TrajectorySpec) -> OrientationPath:
    """Full circle in the horizontal XY plane at constant cone angle gamma.

    The path angle runs from 0 to 2*pi; total duration is
    2*pi * radius / tool_speed.
    """
    if spec.kind != KIND_CIRCLE:
        raise InvalidSpecError(f"expected {KIND_CIRCLE!r}, got {spec.kind!r}")
    sg, cg = math.sin(spec.gamma), math.cos(spec.gamma)
    delta = np.linspace(0.0, 2.0 * math.pi, spec.sample_count)
    v = np.column_stack([sg * np.cos(delta), sg * np.sin(delta), np.full_like(delta, -cg)])
    return OrientationPath(delta / spec.rate, v)


def generate(spec: TrajectorySpec) -> OrientationPath:
    """Dispatch on the trajectory kind."""
    if spec.kind == KIND_SEMICIRCLE:
        return traj_semicircle(spec)
    return traj_circle(spec)
