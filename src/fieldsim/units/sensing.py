"""Occupancy grid maps and a ray-cast range sensor.

Maps are plain text so fixtures stay reviewable in a diff:

    GRIDMAP 1
    <width> <height> <resolution> <x0> <y0>
    <height rows of 0/1 digits, row 0 at minimum y>

Cell (i, j) covers the square [x0 + i*res, x0 + (i+1)*res) x
[y0 + j*res, y0 + (j+1)*res); everything outside the grid is free.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import cos, floor, hypot, isfinite, pi, sin
from pathlib import Path
from typing import Mapping

from ..errors import ConfigError, ContractViolation
from ..simunit import (
    PortDescriptor,
    PortDirection,
    PortKind,
    SimulationUnit,
    UnitDescription,
)

_IN = PortDirection.INPUT
_OUT = PortDirection.OUTPUT
_PAR = PortDirection.PARAMETER


@dataclass(frozen=True)
class GridMap:
    """Axis-aligned occupancy grid; row 0 sits at the minimum y edge."""

    width: int
    height: int
    resolution: float
    x0: float
    y0: float
    cells: tuple[int, ...]  # row-major, height*width entries of 0/1

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ConfigError(f"grid map must be at least 1x1, got {self.width}x{self.height}")
        if not (isfinite(self.resolution) and self.resolution > 0):
            raise ConfigError(f"grid map resolution must be positive, got {self.resolution}")
        if not (isfinite(self.x0) and isfinite(self.y0)):
            raise ConfigError("grid map origin must be finite")
        if len(self.cells) != self.width * self.height:
            raise ConfigError(
                f"grid map needs {self.width * self.height} cells, got {len(self.cells)}"
            )
        if any(c not in (0, 1) for c in self.cells):
            raise ConfigError("grid map cells must be 0 or 1")

    def occupied_at(self, x: float, y: float) -> bool:
        i = floor((x - self.x0) / self.resolution)
        if i < 0 or i >= self.width:
            return False
        j = floor((y - self.y0) / self.resolution)
        if j < 0 or j >= self.height:
            return False
        return self.cells[j * self.width + i] == 1

    def occupied_cell_corners(self) -> list[tuple[float, float]]:
        """Lower-left corners of all occupied cells."""
        res = self.resolution
        out = []
        for j in range(self.height):
            row = j * self.width
            for i in range(self.width):
                if self.cells[row + i]:
                    out.append((self.x0 + i * res, self.y0 + j * res))
        return out

    def clearance(self, x: float, y: float) -> float:
        """Distance from a point to the nearest occupied cell; 0 inside one.

        Returns +inf on a map without occupied cells.
        """
        res = self.resolution
        best = float("inf")
        for cx, cy in self.occupied_cell_corners():
            dx = max(cx - x, 0.0, x - (cx + res))
            dy = max(cy - y, 0.0, y - (cy + res))
            d = hypot(dx, dy)
            if d < best:
                best = d
        return best


def read_grid_map(path: str | Path) -> GridMap:
    path = Path(path)
    lines = path.read_text().splitlines()
    if not lines or lines[0].strip() != "GRIDMAP 1":
        raise ConfigError(f"{path}:1: expected magic line 'GRIDMAP 1'")
    if len(lines) < 2:
        raise ConfigError(f"{path}: missing dimension line")
    parts = lines[1].split()
    if len(parts) != 5:
        raise ConfigError(f"{path}:2: expected 'width height resolution x0 y0'")
    try:
        width, height = int(parts[0]), int(parts[1])
        resolution, x0, y0 = float(parts[2]), float(parts[3]), float(parts[4])
    except ValueError:
        raise ConfigError(f"{path}:2: malformed dimension line {lines[1]!r}") from None
    rows = [line.strip() for line in lines[2:] if line.strip()]
    if len(rows) != height:
        raise ConfigError(f"{path}: expected {height} cell rows, got {len(rows)}")
    cells: list[int] = []
    for j, row in enumerate(rows):
        if len(row) != width:
            raise ConfigError(f"{path}:{3 + j}: row has {len(row)} cells, expected {width}")
        for ch in row:
            if ch not in "01":
                raise ConfigError(f"{path}:{3 + j}: bad cell character {ch!r}")
            cells.append(int(ch))
    return GridMap(width, height, resolution, x0, y0, tuple(cells))


def write_grid_map(grid: GridMap, path: str | Path) -> None:
    lines = [
        "GRIDMAP 1",
        f"{grid.width} {grid.height} {grid.resolution:.17g} {grid.x0:.17g} {grid.y0:.17g}",
    ]
    for j in range(grid.height):
        row = grid.cells[j * grid.width : (j + 1) * grid.width]
        lines.append("".join(str(c) for c in row))
    Path(path).write_text("\n".join(lines) + "\n", newline="\n")


SENSOR_DESCRIPTION = UnitDescription(
    unit_type="sensor",
    ports=(
        PortDescriptor("x", _IN),
        PortDescriptor("y", _IN),
        PortDescriptor("theta", _IN),
        PortDescriptor("obstacle_detected", _OUT, PortKind.BOOLEAN),
        PortDescriptor("obstacle_distance", _OUT),
        PortDescriptor("min_range", _PAR),
        PortDescriptor("max_range", _PAR),
        PortDescriptor("fov", _PAR),
        PortDescriptor("ray_count", _PAR),
    ),
    default_parameters={
        "min_range": 0.5,  # m
        "max_range": 10.0,  # m
        "fov": pi,  # rad
        "ray_count": 64.0,
    },
)


class SensorUnit(SimulationUnit):
    """Casts rays into a grid map and reports the nearest obstacle.

    ``ray_count`` rays span ``fov`` radians centred on the heading; each
    marches from ``min_range`` to ``max_range`` in steps of half the map
    resolution.  Obstacles nearer than ``min_range`` sit in the blind
    zone and are invisible.  With no hit, ``obstacle_detected`` is False
    and ``obstacle_distance`` is -1.
    """

    def __init__(self, grid_map: GridMap, parameters: Mapping[str, float] | None = None):
        super().__init__(SENSOR_DESCRIPTION, parameters)
        p = self.parameters
        if p["min_range"] < 0.0:
            raise ContractViolation(f"min_range must be non-negative, got {p['min_range']}")
        if p["max_range"] <= p["min_range"]:
            raise ContractViolation(
                f"max_range must exceed min_range, got {p['max_range']} <= {p['min_range']}"
            )
        if not 0.0 < p["fov"] <= 2.0 * pi:
            raise ContractViolation(f"fov must be in (0, 2*pi], got {p['fov']}")
        rays = p["ray_count"]
        if rays < 1 or rays != int(rays):
            raise ContractViolation(f"ray_count must be a positive integer, got {rays}")
        self._map = grid_map
        self._rays = int(rays)
        self._march = grid_map.resolution * 0.5
        # number of march points per ray, covering [min_range, max_range]
        self._march_steps = int(floor((p["max_range"] - p["min_range"]) / self._march)) + 1
        self._advance(0.0)

    def _advance(self, h: float) -> None:
        inputs = self._inputs
        x, y, theta = inputs["x"], inputs["y"], inputs["theta"]
        p = self.parameters
        occupied_at = self._map.occupied_at
        rays = self._rays
        fov = p["fov"]
        min_range = p["min_range"]
        max_range = p["max_range"]
        march = self._march
        best = -1.0
        for i in range(rays):
            if rays > 1:
                phi = theta - 0.5 * fov + i * (fov / (rays - 1))
            else:
                phi = theta
            cos_p, sin_p = cos(phi), sin(phi)
            for k in range(self._march_steps):
                s = min_range + k * march
                if s > max_range or (best >= 0.0 and s >= best):
                    break
                if occupied_at(x + s * cos_p, y + s * sin_p):
                    best = s
                    break
        out = self._outputs
        out["obstacle_detected"] = best >= 0.0
        out["obstacle_distance"] = best
