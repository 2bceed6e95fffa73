"""Occupancy grid maps and a ray-cast range sensor.

Maps are plain text so fixtures stay reviewable in a diff:

    GRIDMAP 1
    <width> <height> <resolution> <x0> <y0>
    <height rows of 0/1 digits, row 0 at minimum y>

Cell (i, j) covers the square [x0 + i*res, x0 + (i+1)*res) x
[y0 + j*res, y0 + (j+1)*res); everything outside the grid is free.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from math import atan2, cos, floor, hypot, inf, isfinite, pi, sin, tau
from pathlib import Path
from typing import Mapping

from .._shared import read_text
from ..errors import ConfigError
from ..simunit import (
    PortDescriptor,
    PortDirection,
    PortKind,
    SimulationUnit,
    UnitDescription,
    _check_parameters,
    bits_key,
)

_IN = PortDirection.INPUT
_OUT = PortDirection.OUTPUT
# a step's cost grows with the ray count; at fov 2*pi and a 10 m range, this
# many rays sit 6.3 mm apart, far finer than any map cell
MAX_RAYS = 10_000
# below 2**53 march steps every step index is an exact float, so stepping
# back one index always moves the march point
MAX_MARCH_STEPS = 2.0**53
_heading_key = bits_key(1)


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

    @cached_property
    def _cell_bounds(self) -> tuple[tuple[float, float, float, float], ...]:
        """``(x_lo, y_lo, x_hi, y_hi)`` of every occupied cell, row by row."""
        res, width = self.resolution, self.width
        out = []
        for n, cell in enumerate(self.cells):
            if cell:
                cx = self.x0 + (n % width) * res
                cy = self.y0 + (n // width) * res
                out.append((cx, cy, cx + res, cy + res))
        return tuple(out)

    @cached_property
    def _occupied_box(self) -> tuple[float, float, float, float] | None:
        """Bounding box ``(x_lo, y_lo, x_hi, y_hi)`` of the occupied cells; None if none."""
        if not self._cell_bounds:
            return None
        x_lo, y_lo, x_hi, y_hi = zip(*self._cell_bounds)
        return min(x_lo), min(y_lo), max(x_hi), max(y_hi)

    def box_distance(self, x: float, y: float) -> float:
        """Distance from a point to the occupied cells' bounding box; +inf if none.

        Each bound of the box is a cell's own bound, so this is never more
        than :meth:`clearance`, rounding included.
        """
        box = self._occupied_box
        if box is None:
            return inf
        return hypot(max(box[0] - x, 0.0, x - box[2]), max(box[1] - y, 0.0, y - box[3]))

    def clearance(self, x: float, y: float) -> float:
        """Distance from a point to the nearest occupied cell; 0 inside one.

        Returns +inf on a map without occupied cells.  Costs time per
        occupied cell, not per grid cell.
        """
        best = float("inf")
        for x_lo, y_lo, x_hi, y_hi in self._cell_bounds:
            d = hypot(max(x_lo - x, 0.0, x - x_hi), max(y_lo - y, 0.0, y - y_hi))
            if d < best:
                best = d
        return best


def read_grid_map(path: str | Path) -> GridMap:
    path = Path(path)
    lines = read_text(path).splitlines()
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

    ``ray_count`` rays, at most ``MAX_RAYS``, span ``fov`` radians centred
    on the heading; each marches from ``min_range`` to ``max_range`` in
    steps of half the map resolution.  Obstacles nearer than ``min_range``
    sit in the blind zone and are invisible.  With no hit,
    ``obstacle_detected`` is False and ``obstacle_distance`` is -1.

    The march only visits points that can lie in an occupied cell: a pose
    in reach of the occupied box takes its clearance, and the cast rays
    march one window, from it to the box's farthest corner, index by
    index.  From outside the box, a march step or more from every cell, at
    a heading within a turn of 0, only the rays aimed at the box are cast.
    The result is the one a march of every ray over every point gives, as
    long as coordinates are small enough that their rounding error stays
    far below one cell, and rays lie far more than ulp(coordinate) / march
    rad apart.  The rays' directions are kept until the heading's bits
    change.  The result depends on the pose alone: the unit declares no
    state, and a master stops stepping it once its loop is at rest.
    """

    _step_state = ()

    def __init__(self, grid_map: GridMap, parameters: Mapping[str, float] | None = None):
        super().__init__(SENSOR_DESCRIPTION, parameters)
        p = self.parameters
        rays = p["ray_count"]
        march = grid_map.resolution * 0.5
        steps = (p["max_range"] - p["min_range"]) / march
        _check_parameters({
            f"min_range must be non-negative, got {p['min_range']}": p["min_range"] < 0.0,
            f"max_range must exceed min_range, got {p['max_range']} <= {p['min_range']}":
                p["max_range"] <= p["min_range"],
            f"max_range must lie within {MAX_MARCH_STEPS:.0f} march steps of {march} m past min_range,"
            f" got {steps:.3g}": steps > MAX_MARCH_STEPS,
            f"fov must be in (0, 2*pi], got {p['fov']}": not 0.0 < p["fov"] <= 2.0 * pi,
            f"ray_count must be a positive integer, got {rays}": rays < 1 or rays != int(rays),
            f"ray_count must be at most {MAX_RAYS}, got {rays}": rays > MAX_RAYS,
        })
        self._map = grid_map
        self._rays = int(rays)
        self._march = march
        # march point k sits at min_range + k * march; the last one within max_range
        last = int(floor(steps))
        while p["min_range"] + last * march > p["max_range"]:
            last -= 1
        self._last_k = last
        # beyond max_range plus one cell, no march point can round into a cell
        self._reach = p["max_range"] + grid_map.resolution
        self._occupied = grid_map._occupied_box
        # ray i's heading lies _offsets[i] past the first ray's
        fov = p["fov"]
        self._offsets = [i * (fov / (rays - 1)) for i in range(self._rays)] if rays > 1 else [0.0]
        # each ray's (cos(phi), sin(phi)), first ray first, at the heading whose bits_key is _heading
        self._heading, self._directions = None, []
        self._advance(0.0)

    def _advance(self, h: float) -> None:
        inputs = self._inputs
        x, y, theta = inputs["x"], inputs["y"], inputs["theta"]
        best = -1.0
        # out of the occupied box's reach is out of every cell's
        grid, reach = self._map, self._reach
        if grid.box_distance(x, y) <= reach:
            gap = grid.clearance(x, y)
            if gap <= reach:
                k = self._first_hit(x, y, theta, gap)
                if k <= self._last_k:
                    best = self.parameters["min_range"] + k * self._march
        out = self._outputs
        out["obstacle_detected"] = best >= 0.0
        out["obstacle_distance"] = best

    def _first_hit(self, x: float, y: float, theta: float, gap: float) -> int:
        """Least march index at which some ray meets an occupied cell; past the last if none.

        Every cast ray marches one window of indices, index by index across
        the rays, so the first hit found is the least.  A point that rounds
        into an occupied cell lies no nearer than ``gap``, where the window
        starts, and at most rounding error past ``far``, the distance to the
        occupied box's farthest corner; the window ends one index past
        ``far``, which keeps a ray whose first march point is that corner.
        From outside the occupied box, at a clearance of a march step or
        more, a hit is a march step or more away, so its bearing differs
        from its ray's heading by about ulp(coordinate) / march (1e-13 rad at
        64 m with 0.25 m cells); the wedge's spare rays cover that.
        """
        grid = self._map
        x0, y0, res, width, height, cells = (
            grid.x0, grid.y0, grid.resolution, grid.width, grid.height, grid.cells
        )
        ox0, oy0, ox1, oy1 = self._occupied
        p = self.parameters
        min_range, fov = p["min_range"], p["fov"]
        march, rays, last_k, offsets = self._march, self._rays, self._last_k, self._offsets
        key = _heading_key(theta)
        if key != self._heading:
            phis = [theta - 0.5 * fov + offset for offset in offsets] if rays > 1 else [theta]
            self._heading, self._directions = key, [(cos(phi), sin(phi)) for phi in phis]
        directions = self._directions
        outside = not (ox0 <= x <= ox1 and oy0 <= y <= oy1)
        if rays > 1 and abs(theta) <= tau and gap >= march and outside:
            # only the rays toward the occupied box, and one to spare each
            # side, can hit.  Nearer than a march step, a pose just outside the
            # box can round into an edge cell itself; beyond a turn either way,
            # headings round by up to whole radians.  Seen from outside, the
            # box spans less than pi around its centre's bearing.
            mid = atan2(0.5 * (oy0 + oy1) - y, 0.5 * (ox0 + ox1) - x)
            devs = [
                (atan2(cy - y, cx - x) - mid + pi) % tau - pi for cx in (ox0, ox1) for cy in (oy0, oy1)
            ]
            low = min(devs)
            span = max(devs) - low
            # the wedge's offset past the first ray, widened by one ray spacing
            # each side; the part past the fan's end wraps round to u - tau,
            # below 0, and the part before its start to u + tau.  Offsets are
            # compared, not divided by the spacing, which may underflow to 0.
            u = (mid + low - (theta - 0.5 * fov)) % tau
            step = offsets[1]
            first, last = bisect_left(offsets, u - step), bisect_right(offsets, u + span + step)
            wrapped = min(first, bisect_right(offsets, u - tau + span + step))
            directions = (directions[:wrapped] + directions[first:last]
                          + directions[max(last, bisect_left(offsets, u + tau - step)):])
        far = hypot(max(x - ox0, ox1 - x), max(y - oy0, oy1 - y))
        k_in = max(0, floor((gap - min_range) / march))
        k_out = min(last_k, floor((far - min_range) / march) + 1)
        for k in range(k_in, k_out + 1):
            s = min_range + k * march
            for cos_p, sin_p in directions:
                col = floor((x + s * cos_p - x0) / res)
                if 0 <= col < width:
                    row = floor((y + s * sin_p - y0) / res)
                    if 0 <= row < height and cells[row * width + col]:
                        return k
        return last_k + 1
