"""Built-in simulation units and their registry hookup.

``default_registry`` registers the unit types constructible from real
parameters alone ("vehicle", "supervisor").  Units that wrap structural
data are added per run through the factory helpers: a replay source
wraps a command trace, a pure pursuit controller wraps a waypoint path,
a sensor wraps a grid map.
"""

from __future__ import annotations

from functools import partial
from typing import Sequence

from ..simunit import UnitFactory, UnitRegistry
from ..traces import TimedTrace
from .control import (
    PURE_PURSUIT_DESCRIPTION,
    REPLAY_DESCRIPTION,
    SUPERVISOR_DESCRIPTION,
    PurePursuitUnit,
    ReplayUnit,
    SupervisoryBrake,
    braking_distance,
)
from .sensing import (
    SENSOR_DESCRIPTION,
    GridMap,
    SensorUnit,
    read_grid_map,
    write_grid_map,
)
from .vehicle import VEHICLE_DESCRIPTION, VehicleUnit

__all__ = [
    "GridMap",
    "PurePursuitUnit",
    "ReplayUnit",
    "SensorUnit",
    "SupervisoryBrake",
    "VehicleUnit",
    "braking_distance",
    "default_registry",
    "pure_pursuit_factory",
    "read_grid_map",
    "replay_factory",
    "sensor_factory",
    "write_grid_map",
    "VEHICLE_DESCRIPTION",
    "PURE_PURSUIT_DESCRIPTION",
    "REPLAY_DESCRIPTION",
    "SENSOR_DESCRIPTION",
    "SUPERVISOR_DESCRIPTION",
]


def replay_factory(trace: TimedTrace) -> UnitFactory:
    """Factory for a replay unit bound to one command trace."""
    return partial(ReplayUnit, trace)


def pure_pursuit_factory(path: Sequence[Sequence[float]]) -> UnitFactory:
    """Factory for a pure pursuit controller bound to one waypoint path."""
    return partial(PurePursuitUnit, path)


def sensor_factory(grid_map: GridMap) -> UnitFactory:
    """Factory for a ray-cast sensor bound to one grid map."""
    return partial(SensorUnit, grid_map)


def default_registry() -> UnitRegistry:
    """Registry with the parameter-only unit types registered."""
    registry = UnitRegistry()
    registry.register("vehicle", VehicleUnit)
    registry.register("supervisor", SupervisoryBrake)
    return registry
