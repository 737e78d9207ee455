"""Simulation and certification laboratory for capture into parametric autoresonance."""

__version__ = "0.1.0"

from .model import (
    SystemParams,
    Schedule,
    NoiseSchedule,
    constant_schedule,
    power_schedule,
)
from .asymptotics import AsymptoticExpansion, expand, solve_psi0

__all__ = [
    "SystemParams",
    "Schedule",
    "NoiseSchedule",
    "constant_schedule",
    "power_schedule",
    "AsymptoticExpansion",
    "expand",
    "solve_psi0",
    "__version__",
]
