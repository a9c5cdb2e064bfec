"""Server power states, power models, and energy accounting.

This package captures the physical-layer behaviour the paper's management
layer exploits: stable ACPI-style power states with very different draw,
transitions between them with real latency and energy cost, and
utilization-dependent active power.
"""

from repro.power.states import (
    IllegalTransition,
    PowerState,
    TransitionSpec,
)
from repro.power.models import (
    LinearPowerModel,
    PiecewisePowerModel,
    PowerModel,
    specpower_like_model,
)
from repro.power.profiles import ServerPowerProfile
from repro.power.energy import EnergyMeter
from repro.power.machine import HostPowerStateMachine
from repro.power.dvfs import DvfsModel

__all__ = [
    "DvfsModel",
    "EnergyMeter",
    "HostPowerStateMachine",
    "IllegalTransition",
    "LinearPowerModel",
    "PiecewisePowerModel",
    "PowerModel",
    "PowerState",
    "ServerPowerProfile",
    "TransitionSpec",
    "specpower_like_model",
]
