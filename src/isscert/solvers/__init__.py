"""Finite-difference solvers for the three disturbed model classes."""

from .common import (AssumptionViolationError, RecordSizeError, ScenarioError, SolverConfig,
                     SolverDivergedError)
from .parabolic import ParabolicScenario, solve_parabolic
from .transport import TransportScenario, solve_transport
from .wave import WaveScenario, reconstruct_wave_state, solve_wave

__all__ = [
    "SolverConfig",
    "SolverDivergedError",
    "AssumptionViolationError",
    "RecordSizeError",
    "ScenarioError",
    "ParabolicScenario",
    "solve_parabolic",
    "TransportScenario",
    "solve_transport",
    "WaveScenario",
    "solve_wave",
    "reconstruct_wave_state",
]
