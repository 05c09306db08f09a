"""Surrogate-assisted calibration of per-server air flow rates in
data-hall thermal models."""

from .engine import CalibConfig, CalibrationResult, calibrate, mae
from .hall import (AdjacencyPriors, HallLayout, OperatingState, SystemInput, build_adjacency,
                   validate_layout)
from .optim import AdamConfig, Bounds, DeConfig, TrainConfig
from .solver import Scenario, ZonalSolver, synthesize_measurements
from .surrogate import KAPPA_CFM_PER_W, PenaltyParams, SurrogateWeights, TrainingSample

__all__ = [
    "AdamConfig", "AdjacencyPriors", "Bounds", "CalibConfig", "CalibrationResult",
    "DeConfig", "HallLayout", "KAPPA_CFM_PER_W", "OperatingState", "PenaltyParams",
    "Scenario", "SurrogateWeights", "SystemInput", "TrainConfig", "TrainingSample",
    "ZonalSolver", "build_adjacency", "calibrate", "mae", "synthesize_measurements",
    "validate_layout",
]
