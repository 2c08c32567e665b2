"""Centralized controller: stats aggregation, adaptivity, experiment harness."""
from repro.controller.stats import TraceStats, qcut_input
from repro.controller.adaptivity import AdaptiveController
from repro.controller.simulator import (
    ExperimentConfig,
    ExperimentResult,
    initial_assignment,
    run_experiment,
)

__all__ = [
    "TraceStats",
    "qcut_input",
    "AdaptiveController",
    "ExperimentConfig",
    "ExperimentResult",
    "initial_assignment",
    "run_experiment",
]
