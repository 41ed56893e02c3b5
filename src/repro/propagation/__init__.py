"""Constraint propagation, consistency maintenance and filtering."""

from repro.propagation.consistency import (
    consistency_step_serial,
    consistency_step_vector,
    run_filtering,
    settle_alive_block,
    unsupported_serial,
    unsupported_vector,
)
from repro.propagation.filtering import FixpointStats, filter_network
from repro.propagation.incremental import apply_constraint, apply_constraints

__all__ = [
    "apply_constraint",
    "apply_constraints",
    "run_filtering",
    "FixpointStats",
    "consistency_step_serial",
    "consistency_step_vector",
    "settle_alive_block",
    "unsupported_serial",
    "unsupported_vector",
    "filter_network",
]
