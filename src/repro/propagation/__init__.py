"""Constraint propagation, consistency maintenance and filtering."""

from repro.propagation.consistency import (
    consistency_step_serial,
    consistency_step_vector,
    settle_alive_block,
    unsupported_serial,
    unsupported_vector,
)
from repro.propagation.filtering import FixpointStats, filter_network
from repro.propagation.incremental import (
    MaskStats,
    apply_constraint,
    apply_constraints,
    apply_masks,
    resume_propagation,
    run_filtering,
)

__all__ = [
    "apply_constraint",
    "apply_constraints",
    "apply_masks",
    "run_filtering",
    "resume_propagation",
    "MaskStats",
    "FixpointStats",
    "consistency_step_serial",
    "consistency_step_vector",
    "settle_alive_block",
    "unsupported_serial",
    "unsupported_vector",
    "filter_network",
]
