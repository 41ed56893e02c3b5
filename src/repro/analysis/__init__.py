"""Measurement analysis, static analysis, and runtime sanitizers.

Three members, deliberately not imported eagerly where they are heavy:

* complexity fits and report formatting (imported below);
* :mod:`repro.analysis.lint` — the ``repro-lint`` invariant linter
  (also ``python -m repro.analysis``);
* :mod:`repro.analysis.sanitizer` — opt-in runtime invariant checks
  (``REPRO_SANITIZE=1``).
"""

from repro.analysis.fitting import PowerLawFit, fit_log_growth, fit_power_law
from repro.analysis.host import host_metadata, scaling_claim_allowed
from repro.analysis.profiler import ConstraintRecord, ParseProfile, profile_parse
from repro.analysis.reporting import format_seconds, format_table

__all__ = [
    "PowerLawFit",
    "fit_power_law",
    "fit_log_growth",
    "format_table",
    "format_seconds",
    "ConstraintRecord",
    "ParseProfile",
    "profile_parse",
    "host_metadata",
    "scaling_claim_allowed",
]
