"""Analysis utilities: the Figure 2 model and report formatting."""

from repro.analysis.invalidation import (
    InvalidationModel,
    average_invalidations,
    figure2_series,
)
from repro.analysis.report import (
    format_critical_path,
    format_histogram,
    format_metrics_report,
    format_profile,
    format_series,
    format_table,
    normalized,
)
from repro.analysis.cache import ResultCache, code_fingerprint, point_key
from repro.analysis.supervisor import (
    ChaosPlan,
    SupervisedRunner,
    SupervisorPolicy,
    SweepInterrupted,
    SweepReport,
)
from repro.analysis.sweeps import (
    PointSpec,
    Sweep,
    SweepResults,
    load_results_dict,
    load_stats_dict,
    run_points,
)
from repro.analysis.charts import ascii_chart

__all__ = [
    "InvalidationModel",
    "average_invalidations",
    "figure2_series",
    "format_table",
    "format_series",
    "format_histogram",
    "format_critical_path",
    "format_metrics_report",
    "format_profile",
    "normalized",
    "ChaosPlan",
    "PointSpec",
    "ResultCache",
    "SupervisedRunner",
    "SupervisorPolicy",
    "Sweep",
    "SweepInterrupted",
    "SweepReport",
    "SweepResults",
    "code_fingerprint",
    "load_results_dict",
    "load_stats_dict",
    "point_key",
    "run_points",
    "ascii_chart",
]
