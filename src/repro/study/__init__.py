"""Design-space-exploration studies: sweep specs → warm-aware job DAGs
→ Pareto reports.

The study engine is the orchestration layer on top of the placement
service (PRs 4–8): a declarative :class:`~repro.study.spec.StudySpec`
expands into deterministic :class:`~repro.study.spec.StudyPoint`\\ s, a
:class:`~repro.study.engine.Study` drives them through the service
inbox grouped by pre-training fingerprint (one cold pre-train per unique
fingerprint, warm reuse for the rest), and
:func:`~repro.study.report.build_report` folds the results into a
Pareto-front + per-knob-sensitivity report.  CLI: ``repro study
run/status/report``.
"""

from repro.study.engine import Study, StudyPaths
from repro.study.report import (
    axis_sensitivity,
    build_report,
    pareto_front,
    render_report,
    save_report,
)
from repro.study.spec import MAX_POINTS, StudyPoint, StudySpec, SweepAxis

__all__ = [
    "MAX_POINTS",
    "Study",
    "StudyPaths",
    "StudyPoint",
    "StudySpec",
    "SweepAxis",
    "axis_sensitivity",
    "build_report",
    "pareto_front",
    "render_report",
    "save_report",
]
