"""Domain-specific static analysis for the vTPM pipeline.

``python -m repro analyze`` walks every file of the ``repro`` package
through the registered AST rules (fail-closed, determinism,
secret-flow, audit-on-deny, counter-registry), applies
per-line ``# repro: allow[rule-id] -- reason`` suppressions, and diffs
the surviving findings against the committed ``analysis-baseline.json``.
See :mod:`repro.analysis.core` for the framework and
:mod:`repro.analysis.rules` for the catalogue.
"""

from repro.analysis import rules as _rules  # noqa: F401  (registration)
from repro.analysis.core import (
    AnalysisResult,
    Analyzer,
    Finding,
    ModuleSource,
    RULES,
    injected_module,
)
from repro.analysis.report import (
    check_against_baseline,
    default_baseline_path,
    load_baseline,
    render_baseline,
    render_json,
    render_text,
)

__all__ = [
    "AnalysisResult",
    "Analyzer",
    "Finding",
    "ModuleSource",
    "RULES",
    "injected_module",
    "check_against_baseline",
    "default_baseline_path",
    "load_baseline",
    "render_baseline",
    "render_json",
    "render_text",
]
