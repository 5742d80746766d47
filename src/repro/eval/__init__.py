"""Evaluation harness: metrics, judge simulation, experiments, reporting."""

from .agreement import FeatureJudgePanel
from .experiments import (
    error_analysis,
    evaluate_system,
    feature_precision,
    figure1_scaling,
    figure2_satisfaction,
    figure3_open_subjects,
    subjects_for,
    table2,
    table3,
    table4,
    table5,
)
from .reporting import format_percent, format_table

__all__ = [
    "FeatureJudgePanel",
    "error_analysis",
    "evaluate_system",
    "feature_precision",
    "figure1_scaling",
    "figure2_satisfaction",
    "figure3_open_subjects",
    "format_percent",
    "format_table",
    "subjects_for",
    "table2",
    "table3",
    "table4",
    "table5",
]
