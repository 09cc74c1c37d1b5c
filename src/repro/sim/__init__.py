"""Simulation harness: the paper's Section 5 study, reproducible.

* :mod:`repro.sim.generators` — SlotGenerator / JobGenerator with the
  published parameter ranges;
* :mod:`repro.sim.experiment` — the ALP-vs-AMP experiment protocol
  (same inputs, both pipelines, count only mutual successes);
* :mod:`repro.sim.checkpoint` — resumable series: per-iteration outcome
  journals with config fingerprints;
* :mod:`repro.sim.stats` — the reported aggregates and ratios;
* :mod:`repro.sim.figures` — regeneration of Figs. 4, 5, 6 and the
  in-text statistics, with the paper's values as references;
* :mod:`repro.sim.ascii_plot` — dependency-free chart rendering.
"""

from repro.sim.ascii_plot import bar_chart, line_chart, table
from repro.sim.checkpoint import (
    ExperimentCheckpoint,
    config_fingerprint,
    decode_outcome,
    encode_outcome,
)
from repro.sim.calibration import (
    PAPER_TARGET,
    CalibrationResult,
    CalibrationTarget,
    calibrate,
)
from repro.sim.sensitivity import (
    SWEEPABLE_PARAMETERS,
    SensitivityPoint,
    render_sweep,
    sweep,
)
from repro.sim.experiment import (
    AlgorithmSample,
    ExperimentConfig,
    ExperimentResult,
    ExperimentRunner,
    IterationComparison,
    IterationOutcome,
    ParallelRunner,
    derive_iteration_seed,
    generate_iteration,
    run_iteration,
    run_pipeline,
)
from repro.sim.figures import (
    PAPER_REFERENCE,
    FigureData,
    figure4,
    figure5,
    figure6,
    render_figure4,
    render_figure5,
    render_figure6,
    summary_table,
)
from repro.sim.generators import (
    JobGenerator,
    JobGeneratorConfig,
    SlotGenerator,
    SlotGeneratorConfig,
)
from repro.sim.stats import (
    AlgorithmStats,
    ComparisonRatios,
    ExperimentSummary,
    summarize,
)

__all__ = [
    "SlotGenerator",
    "SlotGeneratorConfig",
    "JobGenerator",
    "JobGeneratorConfig",
    "ExperimentConfig",
    "ExperimentRunner",
    "ExperimentResult",
    "IterationComparison",
    "IterationOutcome",
    "AlgorithmSample",
    "ParallelRunner",
    "ExperimentCheckpoint",
    "config_fingerprint",
    "encode_outcome",
    "decode_outcome",
    "derive_iteration_seed",
    "generate_iteration",
    "run_iteration",
    "run_pipeline",
    "AlgorithmStats",
    "ComparisonRatios",
    "ExperimentSummary",
    "summarize",
    "FigureData",
    "PAPER_REFERENCE",
    "figure4",
    "figure5",
    "figure6",
    "render_figure4",
    "render_figure5",
    "render_figure6",
    "summary_table",
    "bar_chart",
    "line_chart",
    "table",
    "SWEEPABLE_PARAMETERS",
    "SensitivityPoint",
    "sweep",
    "render_sweep",
    "PAPER_TARGET",
    "CalibrationTarget",
    "CalibrationResult",
    "calibrate",
]
