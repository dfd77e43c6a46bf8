"""Benchmark harness reproducing every figure of the paper's Section 6."""

from repro.bench.baselines import baseline_tid_scan
from repro.bench.export import (
    figure_to_csv,
    figure_to_dict,
    load_json,
    write_csv,
    write_json,
)
from repro.bench.figures import (
    ALL_FIGURES,
    ablation_adaptive_scheduler,
    ablation_buffer_capacity,
    ablation_cost_model,
    ablation_hypermodel_generality,
    ablation_multi_device,
    ablation_parallel_contention,
    ablation_scheduler_overhead,
    ablation_sharing_degree,
    ablation_window_tuning,
    buffer_pin_bound,
    depth_first_window_invariance,
    figure_11,
    figure_13,
    figure_14,
    figure_15,
    figure_16,
)
from repro.bench.harness import (
    ExperimentConfig,
    ExperimentResult,
    clear_database_cache,
    get_database,
    run_experiment,
)
from repro.bench.report import FigureResult, render
from repro.bench.service import (
    figure_service,
    figure_service_cache,
    figure_service_scaling,
)
from repro.bench.volcano import figure_volcano

__all__ = [
    "ALL_FIGURES",
    "ExperimentConfig",
    "ExperimentResult",
    "FigureResult",
    "ablation_adaptive_scheduler",
    "ablation_buffer_capacity",
    "ablation_cost_model",
    "ablation_hypermodel_generality",
    "ablation_multi_device",
    "ablation_parallel_contention",
    "ablation_scheduler_overhead",
    "ablation_sharing_degree",
    "ablation_window_tuning",
    "baseline_tid_scan",
    "buffer_pin_bound",
    "clear_database_cache",
    "depth_first_window_invariance",
    "figure_11",
    "figure_13",
    "figure_14",
    "figure_15",
    "figure_16",
    "figure_service",
    "figure_service_cache",
    "figure_service_scaling",
    "figure_to_csv",
    "figure_to_dict",
    "figure_volcano",
    "get_database",
    "load_json",
    "render",
    "run_experiment",
    "write_csv",
    "write_json",
]
