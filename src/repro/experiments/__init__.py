"""Experiment drivers: one module per figure/table of the paper's evaluation,
plus the ablations listed in docs/paper-mapping.md.

Each experiment module is imported on the first access of one of its names,
so importing this package loads none of them."""

from repro._lazy import lazy_attributes

#: public name -> the module that defines it, imported on first access
_EXPORTS: dict[str, str] = {
    "run_tgff_runtime_sweep": "repro.experiments.runtime_sweep",
    "run_pajek_runtime_sweep": "repro.experiments.runtime_sweep",
    "RuntimePoint": "repro.experiments.runtime_sweep",
    "RuntimeSweepResult": "repro.experiments.runtime_sweep",
    "run_figure5_example": "repro.experiments.example_decomposition",
    "Figure5Result": "repro.experiments.example_decomposition",
    "EXPECTED_PRIMITIVE_COUNTS": "repro.experiments.example_decomposition",
    "run_aes_synthesis": "repro.experiments.aes_experiment",
    "AesSynthesisResult": "repro.experiments.aes_experiment",
    "PAPER_AES_COST": "repro.experiments.aes_experiment",
    "PAPER_AES_PRIMITIVES": "repro.experiments.aes_experiment",
    "run_prototype_comparison": "repro.experiments.comparison",
    "PrototypeComparison": "repro.experiments.comparison",
    "PAPER_RESULTS": "repro.experiments.comparison",
    "ArchitectureMetrics": "repro.dse.pipeline",
    "run_strategy_ablation": "repro.experiments.ablation",
    "run_library_ablation": "repro.experiments.ablation",
    "standard_ablation_acgs": "repro.experiments.ablation",
    "AblationResult": "repro.experiments.ablation",
    "format_table": "repro.experiments.reporting",
    "format_series": "repro.experiments.reporting",
    "rows_to_csv": "repro.experiments.reporting",
    "percentage_change": "repro.experiments.reporting",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_attributes(__name__, _EXPORTS)
