"""Experiment drivers: one module per figure/table of the paper's evaluation,
plus the ablations listed in docs/paper-mapping.md.

Each experiment module is imported on the first access of one of its names,
so importing this package loads none of them."""

from repro._lazy import lazy_attributes

# each experiment module is imported on the first access of one of its names
__getattr__, __dir__ = lazy_attributes(
    __name__,
    {
        **dict.fromkeys(
            (
                "AblationResult",
                "run_library_ablation",
                "run_strategy_ablation",
                "standard_ablation_acgs",
            ),
            "repro.experiments.ablation",
        ),
        **dict.fromkeys(
            (
                "PAPER_AES_COST",
                "PAPER_AES_PRIMITIVES",
                "AesSynthesisResult",
                "run_aes_synthesis",
            ),
            "repro.experiments.aes_experiment",
        ),
        **dict.fromkeys(
            (
                "PAPER_RESULTS",
                "ArchitectureMetrics",
                "PrototypeComparison",
                "run_prototype_comparison",
            ),
            "repro.experiments.comparison",
        ),
        **dict.fromkeys(
            ("EXPECTED_PRIMITIVE_COUNTS", "Figure5Result", "run_figure5_example"),
            "repro.experiments.example_decomposition",
        ),
        **dict.fromkeys(
            (
                "format_series",
                "format_table",
                "percentage_change",
                "rows_to_csv",
            ),
            "repro.experiments.reporting",
        ),
        **dict.fromkeys(
            (
                "RuntimePoint",
                "RuntimeSweepResult",
                "run_pajek_runtime_sweep",
                "run_tgff_runtime_sweep",
            ),
            "repro.experiments.runtime_sweep",
        ),
    },
)

__all__ = [
    "run_tgff_runtime_sweep",
    "run_pajek_runtime_sweep",
    "RuntimePoint",
    "RuntimeSweepResult",
    "run_figure5_example",
    "Figure5Result",
    "EXPECTED_PRIMITIVE_COUNTS",
    "run_aes_synthesis",
    "AesSynthesisResult",
    "PAPER_AES_COST",
    "PAPER_AES_PRIMITIVES",
    "run_prototype_comparison",
    "PrototypeComparison",
    "ArchitectureMetrics",
    "PAPER_RESULTS",
    "run_strategy_ablation",
    "run_library_ablation",
    "standard_ablation_acgs",
    "AblationResult",
    "format_table",
    "format_series",
    "rows_to_csv",
    "percentage_change",
]
