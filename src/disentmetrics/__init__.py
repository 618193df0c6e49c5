"""Disentanglement metrics on paired generative-factor / latent-code data:
BetaVAE, FactorVAE, DCI, SAP, MIG, and 3CharM, with stress-test generators
and cross-metric analysis tooling."""

from .core import (
    DEFAULT_SEED,
    InformativenessMatrix,
    MetricReport,
    MetricsError,
    NotComputableError,
    RepresentationDataset,
    RepresentationOracle,
    UsageError,
    ValidationError,
    load_dataset,
    load_matrix,
    save_dataset,
    save_matrix,
    validate,
)
from .estimators import (
    BinningSpec,
    discretize,
    entropy,
    informativeness_from_mi,
    linear_regression_r2,
    mutual_information,
)
from .metrics import (
    InterventionConfig,
    beta_vae_score,
    dci_from_dataset,
    dci_score,
    evaluate_all,
    factor_vae_score,
    mig_score,
    sap_score,
    three_charm_score,
)
from .analysis import ComparisonReport, PopulationResult, compare, correlate_metrics, spearman

__all__ = [
    "DEFAULT_SEED",
    "BinningSpec",
    "ComparisonReport",
    "InformativenessMatrix",
    "InterventionConfig",
    "MetricReport",
    "MetricsError",
    "NotComputableError",
    "PopulationResult",
    "RepresentationDataset",
    "RepresentationOracle",
    "UsageError",
    "ValidationError",
    "beta_vae_score",
    "compare",
    "correlate_metrics",
    "dci_from_dataset",
    "dci_score",
    "discretize",
    "entropy",
    "evaluate_all",
    "factor_vae_score",
    "informativeness_from_mi",
    "linear_regression_r2",
    "load_dataset",
    "load_matrix",
    "mig_score",
    "mutual_information",
    "sap_score",
    "save_dataset",
    "save_matrix",
    "spearman",
    "three_charm_score",
    "validate",
]

__version__ = "0.1.0"
