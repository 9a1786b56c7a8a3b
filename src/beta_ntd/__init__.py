"""Nonnegative Tucker decomposition of third-order tensors under the
beta-divergence, with barwise spectrogram tensorization and boundary
evaluation."""

__version__ = "0.1.0"

from .divergence import beta_div, gamma_exponent, objective
from .errors import NumericalDomainError, ParseError
from .segmentation import (
    BoundarySet,
    EvalReport,
    bar_autosimilarity,
    bars_to_seconds,
    evaluate_boundaries,
    segment_bars,
)
from .solver import FactorSet, LossTrace, SolverConfig, init_factors, iterate, solve
from .tensor_ops import clamp_min, read_tensor, write_tensor
from .tfb import (
    BarGrid,
    Spectrogram,
    build_tfb,
    nnlms,
)

__all__ = [
    "BarGrid",
    "BoundarySet",
    "EvalReport",
    "FactorSet",
    "LossTrace",
    "NumericalDomainError",
    "ParseError",
    "SolverConfig",
    "Spectrogram",
    "bar_autosimilarity",
    "bars_to_seconds",
    "beta_div",
    "build_tfb",
    "clamp_min",
    "evaluate_boundaries",
    "gamma_exponent",
    "init_factors",
    "iterate",
    "nnlms",
    "objective",
    "read_tensor",
    "segment_bars",
    "solve",
    "write_tensor",
]
