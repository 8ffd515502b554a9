"""Closed-form EVM of interference-limited selection-combining receivers,
with Monte Carlo machinery to verify every formula from first principles."""

from .analytic import (
    analytic_formula,
    evm_fully_correlated,
    evm_from_sir_cdf,
    evm_max_signal_correlated,
    evm_max_signal_rayleigh,
    evm_max_sir_rayleigh,
    formula_name,
    sir_cdf_best_antenna,
    sir_cdf_single_antenna,
)
from .model import (
    ConfigError,
    DivergentMomentError,
    Fading,
    NumericalError,
    SelectionRule,
    SeriesRangeError,
    SystemConfig,
    UnsupportedDomainError,
)
from .simulate import (
    DEFAULT_SEED,
    EvmEstimate,
    estimate_evm,
    estimate_evm_batch,
    estimate_evm_symbol_level,
    estimate_evm_symbol_level_rules,
)
from .sweep import SweepRow, SweepSpec, emit_csv, preset, run_sweep
from .verify import run_verification

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DEFAULT_SEED",
    "DivergentMomentError",
    "EvmEstimate",
    "Fading",
    "NumericalError",
    "SelectionRule",
    "SeriesRangeError",
    "SweepRow",
    "SweepSpec",
    "SystemConfig",
    "UnsupportedDomainError",
    "analytic_formula",
    "emit_csv",
    "estimate_evm",
    "estimate_evm_batch",
    "estimate_evm_symbol_level",
    "estimate_evm_symbol_level_rules",
    "evm_fully_correlated",
    "evm_from_sir_cdf",
    "evm_max_signal_correlated",
    "evm_max_signal_rayleigh",
    "evm_max_sir_rayleigh",
    "formula_name",
    "preset",
    "run_sweep",
    "run_verification",
    "sir_cdf_best_antenna",
    "sir_cdf_single_antenna",
]
