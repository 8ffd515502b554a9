"""Configuration type validation and the error hierarchy."""

import dataclasses
import math

import numpy as np
import pytest

from scevm import analytic, simulate
from scevm.model import (
    ConfigError,
    DivergentMomentError,
    Fading,
    NumericalError,
    SelectionRule,
    SeriesRangeError,
    SystemConfig,
    UnsupportedDomainError,
)
from scevm.sweep import SweepSpec, cell_seed


def test_error_hierarchy():
    assert issubclass(ConfigError, ValueError)
    assert issubclass(UnsupportedDomainError, ValueError)
    assert issubclass(NumericalError, ArithmeticError)
    assert issubclass(DivergentMomentError, NumericalError)
    assert issubclass(SeriesRangeError, NumericalError)


_MAX_SIR = (SelectionRule.MAX_SIR,)
_TAKES_A_CONFIG = {
    "sir_cdf_best_antenna": lambda cfg: analytic.sir_cdf_best_antenna(0.5, cfg),
    "evm_from_sir_cdf": analytic.evm_from_sir_cdf,
    "analytic_formula": analytic.analytic_formula,
    "formula_name": analytic.formula_name,
    "estimate_evm": lambda cfg: simulate.estimate_evm(cfg, 100),
    "estimate_evm_batch": lambda cfg: simulate.estimate_evm_batch([(cfg, _MAX_SIR, 100, 1)]),
    "estimate_evm_symbol_level": lambda cfg: simulate.estimate_evm_symbol_level(cfg, 1, 2),
    "estimate_evm_symbol_level_rules":
        lambda cfg: simulate.estimate_evm_symbol_level_rules(cfg, _MAX_SIR, 1, 2),
    "SweepSpec": lambda cfg: SweepSpec("L", (1, 2), cfg),
}
_REFUSALS = {
    **{f"{name}-{kind}": (lambda call=call, bad=bad: call(bad), "cfg must be a SystemConfig")
       for name, call in _TAKES_A_CONFIG.items()
       for kind, bad in (("str", "cfg"), ("dict", {"antennas": 2, "interferers": 1}))},
    # the closed forms' counts, with SystemConfig's message
    "SystemConfig": (lambda: SystemConfig(1, 0, SelectionRule.MAX_SIR),
                     "interferers must be an integer >= 1, got 0"),
    "evm_fully_correlated": (lambda: analytic.evm_fully_correlated(0),
                             "interferers must be an integer >= 1, got 0"),
    "evm_max_sir_rayleigh": (lambda: analytic.evm_max_sir_rayleigh(1, True),
                             "interferers must be an integer >= 1, got True"),
    "sir_cdf_single_antenna": (lambda: analytic.sir_cdf_single_antenna(1.0, 2.0, Fading.rayleigh()),
                               "interferers must be an integer >= 1, got 2.0"),
}


@pytest.mark.parametrize("call,message", _REFUSALS.values(), ids=_REFUSALS)
def test_one_refusal_per_argument_kind(call, message):
    # a non-config and a bad count raise one class, with one message, in
    # every module; it is also the closed forms' UnsupportedDomainError
    with pytest.raises(ConfigError) as caught:
        call()
    assert isinstance(caught.value, UnsupportedDomainError)
    assert str(caught.value) == message


def test_fading_constructors():
    ray = Fading.rayleigh()
    assert ray.kind == "rayleigh" and ray.m == 1.0
    assert ray.is_rayleigh_equivalent
    nak = Fading.nakagami(2.5)
    assert nak.kind == "nakagami" and nak.m == 2.5
    assert not nak.is_rayleigh_equivalent
    assert Fading.nakagami(1.0).is_rayleigh_equivalent
    with pytest.raises(ConfigError):
        Fading.nakagami("2")


@pytest.mark.parametrize("kwargs", [
    {"kind": "rician"},
    {"kind": "nakagami", "m": 0.0},
    {"kind": "nakagami", "m": -1.0},
    {"kind": "nakagami", "m": math.inf},
    {"kind": "rayleigh", "m": 2.0},
    # bool is an int subclass, but not a shape
    {"kind": "nakagami", "m": True},
    {"kind": "nakagami", "m": "2"},
    {"kind": "nakagami", "m": None},
])
def test_fading_rejects(kwargs):
    with pytest.raises(ConfigError):
        Fading(**kwargs)


def test_system_config_defaults_and_rule_coercion():
    cfg = SystemConfig(2, 1, "max_sir")
    assert cfg.rule is SelectionRule.MAX_SIR
    assert cfg.fading == Fading.rayleigh()
    assert cfg.rho == 0.0
    assert SystemConfig(2, 1, SelectionRule.MAX_SIGNAL).rule is SelectionRule.MAX_SIGNAL


@pytest.mark.parametrize("kwargs", [
    {"antennas": 0, "interferers": 1, "rule": "max_sir"},
    {"antennas": 2.0, "interferers": 1, "rule": "max_sir"},
    {"antennas": 2, "interferers": 0, "rule": "max_sir"},
    {"antennas": 2, "interferers": 1, "rule": "max_sir", "rho": -0.1},
    {"antennas": 2, "interferers": 1, "rule": "max_sir", "rho": 1.5},
    {"antennas": 3, "interferers": 1, "rule": "max_sir", "rho": 0.5},
    {"antennas": 2, "interferers": 1, "rule": "max_sir",
     "fading": Fading.nakagami(2.0), "rho": 0.5},
    {"antennas": 2, "interferers": 1, "rule": "max_sir", "fading": "rayleigh"},
    # bool is an int subclass, but not a count
    {"antennas": True, "interferers": 1, "rule": "max_sir"},
    {"antennas": 2, "interferers": True, "rule": "max_sir"},
    {"antennas": np.bool_(True), "interferers": 1, "rule": "max_sir"},
    {"antennas": np.int64(0), "interferers": 1, "rule": "max_sir"},
    {"antennas": 2, "interferers": np.float64(1.0), "rule": "max_sir"},
    {"antennas": "2", "interferers": 1, "rule": "max_sir"},
    # float() would read True as 1, the fully correlated pair
    {"antennas": 2, "interferers": 1, "rule": "max_sir", "rho": True},
    {"antennas": 2, "interferers": 1, "rule": "max_sir", "rho": np.bool_(True)},
    {"antennas": 2, "interferers": 1, "rule": "max_sir", "rho": "0.5"},
    {"antennas": 2, "interferers": 1, "rule": "max_sir", "rho": None},
])
def test_system_config_rejects(kwargs):
    with pytest.raises(ConfigError):
        SystemConfig(**kwargs)


def test_counts_accept_numpy_integers():
    cfg = SystemConfig(np.int64(2), np.uint8(1), "max_sir")
    assert type(cfg.antennas) is int and type(cfg.interferers) is int
    assert cfg == SystemConfig(2, 1, "max_sir")
    # a sweep cell's seed is derived from the counts' text
    assert cell_seed(1, cfg) == cell_seed(1, SystemConfig(2, 1, "max_sir"))


def test_bad_rule_token():
    with pytest.raises(ValueError):
        SystemConfig(2, 1, "best_random")


def test_configs_frozen():
    cfg = SystemConfig(2, 1, "max_sir")
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.antennas = 3
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.fading.m = 5.0


def test_rho_one_is_a_valid_config():
    cfg = SystemConfig(2, 3, "max_signal", rho=1.0)
    assert cfg.rho == 1.0


def test_real_parameters_are_stored_as_floats():
    cfg = SystemConfig(2, 1, "max_sir", rho=0)
    assert type(cfg.rho) is float
    assert type(SystemConfig(2, 1, "max_sir", rho=np.float64(0.5)).rho) is float
    assert type(Fading.nakagami(2).m) is float and Fading("nakagami", 2).m == 2.0
    # seeds hash str(value), so an int rho kept as given would draw its own stream
    assert cell_seed(1, cfg) == cell_seed(1, SystemConfig(2, 1, "max_sir", rho=0.0))
