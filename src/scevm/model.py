"""Receiver-model types and the error taxonomy shared across the package.

The model throughout: an interference-limited receiver with ``antennas``
receive antennas, each seeing the desired channel plus ``interferers``
independent unit-mean-power Rayleigh interferer channels. One antenna is
selected per block, either by maximum signal-to-interference ratio or by
maximum desired signal power. The desired channel is Rayleigh or
Nakagami-m faded; antenna pairs may be correlated with coefficient rho.
"""

import math
import numbers
from dataclasses import dataclass
from enum import Enum


class ConfigError(ValueError):
    """A receiver configuration violates a model constraint."""


class UnsupportedDomainError(ValueError):
    """Arguments fall outside the implemented domain of a function."""


class NumericalError(ArithmeticError):
    """Base class for numerical evaluation failures."""


class DivergentMomentError(NumericalError):
    """The requested EVM moment integral is infinite."""


class SeriesRangeError(NumericalError):
    """An alternating series would lose all significant digits."""


def is_count(value):
    """True for an int >= 1; bool is an int subclass but not a count."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def check_number(value, name):
    """The value as a float; a bool, like any non-real value, is a ConfigError.

    float() would read True as 1 and "0.5" as 0.5.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    return float(value)


class SelectionRule(str, Enum):
    """Antenna selection rule applied per block."""

    MAX_SIR = "max_sir"
    MAX_SIGNAL = "max_signal"


@dataclass(frozen=True)
class Fading:
    """Desired-channel fading law.

    kind is "rayleigh" or "nakagami"; m is the Nakagami shape parameter.
    Rayleigh is the nakagami m = 1 special case and must carry m = 1.
    """

    kind: str
    m: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "m", check_number(self.m, "fading shape m"))
        if self.kind not in ("rayleigh", "nakagami"):
            raise ConfigError(f"unknown fading kind {self.kind!r}")
        if not (0.0 < self.m < math.inf):
            raise ConfigError(f"fading shape m must be positive and finite, got {self.m}")
        if self.kind == "rayleigh" and self.m != 1.0:
            raise ConfigError("rayleigh fading fixes the shape parameter at m = 1")

    @classmethod
    def rayleigh(cls):
        return cls("rayleigh", 1.0)

    @classmethod
    def nakagami(cls, m):
        return cls("nakagami", m)

    @property
    def is_rayleigh_equivalent(self):
        # nakagami with m = 1 is the same power law as rayleigh
        return self.m == 1.0


@dataclass(frozen=True)
class SystemConfig:
    """Complete receiver configuration.

    Attributes:
        antennas: number of receive antennas, at least 1.
        interferers: number of interferer channels per antenna, at least 1.
        rule: antenna selection rule.
        fading: desired-channel fading law (interferers are always Rayleigh).
        rho: correlation coefficient of the complex channel gains across a
            two-antenna pair, in [0, 1]. Nonzero rho is modelled only for
            two Rayleigh antennas; the same rho applies to the desired pair
            and to each interferer pair.
    """

    antennas: int
    interferers: int
    rule: SelectionRule
    fading: Fading = Fading.rayleigh()
    rho: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "rule", SelectionRule(self.rule))
        object.__setattr__(self, "rho", check_number(self.rho, "rho"))
        for name in ("antennas", "interferers"):
            if not is_count(getattr(self, name)):
                raise ConfigError(f"{name} must be an integer >= 1, "
                                  f"got {getattr(self, name)!r}")
        if not isinstance(self.fading, Fading):
            raise ConfigError("fading must be a Fading instance")
        if not (0.0 <= self.rho <= 1.0):
            raise ConfigError(f"rho must lie in [0, 1], got {self.rho}")
        if self.rho > 0.0 and self.antennas != 2:
            raise ConfigError("correlated antennas (rho > 0) are modelled for exactly 2 antennas")
        if self.rho > 0.0 and self.fading.kind != "rayleigh":
            raise ConfigError("correlated antennas (rho > 0) are modelled for Rayleigh desired fading only")
