"""Shared exception types and the trade-off weight precondition."""
import math


class ContractViolation(ValueError):
    """An operation was called with inputs that break its preconditions."""


class PhaseError(ContractViolation):
    """A belief operation was applied in the wrong predict/update phase."""


class NumericalFailure(RuntimeError):
    """A linear-algebra step failed beyond the jitter/fallback policy."""


class ImpossibleEvidence(ValueError):
    """A Bayes update was asked to condition on a zero-probability outcome."""


class ConfigError(ValueError):
    """A run configuration file or flag set is invalid."""


def check_lambda(lam) -> float:
    """The trade-off weight as a float; ContractViolation unless finite and >= 0."""
    lam = float(lam)
    if not (math.isfinite(lam) and lam >= 0.0):
        raise ContractViolation(f"lambda must be finite and >= 0, got {lam!r}")
    return lam
