"""Exception types shared across the package."""

from __future__ import annotations


class HoroflowError(Exception):
    """Base class for all package-specific failures.

    summary is None, except on an error that aborted flow.run: there it holds
    the aborted run's summary dict (status "aborted" and the abort account).
    """

    summary: dict | None = None


class DomainError(HoroflowError, ValueError):
    """An argument left the mathematical domain of an operation."""


class ConfigurationError(DomainError):
    """A run configuration failed validation.

    Carries the full list of offending fields so a user can fix a config
    file in one pass instead of replaying the parser error by error.  The
    types that own config fields state their rules once, in `problems`
    functions over plain values whose messages lead with the config key; a
    None value (one that failed to parse) skips the rules that read it.
    """

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("invalid configuration: " + "; ".join(self.problems))

    @classmethod
    def raise_if(cls, problems: list[str]) -> None:
        """Raise one error listing every problem, if there are any."""
        if problems:
            raise cls(problems)


class ParabolicityLostError(HoroflowError):
    """The m-th mean curvature dropped to or below zero at some node."""

    def __init__(self, message: str, node_index: int | None = None):
        super().__init__(message)
        self.node_index = node_index


class StiffnessError(HoroflowError):
    """The stable step size pinned at dt_min for too many consecutive steps."""


class NumericalBlowupError(HoroflowError):
    """Non-finite values appeared in the evolving state."""


class RootFindingError(HoroflowError):
    """An iterative solve (bisection / safeguarded Newton) failed to converge."""
