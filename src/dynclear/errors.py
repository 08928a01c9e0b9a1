"""Exception types shared across the package."""


class DynclearError(Exception):
    """Base class for all package errors."""


class ValidationError(DynclearError, ValueError):
    """Invalid domain object: bad shape, sign, or broken invariant."""


class ContractionError(DynclearError):
    """Clearing input violates the non-vanishing-liabilities condition, or
    a default block of the clearing system is singular."""


class SolverError(DynclearError):
    """The LP backend reported something other than an optimal solution."""

    def __init__(self, message: str, status: str = "failed"):
        super().__init__(message)
        self.status = status


class EnumerationLimitError(DynclearError):
    """Brute-force search space exceeds the configured guard."""


class ReplayFormatError(DynclearError):
    """Replay CSV could not be parsed; carries a 1-based line number."""

    def __init__(self, path: str, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")
        self.path = path
        self.line = line


class CertificateError(DynclearError):
    """Operation requires a valid constant-proportion certificate."""


class MyopicGapError(DynclearError):
    """Sequential and horizon values disagree on a certificate-valid path
    on which every node stays in default along the horizon schedule, where
    they are provably equal.  Outside that regime a gap is not an error:
    the horizon LP can be a strict relaxation of the dynamics, or the
    sequential policy can fall short of an attainable optimum."""


class ConfigError(DynclearError):
    """Experiment configuration failed validation; message names the field."""
