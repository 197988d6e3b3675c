"""Exception hierarchy shared across the package.

Two broad families matter for the CLI exit codes: configuration/usage
problems (exit 1) and data/validation problems (exit 2).
"""

from numbers import Integral


class PolarnetError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(PolarnetError):
    """Bad configuration: unknown key, type mismatch, constraint violation."""


def require_integers(*settings: tuple[str, object]) -> None:
    """Raise ConfigError naming the config key of the first (key, value) pair
    whose value is not an integer (a bool is none)."""
    for key, value in settings:
        if isinstance(value, bool) or not isinstance(value, Integral):
            raise ConfigError(f"key {key!r} must be an integer, got {value!r}")


class DataError(PolarnetError):
    """Invalid data or an operation applied to input it is undefined for."""


class GraphFormatError(DataError):
    """Malformed edge or attribute file; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class AnnotationError(DataError):
    """Nodes without an opinion, or conflicting opinion annotations."""

    def __init__(self, message: str, offenders: list[int] | None = None):
        self.offenders = offenders or []
        super().__init__(message)


class FitError(DataError):
    """Degree histogram has insufficient support for a power-law fit."""


class SingleGroupError(DataError):
    """Assortativity is undefined: all edge endpoints carry one label."""
