"""Exception types shared across the package.

The CLI maps these to exit codes: every SubmaxError (ConfigError and its
subclasses for bad parameters, malformed input files and oversized
enumeration requests, and the solver-side errors below) exits with code
1; plain OSError from file handling exits with code 2.
"""


class SubmaxError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(SubmaxError):
    """Invalid parameters or experiment configuration."""


class ConstraintError(ConfigError):
    """Cardinality bound k is out of range for the ground set."""


class ElementError(SubmaxError):
    """Element id outside the ground set's id space."""


class ObjectiveError(SubmaxError):
    """Operation applied to an instance of the wrong objective kind."""


class SolutionSizeError(SubmaxError):
    """Solution does not have the size required by the operation."""


class EnumerationGuardError(ConfigError):
    """Ground set too large for exhaustive enumeration."""


class ParseError(ConfigError):
    """Malformed input file; carries the offending 1-based line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)
        self.line = line


class EmptyInputError(SubmaxError):
    """An aggregate operation received no records."""
