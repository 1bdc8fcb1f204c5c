"""Exception hierarchy shared by the library and the CLI.

Every error carries the module and operation where it originated so the
command line layer can emit a machine readable report before exiting.
"""

from __future__ import annotations


class DeconvError(Exception):
    """Base class. `module` and `operation` identify the failure site."""

    def __init__(self, message: str, *, module: str = "", operation: str = ""):
        super().__init__(message)
        self.module = module
        self.operation = operation


class ConfigError(DeconvError):
    """Bad or inconsistent user configuration. CLI exit code 2."""


class ComputationError(DeconvError):
    """A numerical routine could not produce a trustworthy result. Exit 3."""


class NoRootError(ComputationError):
    """A scalar equation has no root in the admissible range."""


class SaturationError(ComputationError):
    """A quantity ran into a floating point floor or ceiling."""


class PhaseTrackingError(ComputationError):
    """A contour passes within rounding of a zero: no certified count."""


class ValidationError(DeconvError):
    """An internal consistency check failed after a computation."""


class AcceptanceGateError(DeconvError):
    """A sweep violated one of its hard quality gates. Exit 4."""
