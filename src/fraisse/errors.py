"""Exception types shared across the package."""

from __future__ import annotations


class FraisseError(Exception):
    """Base class for all errors raised by this package."""


class VocabularyError(FraisseError):
    """A symbol clash, unknown symbol, or mismatched vocabulary."""


class InvalidElementError(FraisseError):
    """A tuple or subset mentions elements outside a structure's universe."""


class ParseError(FraisseError):
    """A text input could not be parsed.  Carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class AdequacyError(FraisseError):
    """A two-point permission set failed the adequacy check required here."""


class ExtensionError(FraisseError):
    """A requested one-point extension is malformed or not permitted."""


class SaturationError(FraisseError):
    """An operation's saturation prerequisite is not met."""


class ConfigurationNotFoundError(FraisseError):
    """A required witness configuration does not occur in the given structure."""


class InputError(FraisseError):
    """Inputs are individually well-formed but jointly unusable."""
