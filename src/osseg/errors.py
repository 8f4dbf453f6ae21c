"""Exception hierarchy shared by all osseg modules.

The CLI maps ArgumentError (and argparse failures) to exit code 2 and every
other OssegError to exit code 1.
"""


class OssegError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(OssegError):
    """Shapes of two operands are incompatible."""


class ConfigurationError(OssegError):
    """A size/stride/config combination is invalid."""


class NumericError(OssegError):
    """A non-finite value appeared where finite values are required."""


class FormatError(OssegError):
    """A raster file is malformed; carries the byte offset of the defect."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class ValidationError(OssegError):
    """Data violates a value-range contract (e.g. class id out of range)."""


class ArgumentError(OssegError):
    """A caller-supplied argument is invalid (usage error at the CLI)."""


class EmptyLabelError(ValidationError):
    """A label map contains no usable (non-ignore) pixels."""


class TrainingError(OssegError):
    """Training aborted, e.g. because a loss term became non-finite."""
