"""Shared exception types."""


class DossError(Exception):
    """Base class for errors raised by this package."""


class ShapeError(DossError, ValueError):
    """Tensor shapes or dimensions are inconsistent."""


class NumericsError(DossError, ArithmeticError):
    """A forward value or gradient became NaN/Inf."""


class ConfigError(DossError, ValueError):
    """Invalid model/training/manifest configuration."""


class FormatError(DossError, ValueError):
    """A serialized artifact is corrupt or has the wrong format."""


class RegistryMismatchError(DossError, ValueError):
    """A mask, store, or record does not match the parameter layout and its rule."""


class WorkerError(DossError, RuntimeError):
    """A decode worker process died or broke off its reply."""
