"""Exception hierarchy shared by all carmodel modules."""


class CarModelError(Exception):
    """Base class for all errors raised by this package."""


class DesignError(CarModelError, ValueError):
    """Invalid design parameters or a section that cannot be realized."""


class ConfigError(CarModelError, ValueError):
    """Mismatched shapes, formats, or runtime configuration."""


class FixedPointError(CarModelError, ValueError):
    """Invalid fixed-point format or value."""


class InfeasibleError(CarModelError, ValueError):
    """Hardware budget cannot accommodate the requested configuration."""


class AnalysisError(CarModelError, ValueError):
    """Measurement cannot be performed or is undefined for the given data."""


class AudioFormatError(CarModelError, ValueError):
    """Unsupported or malformed audio file."""
