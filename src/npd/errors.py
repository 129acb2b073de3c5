"""Exception hierarchy shared across the toolkit, and the lower-bound check
that the configs run on their count fields."""


class NpdError(Exception):
    """Base class for all toolkit errors."""


class DimensionError(NpdError, ValueError):
    """Operand shapes are incompatible with the requested operation."""


class ContractError(NpdError, ValueError):
    """A caller violated an operation's precondition."""


class ConfigError(NpdError, ValueError):
    """A configuration value is out of its permitted range."""


def check_at_least(cfg, least: int, *names: str) -> None:
    """Raise ConfigError for the first of cfg's fields names below least."""
    for name in names:
        if getattr(cfg, name) < least:
            raise ConfigError(f"{name} must be >= {least}, got {getattr(cfg, name)}")


class DataError(NpdError, ValueError):
    """An input file or record failed validation."""


class DivergenceError(NpdError, RuntimeError):
    """Training produced a non-finite loss; carries the offending tensor name."""

    def __init__(self, message: str, tensor_name: str = ""):
        super().__init__(message)
        self.tensor_name = tensor_name
