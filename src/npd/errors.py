"""Exception hierarchy shared across the toolkit, and the value rules that
each config's RULES table, the checkpoint manifest and the CLI name. A rule
is a tuple of (wording, test) steps, the value's type first; check raises
'<field> must <wording>, got <value>' at the first step it fails.
"""

import sys
from numbers import Integral, Real


class NpdError(Exception):
    """Base class for all toolkit errors."""


class DimensionError(NpdError, ValueError):
    """Operand shapes are incompatible with the requested operation."""


class ContractError(NpdError, ValueError):
    """A caller violated an operation's precondition."""


class ConfigError(NpdError, ValueError):
    """A configuration value is out of its permitted range."""


class DataError(NpdError, ValueError):
    """An input file or record failed validation."""


class DivergenceError(NpdError, RuntimeError):
    """Training produced a non-finite value; the message names the offending tensor."""


INTEGER = ("be an integer", lambda v: isinstance(v, Integral) and not isinstance(v, bool))
# false for nan, inf and an int too large for a float
NUMBER = ("be a finite number", lambda v: isinstance(v, Real) and not isinstance(v, bool)
          and abs(v) <= sys.float_info.max)

FLAG = (("be true or false", lambda v: isinstance(v, bool)),)
FINITE = (NUMBER,)
NONNEGATIVE = (NUMBER, ("be >= 0", lambda v: v >= 0))
POSITIVE = (NUMBER, ("be > 0", lambda v: v > 0))
RATE = (NUMBER, ("be in [0, 1)", lambda v: 0 <= v < 1))
FRACTION = (NUMBER, ("be in (0, 1)", lambda v: 0 < v < 1))
PROBABILITY = (NUMBER, ("be in [0, 1]", lambda v: 0 <= v <= 1))


def at_least(least: int) -> tuple:
    """The rule of an integer >= least."""
    return INTEGER, (f"be >= {least}", lambda v: v >= least)


NONNEGATIVE_INT = at_least(0)
COUNT = at_least(1)
LOCATIONS = at_least(2)  # the location discriminator's classes


def one_of(names) -> tuple:
    """The rule of a value among names."""
    return ((f"be one of {', '.join(names)}", lambda v: v in names),)


def optional(rule) -> tuple:
    """rule, with None allowed."""
    return tuple((wording, lambda v, ok=ok: v is None or ok(v)) for wording, ok in rule)


def check(rule, name: str, value, error: type[Exception] = ConfigError) -> None:
    """Raise error('<name> must <wording>, got <value>') at the first step of
    rule that value fails."""
    for wording, ok in rule:
        if not ok(value):
            raise error(f"{name} must {wording}, got {value!r}")


def check_fields(cfg) -> None:
    """check each field of cfg against its rule in cfg.RULES, as a ConfigError;
    the validate method of a config whose fields have no joint check."""
    for name, rule in cfg.RULES.items():
        check(rule, name, getattr(cfg, name))
