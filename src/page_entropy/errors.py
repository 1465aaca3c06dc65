"""Exception types shared across the package, and its one argument check.

The CLI maps these onto distinct exit codes, so library code should raise
the most specific one that applies.
"""

import functools
import math


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConfigError(ValueError):
    """A run configuration (CLI flags or JSON config) is invalid."""


class NumericalError(RuntimeError):
    """An iteration failed to converge or a series failed to terminate."""


class InfeasibleSizeError(RuntimeError):
    """The request is well-posed but too large for the chosen method."""


def finite_real(x) -> bool:
    """x is a real number, not a bool, whose magnitude a double holds."""
    try:
        return type(x) is not bool and math.isfinite(x)
    except (TypeError, OverflowError):  # not a number, or an int > 2^1024
        return False


def checked(function):
    """`function` behind the package's one argument check, read from its
    string annotations: an `int` parameter takes an int, not a bool, a
    `float` one a `finite_real`, and `Optional[...]` admits None too; the
    first other value raises DomainError (`dim_table needs integers, got
    V=4.0`, or `numbers`).  `entropy.BipartitionSpec.__post_init__` and
    `numerics._as_dim_int` test ints inline instead, on hot paths."""
    names = function.__code__.co_varnames[:function.__code__.co_argcount]
    rules = {}  # parameter -> (what it needs, whether it admits None)
    for name, note in function.__annotations__.items():
        kind = note.removeprefix("Optional[").removesuffix("]")
        if name in names and kind in ("int", "float"):
            rules[name] = ("integers" if kind == "int" else "numbers",
                           kind != note)

    def passes(x, needs, optional) -> bool:
        if x is None:
            return optional
        return type(x) is int if needs == "integers" else finite_real(x)

    @functools.wraps(function)
    def guarded(*args, **kwargs):
        for name, x in dict(zip(names, args), **kwargs).items():
            if name in rules and not passes(x, *rules[name]):
                raise DomainError(f"{function.__name__} needs "
                                  f"{rules[name][0]}, got {name}={x!r}")
        return function(*args, **kwargs)
    return guarded
