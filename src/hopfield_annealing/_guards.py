"""One guard per kind of argument fact, shared by the library and the CLI.
Each returns the argument converted, or raises a ValueError that shows the
value after the argument's name (an empty name leaves the naming to the
caller). Numeric strings and integral floats are read; booleans are refused."""

import math
import numbers
from collections.abc import Hashable

import numpy as np


def _prefix(name: str, separator: str = " ") -> str:
    return name + separator if name else ""


def _read(value, kind):
    """kind(value) of a real number or a numeric string; None for a boolean,
    anything else, or a number that int does not hold exactly."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (str, numbers.Real)):
        return None
    try:
        number = kind(value)
    except (ValueError, OverflowError):  # no number in the string; int of inf or nan
        return None
    return number if kind is float or isinstance(value, str) or number == value else None


def integer(value, name: str = "", low=-math.inf, high=math.inf) -> int:
    """int(value) of an integer in [low, high]."""
    number = value if type(value) is int else _read(value, int)
    if number is None:
        raise ValueError(f"{_prefix(name, ': ')}expected an integer, got {value!r}")
    if not low <= number <= high:
        bounds = f"lie in [{low}, {high}]" if high < math.inf else f"be at least {low}"
        raise ValueError(f"{_prefix(name)}must {bounds}, got {value!r}")
    return number


def real(value, name: str = "", low=-math.inf, high=math.inf, positive: bool = False) -> float:
    """float(value) of a finite real number in [low, high], above 0 if `positive`."""
    number = value if type(value) is float else _read(value, float)
    if number is not None and math.isfinite(number) and low <= number <= high and (
            number > 0 or not positive):
        return number
    want = ("be positive and finite" if positive
            else f"lie in [{low:g}, {high:g}] and be finite" if high < math.inf
            else f"be finite and at least {low:g}" if low > -math.inf
            else "be a finite real number")
    raise ValueError(f"{_prefix(name)}must {want}, got {value!r}")


def member(value, name: str = "", choices: tuple = ()):
    """`value` if it is one of `choices`."""
    if isinstance(value, Hashable) and value in choices:
        return value
    raise ValueError(f"unknown {_prefix(name)}{value!r}; choose from {choices}")


def typed(value, name: str = "", kind: type = object):
    """`value` if it is an instance of `kind`."""
    if isinstance(value, kind):
        return value
    raise ValueError(f"{_prefix(name, ': ')}expected {kind.__name__}, got {value!r}")


def array(value, name: str = "", dtype=np.float64) -> np.ndarray:
    """np.asarray(value, dtype) of an array of numbers."""
    try:
        return np.asarray(value, dtype=dtype)
    except (TypeError, ValueError):  # not numbers, or ragged
        raise ValueError(f"{_prefix(name)}must be an array of numbers, got {value!r}") from None


def sequence(values, name: str = "", item=None, distinct: bool = False,
             ascending: bool = False) -> list:
    """`values` as a list, each value passed through the guard `item` if one is
    given; with no value repeated if `distinct`, strictly ascending if `ascending`."""
    try:
        items = list(values)
    except TypeError:
        raise ValueError(f"{_prefix(name, ': ')}expected a list, got {values!r}") from None
    if item is not None:
        try:
            items = [item(value) for value in items]
        except ValueError as error:
            raise ValueError(f"{_prefix(name, ': ')}{error}") from None
    if distinct and len(set(items)) < len(items):
        raise ValueError(f"{_prefix(name)}repeats a value, got {items}")
    if ascending and not all(a < b for a, b in zip(items, items[1:])):
        raise ValueError(f"{_prefix(name)}must be strictly ascending, got {items}")
    return items
