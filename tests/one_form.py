"""The one stored form of an exact rational, as the tests check it."""

from fractions import Fraction


def in_one_form(x) -> bool:
    """Whether `x` is an `int` (not a bool) or a Fraction whose denominator is not 1."""
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)
