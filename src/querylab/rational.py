"""Exact rationals: Fraction at the edges, ints over one denominator inside.

Every rational the package takes or returns is a fractions.Fraction (or an
int).  Inside, the simplex, the LP audit and the best-response searches run
on Python ints: a list of rationals travels as (ints, den), built by common,
with value i equal to ints[i] / den.  No floats enter any computation; floats
only appear in logarithmic advisory bounds elsewhere, clearly flagged as
such.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def as_rat(value):
    """Coerce int / Fraction / 'num/den' string to a Fraction; floats raise TypeError."""
    if type(value) is Fraction:
        return value
    if isinstance(value, str):
        return rat_from_str(value)
    if isinstance(value, float):
        raise TypeError("floats are not accepted; pass an exact rational")
    return Fraction(value)


def rat_from_str(text):
    """Parse 'num/den' or 'num' into an exact rational.

    Raises ValueError on anything else (floats and decimals included).
    """
    text = text.strip()
    if "/" in text:
        num_text, _, den_text = text.partition("/")
        num, den = int(num_text), int(den_text)
        if den == 0:
            raise ValueError(f"zero denominator in rational literal {text!r}")
        return Fraction(num, den)
    return Fraction(int(text))


def rat_str(value):
    """Render a rational as 'num/den', or plain 'num' when the denominator is 1."""
    return str(as_rat(value))


def common(values):
    """(ints, den) with values == [v / den for v in ints], for ints and Fractions.

    den is the lcm of the denominators, so it is positive and as small as
    any common denominator can be.
    """
    den = lcm(*[v.denominator for v in values])
    return [v.numerator * (den // v.denominator) for v in values], den
