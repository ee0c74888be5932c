"""Exact rational arithmetic for the engine kernels.

Engine math runs on an exact rational type: gmpy2.mpq when available,
fractions.Fraction otherwise.  The simplex, the LP audit and the
best-response searches run on Python ints either way (see lp.py and
games.py), so the rational type only carries values between them: LP
input, solutions and duals, and game certificates.  Public APIs convert
results back to Fraction so callers never see the kernel type.  No floats
enter any computation here; floats only appear in logarithmic advisory
bounds elsewhere, clearly flagged as such.
"""

from __future__ import annotations

from fractions import Fraction

try:
    from gmpy2 import mpq as rat
except ImportError:  # pragma: no cover - exercised only without gmpy2
    rat = Fraction  # rat(num, den=1) builds the kernel rational


def as_rat(value):
    """Coerce int / Fraction / kernel rational / 'num/den' string to the kernel type."""
    if type(value) is rat:
        return value
    if isinstance(value, str):
        return rat_from_str(value)
    if isinstance(value, float):
        raise TypeError("floats are not accepted; pass an exact rational")
    if isinstance(value, Fraction):
        return rat(value.numerator, value.denominator)
    if isinstance(value, int):
        return rat(value)
    # already a kernel rational (mpq or Fraction)
    return rat(value.numerator, value.denominator)


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
        return rat(num, den)
    return rat(int(text))


def rat_str(value):
    """Render a rational as 'num/den', or plain 'num' when the denominator is 1."""
    q = as_rat(value)
    num, den = int(q.numerator), int(q.denominator)
    return str(num) if den == 1 else f"{num}/{den}"


def to_fraction(value):
    q = as_rat(value)
    return q if type(q) is Fraction else Fraction(int(q.numerator), int(q.denominator))


def floor_rat(value):
    q = as_rat(value)
    return int(q.numerator) // int(q.denominator)


ZERO = rat(0)
