"""Derived functions: sabotaged versions, compositions, sums, index functions.

The sabotage construction turns a Boolean-output f into a search problem over
the four-letter alphabet.  A pattern over {0,1,*} is ambiguous for f when it
matches both a 0-labeled and a 1-labeled domain input; the saboteur hands the
algorithm such a pattern with its blanks written either as '*' (label 0) or
as '+' (label 1), and the algorithm must name which blank symbol was used.
Locating any blank settles it, so the sabotaged function's cost is the cost
of finding a blank.

ambiguous_patterns reads the subcube label table (see det).  For Boolean f,
index order over the digits 0, 1 and the top free digit ('*') is product
order over "01*", the order that callers and frozen values have always seen.
"""

from __future__ import annotations

from itertools import product

from .core import BOOLEAN_ALPHABET, DAGGER, STAR, QueryFunction, subcube_labels


class ConstructionError(ValueError):
    """A construction's preconditions were violated."""


def _require_boolean_output(f, what):
    if any(len(v) != 1 for v in f.table.values()):
        raise ConstructionError(f"{what} needs a Boolean-output function")


def _require_boolean_input(f, what):
    if f.alphabet != BOOLEAN_ALPHABET:
        raise ConstructionError(f"{what} needs a Boolean-input function")


def matches(pattern, x):
    """Does domain string x agree with the pattern on every non-blank position?"""
    return all(p in (STAR, DAGGER) or p == c for p, c in zip(pattern, x))


class SabotagedFunction(QueryFunction):
    """A sabotaged function, remembering its base and the two pattern sets."""

    __slots__ = ("base", "star_inputs", "dagger_inputs")

    def __init__(self, base, star_inputs, dagger_inputs):
        table = {p: "0" for p in star_inputs}
        table.update({p: "1" for p in dagger_inputs})
        super().__init__(base.arity, table)
        self.base = base
        self.star_inputs = frozenset(star_inputs)
        self.dagger_inputs = frozenset(dagger_inputs)


def ambiguous_patterns(f):
    """Patterns over {0,1,*} consistent with both output labels of f."""
    _require_boolean_output(f, "sabotage")
    _require_boolean_input(f, "sabotage")
    patterns = product("01" + STAR, repeat=f.arity)
    return ["".join(p) for p, mask in zip(patterns, subcube_labels(f)) if mask == 3]


def sabotage(f):
    """The sabotaged version of f on the four-letter alphabet.

    Output '0' on star-written patterns, '1' on dagger-written ones.  A
    constant (or otherwise unambiguous) f yields an empty domain.
    """
    stars = ambiguous_patterns(f)
    return SabotagedFunction(f, stars, [p.replace(STAR, DAGGER) for p in stars])


def unique_sabotage(f):
    """Restriction of sabotage(f) to patterns with exactly one blank."""
    stars = [p for p in ambiguous_patterns(f) if p.count(STAR) == 1]
    return SabotagedFunction(f, stars, [p.replace(STAR, DAGGER) for p in stars])


def compose(f, g):
    """f after g on disjoint blocks: arity(f) copies of g feed f's positions."""
    _require_boolean_input(f, "compose")
    _require_boolean_input(g, "compose")
    _require_boolean_output(g, "compose")
    table = {}
    for xs in product(g.domain, repeat=f.arity):
        w = "".join(g.table[x] for x in xs)
        if w in f.table:
            table["".join(xs)] = f.table[w]
    return QueryFunction(f.arity * g.arity, table)


def direct_sum(f, m):
    """m independent copies of f; outputs written side by side."""
    if not isinstance(m, int) or m < 1:
        raise ConstructionError(f"copy count must be a positive integer, got {m!r}")
    if m == 1:
        return f
    table = {}
    for xs in product(f.domain, repeat=m):
        table["".join(xs)] = "".join(f.table[x] for x in xs)
    return QueryFunction(f.arity * m, table)


def address_width(m):
    """Largest c with c + 2^c <= m."""
    if m < 3:
        raise ConstructionError(f"index function needs arity at least 3, got {m}")
    c = 1
    while (c + 1) + 2 ** (c + 1) <= m:
        c += 1
    return c


def index_function(m):
    """Total function on m bits: the first c bits address a cell of the next 2^c.

    c is the largest integer with c + 2^c <= m; trailing bits are ignored.
    """
    c = address_width(m)
    table = {}
    for cells in product("01", repeat=m):
        x = "".join(cells)
        y = int(x[:c], 2)
        table[x] = x[c + y]
    return QueryFunction(m, table)


def indexed_direct_sum(f, c):
    """c copies of f compute an address into a block of 2^c raw answer bits.

    With f the one-bit identity and c = 1 this is exactly index_function(3).
    """
    _require_boolean_output(f, "indexed_direct_sum")
    if not isinstance(c, int) or c < 1:
        raise ConstructionError(f"address width must be a positive integer, got {c!r}")
    width = 2 ** c
    table = {}
    for xs in product(f.domain, repeat=c):
        address = int("".join(f.table[x] for x in xs), 2)
        prefix = "".join(xs)
        for cells in product("01", repeat=width):
            z = "".join(cells)
            table[prefix + z] = z[address]
    return QueryFunction(c * f.arity + width, table)
