"""Partial functions on query strings and their literals.

A QueryFunction maps strings over a query alphabet to output labels.  The
alphabet is either Boolean ("01") or the four-letter alphabet "01*+" used by
the sabotage constructions; '+' is the ASCII stand-in for the dagger mark.
The alphabet is derived from the domain, not declared: a function is
four-letter exactly when some domain string contains '*' or '+'.  Every
construction in this package that produces a four-letter function puts such a
symbol in every domain string, so the derivation is unambiguous and the
canonical encoding below is injective.

Two serialization formats, round-tripping through parse_function:

  tt:<n>:<cells>    truth table, 2^n cells over {0,1,-} in lexicographic
                    input order; '-' marks inputs outside the domain
  ext:<n>:{<input>=<label>,...}   explicit domain listing, inputs over
                    {0,1,*,+}; used whenever tt cannot express the function

Output labels are nonempty strings over {0,1}.  A single char is a plain
Boolean output; longer strings are component tuples written side by side
(see constructions.direct_sum).  Canonical encoding prefers the tt form and
lists ext entries in symbol-rank order 0 < 1 < * < +.  The empty domain is
encodable as ext:<n>:{} for cache keys but is rejected by parse_function.
"""

from __future__ import annotations

from functools import reduce
from operator import methodcaller, or_

STAR = "*"
DAGGER = "+"  # ASCII stand-in for the dagger mark
BOOLEAN_ALPHABET = "01"
FOUR_LETTER_ALPHABET = "01*+"
SYMBOL_RANK = {"0": 0, "1": 1, STAR: 2, DAGGER: 3}
RANK_DIGITS = str.maketrans(FOUR_LETTER_ALPHABET, "0123")


class ParseError(ValueError):
    """A function literal is malformed."""


class UndefinedValueError(LookupError):
    """The function was evaluated outside its domain."""


class LimitExceeded(RuntimeError):
    """A size limit, or the simplex pivot or column-generation cap, was hit."""


class AuditError(AssertionError):
    """An exact self-check of a result failed: an engine bug, never bad input.

    Raised explicitly, so the checks also run under python -O.
    """


def input_sort_key(x):
    """Sort key for 0 < 1 < * < +, the order that x.translate(RANK_DIGITS) gives."""
    return tuple(SYMBOL_RANK[c] for c in x)


class QueryFunction:
    """An immutable partial function from length-n query strings to labels."""

    __slots__ = ("arity", "table", "alphabet", "_domain", "_encoding", "_subcubes", "_hash")

    def __init__(self, arity, table):
        if not isinstance(arity, int) or arity < 1:
            raise ValueError(f"arity must be a positive integer, got {arity!r}")
        clean = {}
        for x, label in table.items():
            if len(x) != arity:
                raise ValueError(f"domain string {x!r} does not have length {arity}")
            if x.strip(FOUR_LETTER_ALPHABET):
                raise ValueError(f"domain string {x!r} has symbols outside 01*+")
            if not label or label.strip("01"):
                raise ValueError(f"label {label!r} is not a nonempty string over 01")
            clean[x] = label
        self.arity = arity
        self.table = clean
        self._domain = tuple(sorted(clean, key=methodcaller("translate", RANK_DIGITS)))
        four = "".join(clean).strip(BOOLEAN_ALPHABET)  # a '*' or '+' stops the strip
        self.alphabet = FOUR_LETTER_ALPHABET if four else BOOLEAN_ALPHABET
        self._encoding = None
        self._subcubes = None
        self._hash = None

    @property
    def domain(self):
        """Domain strings in canonical order."""
        return self._domain

    @property
    def is_total(self):
        return self.alphabet == BOOLEAN_ALPHABET and len(self.table) == 2 ** self.arity

    def labels(self):
        return sorted(set(self.table.values()))

    def __call__(self, x):
        try:
            return self.table[x]
        except KeyError:
            raise UndefinedValueError(f"{x!r} is outside the domain") from None

    def __contains__(self, x):
        return x in self.table

    def __eq__(self, other):
        if not isinstance(other, QueryFunction):
            return NotImplemented
        return self.arity == other.arity and self.table == other.table

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.arity, frozenset(self.table.items())))
        return self._hash

    def __repr__(self):
        return f"QueryFunction({self.encoding()!r})"

    def encoding(self):
        if self._encoding is None:
            self._encoding = canonical_encoding(self)
        return self._encoding


def subcube_labels(f):
    """Mask of the labels that each subcube meets; see det's module docstring.

    Built once per function and kept on it as a tuple, so that sabotage and
    C share one table and no caller can change it.
    """
    if f._subcubes is None:
        k = len(f.alphabet)
        bits = {label: 1 << j for j, label in enumerate(f.labels())}
        table = [0] * (k + 1) ** f.arity
        for x, label in f.table.items():
            table[int(x.translate(RANK_DIGITS), k + 1)] = bits[label]
        free = [0]  # place value of each index's lowest free digit, 0 if none
        for _ in range(f.arity):
            free = [1 if d == k else (k + 1) * w for w in free for d in range(k + 1)]
        for i, w in enumerate(free):
            if w:
                table[i] = reduce(or_, table[i - k * w:i:w])
        f._subcubes = tuple(table)
    return f._subcubes


def canonical_encoding(f):
    """Unique literal for the function; equal functions encode identically."""
    n = f.arity
    if not f.table:
        return f"ext:{n}:{{}}"
    if f.alphabet == BOOLEAN_ALPHABET and all(len(v) == 1 for v in f.table.values()):
        cells = []
        for i in range(2 ** n):
            x = format(i, f"0{n}b")
            cells.append(f.table.get(x, "-"))
        return f"tt:{n}:{''.join(cells)}"
    entries = ",".join(f"{x}={f.table[x]}" for x in f.domain)
    return f"ext:{n}:{{{entries}}}"


def parse_function(text):
    """Parse a tt: or ext: literal into a QueryFunction."""
    if not isinstance(text, str):
        raise ParseError(f"function literal must be a string, got {type(text).__name__}")
    kind, sep, rest = text.partition(":")
    if not sep or kind not in ("tt", "ext"):
        raise ParseError(f"literal {text!r} does not start with tt: or ext:")
    n_text, sep, body = rest.partition(":")
    try:
        n = int(n_text)
    except ValueError:
        raise ParseError(f"bad arity field in {text!r}") from None
    if not sep:
        raise ParseError(f"literal {text!r} is missing its body")
    if n < 1:
        raise ParseError(f"arity must be at least 1, got {n}")
    if kind == "tt":
        return _parse_tt(n, body, text)
    return _parse_ext(n, body, text)


def _parse_tt(n, cells, text):
    if len(cells) != 2 ** n:
        raise ParseError(
            f"{text!r}: expected {2 ** n} cells for arity {n}, got {len(cells)}"
        )
    bad = set(cells) - set("01-")
    if bad:
        raise ParseError(f"{text!r}: illegal cell characters {sorted(bad)}")
    table = {}
    for i, c in enumerate(cells):
        if c != "-":
            table[format(i, f"0{n}b")] = c
    if not table:
        raise ParseError(f"{text!r}: empty domain (all cells are '-')")
    return QueryFunction(n, table)


def _parse_ext(n, body, text):
    if not (body.startswith("{") and body.endswith("}")):
        raise ParseError(f"{text!r}: ext body must be brace-enclosed")
    inner = body[1:-1]
    if not inner:
        raise ParseError(f"{text!r}: empty domain")
    table = {}
    for entry in inner.split(","):
        x, sep, label = entry.partition("=")
        if not sep:
            raise ParseError(f"{text!r}: entry {entry!r} is missing '='")
        if len(x) != n:
            raise ParseError(f"{text!r}: input {x!r} does not have length {n}")
        if any(c not in SYMBOL_RANK for c in x):
            raise ParseError(f"{text!r}: input {x!r} has symbols outside 01*+")
        if not label or any(c not in "01" for c in label):
            raise ParseError(f"{text!r}: label {label!r} is not a nonempty 01 string")
        if x in table:
            raise ParseError(f"{text!r}: duplicate domain entry {x!r}")
        table[x] = label
    return QueryFunction(n, table)


def enumerate_functions(family, limit_arity=4):
    """Yield functions of a named family in canonical order.

    Families: "all-total:<n>" (all total Boolean functions, truth tables in
    lexicographic order), "nonconstant-total:<n>" (constants dropped), and
    "named:<lit>;<lit>;..." (explicit literals).  An iterable of literals is
    accepted directly.  Arity over limit_arity raises LimitExceeded.
    """
    if not isinstance(family, str):
        for lit in family:
            yield parse_function(lit)
        return
    kind, sep, arg = family.partition(":")
    if kind == "named":
        if not sep:
            raise ParseError("named family needs a literal list")
        for lit in arg.split(";"):
            if lit:
                yield parse_function(lit)
        return
    if kind not in ("all-total", "nonconstant-total"):
        raise ParseError(f"unknown family {family!r}")
    try:
        n = int(arg)
    except ValueError:
        raise ParseError(f"bad arity in family {family!r}") from None
    if n < 1:
        raise ParseError(f"family arity must be positive, got {n}")
    if n > limit_arity:
        raise LimitExceeded(
            f"family arity {n} exceeds the limit {limit_arity}; raise the limit explicitly"
        )
    cell_count = 2 ** n
    for k in range(2 ** cell_count):
        cells = format(k, f"0{cell_count}b")
        if kind == "nonconstant-total" and (k == 0 or k == 2 ** cell_count - 1):
            continue
        yield parse_function(f"tt:{n}:{cells}")
