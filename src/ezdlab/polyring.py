"""Monomials, homogeneous polynomials, ideal descriptions, and their text grammar.

Monomials
    A monomial is its exponent tuple, one non-negative entry per variable:
    x1^2*x3 in three variables is (2, 0, 1). Every layer uses this one form.
    `HomogPoly` validates the tuples it is given; the parser builds only
    valid ones.

Monomial order
    Graded lexicographic with x1 taking precedence over x2 over x3 and so on.
    Within a degree, monomials heavier in earlier variables come first, so the
    degree-2 monomials in two variables enumerate as x1^2, x1*x2, x2^2. All
    bases, reports and pretty-printed polynomials use this order, and
    `monomial_key` is its one definition. A tuple's native order is plain
    lex, not this one: (0, 2) < (2, 0), so monomials are never compared or
    sorted without the key.

Ideal text grammar
    variables    x1, x2, ..., xN
    term         optional rational coefficient (``3``, ``-1/2``) joined by ``*``
                 with variable powers ``xi^e``
    polynomial   terms separated by ``+`` / ``-``
    ideal        generators separated by commas or newlines
    comments     ``#`` to end of line; whitespace is insignificant

Integers and variable indices are ASCII digits ``0-9``. Any other character,
a non-homogeneous polynomial and every other fault in the text (an integer
too long for ``int`` among them) raise ParseError with its line and column.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import lcm
from operator import add
from typing import Iterable, NamedTuple, Sequence

from .exactmat import exact


class ParseError(ValueError):
    """Syntax error in ideal/polynomial text, with source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


class NonHomogeneousError(ParseError):
    """A polynomial mixes terms of different degrees."""


Monomial = tuple[int, ...]  # exponent vector, one entry per variable


def monomial_key(m: Monomial) -> tuple:
    """Graded-lex sort key: lower degree first, then earlier-variable-heavy first."""
    return (sum(m), tuple(-e for e in m))


def divides(a: Monomial, b: Monomial) -> bool:
    """Whether the monomial `a` divides `b`; both must have the same variable count."""
    return all(x <= y for x, y in zip(a, b, strict=True))


@lru_cache(maxsize=None)
def monomials_of_degree(nvars: int, degree: int) -> tuple[Monomial, ...]:
    """All monomials of the given total degree, in graded-lex order."""
    if nvars < 1:
        raise ValueError("need at least one variable")
    if degree < 0:
        raise ValueError("degree must be non-negative")
    # Sorted variable-index tuples in lex order: the first index in which two
    # differ is lower in the one heavier in that variable, so it comes first.
    out = []
    for indices in combinations_with_replacement(range(nvars), degree):
        e = [0] * nvars
        for i in indices:
            e[i] += 1
        out.append(tuple(e))
    return tuple(out)


def minimalize_monomial_gens(gens: Iterable[Monomial]) -> tuple[Monomial, ...]:
    """Drop duplicate and divisibility-redundant generators."""
    unique = sorted(set(gens), key=monomial_key)
    kept = [g for g in unique if not any(divides(h, g) for h in unique if h != g)]
    return tuple(kept)


@dataclass(frozen=True, slots=True, init=False)
class HomogPoly:
    """Homogeneous polynomial with rational coefficients.

    Only nonzero coefficients are stored, each as `exactmat.exact` gives it,
    so an integral one is an `int` and dividing two needs `Fraction(a, b)`.
    The zero polynomial keeps a nominal degree so that sums and products
    stay well-typed.
    """

    nvars: int
    degree: int
    coeffs: dict[Monomial, int | Fraction]
    _hash: int | None = field(compare=False, repr=False)  # None until the first hash

    def __init__(self, nvars: int, degree: int, coeffs: Mapping[Monomial, int | Fraction] | Iterable = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        store: dict[Monomial, int | Fraction] = {}
        for m, c in items:
            c = exact(c)
            if len(m) != nvars:
                raise ValueError("monomial variable count does not match")
            if sum(m) != degree:
                raise ValueError(f"monomial of degree {sum(m)} in a degree-{degree} polynomial")
            if min(m, default=0) < 0:
                raise ValueError("exponents must be non-negative")
            if c:
                if m in store:
                    c = exact(c + store[m])
                    if not c:
                        del store[m]
                        continue
                store[m] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", store)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def zero(cls, nvars: int, degree: int) -> "HomogPoly":
        return cls(nvars, degree, ())

    @classmethod
    def from_monomial(cls, m: Monomial, coeff: int | Fraction = 1) -> "HomogPoly":
        return cls(len(m), sum(m), [(m, coeff)])

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, m: Monomial) -> int | Fraction:
        return self.coeffs.get(m, 0)

    def terms(self) -> tuple[tuple[Monomial, int | Fraction], ...]:
        """(monomial, coefficient) pairs in graded-lex order."""
        return tuple(sorted(self.coeffs.items(), key=lambda mc: monomial_key(mc[0])))

    def support(self) -> tuple[Monomial, ...]:
        return tuple(m for m, _ in self.terms())

    def integer_coeffs(self) -> tuple[dict[Monomial, int], int]:
        """The coefficients times the lcm L of their denominators, and L; for
        L = 1 the dict is `coeffs` itself, to be read and not changed."""
        scale = lcm(*(c.denominator for c in self.coeffs.values()))
        if scale == 1:
            return self.coeffs, 1
        return {m: c.numerator * (scale // c.denominator) for m, c in self.coeffs.items()}, scale

    def _check_compatible(self, other: "HomogPoly"):
        if self.nvars != other.nvars:
            raise ValueError("variable counts differ")
        if self.degree != other.degree:
            raise ValueError("degrees differ")

    def __add__(self, other: "HomogPoly") -> "HomogPoly":
        self._check_compatible(other)
        merged = dict(self.coeffs)
        for m, c in other.coeffs.items():
            merged[m] = merged.get(m, 0) + c
        return HomogPoly(self.nvars, self.degree, merged)

    def __sub__(self, other: "HomogPoly") -> "HomogPoly":
        return self + (-other)

    def __neg__(self) -> "HomogPoly":
        return HomogPoly(self.nvars, self.degree, [(m, -c) for m, c in self.coeffs.items()])

    def __mul__(self, other):
        if isinstance(other, HomogPoly):
            if self.nvars != other.nvars:
                raise ValueError("variable counts differ")
            out: dict[Monomial, int | Fraction] = {}
            for m1, c1 in self.coeffs.items():
                for m2, c2 in other.coeffs.items():
                    m = tuple(map(add, m1, m2))
                    out[m] = out.get(m, 0) + c1 * c2
            return HomogPoly(self.nvars, self.degree + other.degree, out)
        other = exact(other)
        return HomogPoly(self.nvars, self.degree, [(m, c * other) for m, c in self.coeffs.items()])

    def __rmul__(self, other) -> "HomogPoly":
        return self * other

    def __pow__(self, k: int) -> "HomogPoly":
        if k < 0:
            raise ValueError("negative power")
        out = HomogPoly(self.nvars, 0, [((0,) * self.nvars, 1)])
        for _ in range(k):
            out = out * self
        return out

    def __hash__(self) -> int:
        # `coeffs` is a dict, so the generated field hash would fail. The
        # polynomial is immutable, so its hash is computed once.
        h = self._hash
        if h is None:
            h = hash((self.nvars, self.degree, frozenset(self.coeffs.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        return f"HomogPoly({format_poly(self)!r})"


def variable(nvars: int, index: int) -> HomogPoly:
    """The linear form x_{index+1} (zero-based index)."""
    return HomogPoly.from_monomial(monomials_of_degree(nvars, 1)[index])


def linear_form(coeffs: Sequence) -> HomogPoly:
    """Linear form with the given coefficient vector."""
    return HomogPoly(len(coeffs), 1, zip(monomials_of_degree(len(coeffs), 1), coeffs))


class IdealKind(Enum):
    MONOMIAL = "monomial"
    MONOMIAL_PLUS_ONE_BINOMIAL = "monomial_plus_one_binomial"
    GENERAL = "general"


@dataclass(frozen=True)
class IdealSpec:
    """Homogeneous ideal given by generators, with a classified shape."""

    nvars: int
    generators: tuple[HomogPoly, ...]
    kind: IdealKind

    def binomial_parts(self) -> tuple[tuple[Monomial, ...], Monomial, Monomial]:
        """For the monomial-plus-one-binomial shape: (J monomials, f1, f2)."""
        if self.kind is not IdealKind.MONOMIAL_PLUS_ONE_BINOMIAL:
            raise ValueError("ideal is not of monomial-plus-one-binomial shape")
        singles = []
        pair = None
        for g in self.generators:
            sup = g.support()
            if len(sup) == 1:
                singles.append(sup[0])
            else:
                pair = sup
        if pair is None:
            raise ValueError("ideal has no binomial generator")
        return tuple(singles), pair[0], pair[1]


def make_ideal(nvars: int, gens: Iterable[HomogPoly]) -> IdealSpec:
    """Build an IdealSpec, normalizing generators and classifying the shape.

    Single-term generators are rescaled to coefficient 1. A two-term
    generator whose coefficients are equal is rescaled to the pair (1, 1);
    with unequal coefficients the ideal is classified as general instead.
    """
    kept = []
    for g in gens:
        if g.nvars != nvars:
            raise ValueError("generator variable count does not match")
        if len(g.coeffs) == 1:
            (m, c), = g.coeffs.items()
            kept.append(g if c == 1 else HomogPoly.from_monomial(m))
        elif g.coeffs:
            kept.append(g)

    multi = [i for i, g in enumerate(kept) if len(g.coeffs) > 1]
    if not multi:
        return IdealSpec(nvars, tuple(kept), IdealKind.MONOMIAL)
    terms = kept[multi[0]].terms()
    if (len(multi) == 1 and len(terms) == 2 and terms[0][1] == terms[1][1]
            and all(g.degree == 2 for g in kept)):
        kept[multi[0]] = HomogPoly(nvars, 2, [(m, 1) for m, _ in terms])
        return IdealSpec(nvars, tuple(kept), IdealKind.MONOMIAL_PLUS_ONE_BINOMIAL)
    return IdealSpec(nvars, tuple(kept), IdealKind.GENERAL)


def monomial_ideal(nvars: int, monomials: Iterable[Monomial]) -> IdealSpec:
    """IdealSpec generated by the given monomials."""
    return make_ideal(nvars, [HomogPoly.from_monomial(m) for m in monomials])


# ---------------------------------------------------------------------------
# formatting


@lru_cache(maxsize=1 << 12)  # a scan formats the same few generators over and over
def format_monomial(m: Monomial) -> str:
    parts = []
    for i, e in enumerate(m):
        if e == 1:
            parts.append(f"x{i + 1}")
        elif e > 1:
            parts.append(f"x{i + 1}^{e}")
    return "*".join(parts) if parts else "1"


def _format_coeff_mono(c: int | Fraction, m: Monomial) -> str:
    if not any(m):
        return str(c)
    mono = format_monomial(m)
    if c == 1:
        return mono
    if c == -1:
        return f"-{mono}"
    return f"{c}*{mono}"


def format_poly(p: HomogPoly) -> str:
    terms = p.terms()
    if not terms:
        return "0"
    pieces = []
    for idx, (m, c) in enumerate(terms):
        if idx == 0:
            pieces.append(_format_coeff_mono(c, m))
        elif c < 0:
            pieces.append(f"- {_format_coeff_mono(-c, m)}")
        else:
            pieces.append(f"+ {_format_coeff_mono(c, m)}")
    return " ".join(pieces)


def format_ideal(spec: IdealSpec) -> str:
    return ", ".join(format_poly(g) for g in spec.generators)


# ---------------------------------------------------------------------------
# parsing


class _Token(NamedTuple):
    kind: str  # int, var, or the operator itself: ^ * / + -
    text: str
    line: int
    col: int
    value: int | None  # the integer, or the variable's index


# One named group per token kind; `bad` takes any character no other group
# starts with. Digits are ASCII only.
_TOKEN = re.compile(
    r"(?P<sep>[,\n])|(?P<skip>[ \t\r]+|#[^\n]*)|(?P<int>[0-9]+)|x(?P<var>[0-9]+)"
    r"|(?P<op>[-+*/^])|(?P<bad>.)",
    re.DOTALL,
)


def _tokenize(text: str) -> list[list[_Token]]:
    """Tokens of each comma- or newline-separated segment, empty ones dropped."""
    segments: list[list[_Token]] = [[]]
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind, tok_text, col = m.lastgroup, m.group(), m.start() - line_start + 1
        if kind == "sep":
            if segments[-1]:
                segments.append([])
            if tok_text == "\n":
                line, line_start = line + 1, m.end()
        elif kind == "bad":
            if tok_text == "x":
                raise ParseError("expected a variable like x1", line, col)
            raise ParseError(f"unexpected character {tok_text!r}", line, col)
        elif kind == "op":
            segments[-1].append(_Token(tok_text, tok_text, line, col, None))
        elif kind != "skip":
            digits = m.group(kind)
            try:
                value = int(digits)
            except ValueError:  # longer than Python's int string conversion limit
                raise ParseError(f"integer too long ({len(digits)} digits)", line, col) from None
            segments[-1].append(_Token(kind, tok_text, line, col, value))
    return segments if segments[-1] else segments[:-1]


class _PolyParser:
    def __init__(self, toks: list[_Token], nvars: int):
        self.toks = toks
        self.nvars = nvars
        self.pos = 0

    def peek(self) -> _Token | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self) -> _Token:
        tok = self.peek()
        if tok is None:
            last = self.toks[-1]
            raise ParseError("unexpected end of input", last.line, last.col + len(last.text))
        self.pos += 1
        return tok

    def accept(self, kind: str) -> bool:
        tok = self.peek()
        if tok is None or tok.kind != kind:
            return False
        self.pos += 1
        return True

    def parse_poly(self) -> HomogPoly:
        terms: list[tuple[Monomial, int | Fraction]] = []
        degree: int | None = None
        while (tok := self.peek()) is not None:
            if tok.kind in ("+", "-"):
                self.pos += 1
                if self.peek() is None:
                    raise ParseError("dangling sign", tok.line, tok.col)
            elif terms:
                raise ParseError(f"expected '+' or '-', found {tok.text!r}", tok.line, tok.col)
            start = self.peek()
            coeff, mono = self.parse_term()
            mono_degree = sum(mono)
            if degree is None:
                degree = mono_degree
            elif mono_degree != degree:
                raise NonHomogeneousError(
                    f"term of degree {mono_degree} in a polynomial of degree {degree}",
                    start.line,
                    start.col,
                )
            terms.append((mono, -coeff if tok.kind == "-" else coeff))
        # HomogPoly adds up repeated monomials and drops zero coefficients.
        return HomogPoly(self.nvars, degree, terms)

    def parse_term(self) -> tuple[int | Fraction, Monomial]:
        coeff = 1
        exps = [0] * self.nvars
        while True:  # a factor at the start and after every '*'
            tok = self.peek()
            if tok is None or tok.kind in ("+", "-"):
                tok = tok or self.toks[-1]
                raise ParseError(f"expected a term, found {tok.text!r}", tok.line, tok.col)
            coeff = self.parse_factor(coeff, exps)
            if not self.accept("*"):
                return coeff, tuple(exps)

    def parse_factor(self, coeff: int | Fraction, exps: list[int]) -> int | Fraction:
        """Fold one factor into `coeff` (returned) and `exps` (in place)."""
        tok = self.take()
        if tok.kind == "int":
            if not self.accept("/"):
                return coeff * tok.value
            den = self.take()
            if den.kind != "int":
                raise ParseError("expected an integer denominator", den.line, den.col)
            if den.value == 0:
                raise ParseError("zero denominator", den.line, den.col)
            return coeff * Fraction(tok.value, den.value)
        if tok.kind == "var":
            if not 1 <= tok.value <= self.nvars:
                raise ParseError(
                    f"unknown variable {tok.text} (expected x1..x{self.nvars})", tok.line, tok.col
                )
            power = 1
            if self.accept("^"):
                e_tok = self.take()
                if e_tok.kind != "int":
                    raise ParseError("expected an integer exponent", e_tok.line, e_tok.col)
                power = e_tok.value
            exps[tok.value - 1] += power
            return coeff
        raise ParseError(f"unexpected {tok.text!r}", tok.line, tok.col)


def parse_poly(text: str, nvars: int) -> HomogPoly:
    """Parse a single homogeneous polynomial."""
    segments = _tokenize(text)
    if not segments:
        raise ParseError("empty polynomial", 1, 1)
    if len(segments) > 1:
        extra = segments[1][0]
        raise ParseError("expected a single polynomial", extra.line, extra.col)
    return _PolyParser(segments[0], nvars).parse_poly()


def parse_ideal(text: str, nvars: int) -> IdealSpec:
    """Parse a comma/newline separated generator list into an IdealSpec."""
    return make_ideal(nvars, [_PolyParser(seg, nvars).parse_poly() for seg in _tokenize(text)])
